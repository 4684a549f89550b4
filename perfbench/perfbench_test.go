package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/psc"
)

// miniature shrinks a workload to a seconds-long run over the same code
// path: same fleet, transport, feed and checks, smaller inputs.
func miniature(w workload) workload {
	if w.psc {
		w.bins, w.noisePerCP = 32, 16
	}
	if w.block > 0 {
		w.block = 32 // still several blocks and two passes
	}
	if w.itemsPerDC > 0 {
		w.itemsPerDC = 500
	}
	if w.eventsPerDC > 0 {
		w.eventsPerDC, w.repeat = 500, 2
	}
	w.setups = 2
	return w
}

func TestMiniatureWorkloads(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			w, traced := miniature(w), traced
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && w.wan {
					t.Skip("WAN-emulated rounds take seconds")
				}
				res, err := runWorkload(options{workload: w.name, seed: 7, seconds: 0, trace: traced, out: t.TempDir()}, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("run not correct: attempted %d, failed %d: %v", res.Attempted, res.Failed, res.failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.Name]
					if !ok || mv.Unit != d.Unit {
						t.Errorf("metric %s missing or with unit %q", d.Name, mv.Unit)
					}
					if !traced && mv.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, mv.Value)
					}
				}
				if traced {
					if w.psc && res.Metrics["psc.soundness_bits"].Value < soundnessBits {
						t.Errorf("psc soundness %v bits", res.Metrics["psc.soundness_bits"].Value)
					}
					if w.psc && res.Metrics["elgamal.prove_block_s"].Value <= 0 {
						t.Error("elgamal probe did not run on a PSC workload")
					}
					if !w.psc && res.Metrics["elgamal.prove_block_s"].Value != 0 {
						t.Error("elgamal probed on a workload without PSC")
					}
					if w.torctl && res.Metrics["torctl.lines"].Value != float64(numDCs*w.repeat*w.eventsPerDC) {
						t.Errorf("torctl.lines = %v", res.Metrics["torctl.lines"].Value)
					}
				}
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := execute(options{workload: "nope", out: t.TempDir()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "run", Parent: -1, Start: at(0), End: at(100)},
		{Name: "round", Parent: 0, Start: at(10), End: at(90)},
		// Overlapping children (concurrent rounds) count once.
		{Name: "a", Parent: 1, Start: at(10), End: at(40)},
		{Name: "b", Parent: 1, Start: at(30), End: at(50)},
		// Disjoint child, and one sticking out past the parent (clipped).
		{Name: "c", Parent: 1, Start: at(60), End: at(95)},
		{Name: "leaf", Parent: 2, Start: at(15), End: at(20)},
	}
	want := []time.Duration{20, 10, 25, 20, 35, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("span %s self time %v, want %v", spans[i].Name, got[i], want[i]*time.Millisecond)
		}
	}
	// In a properly nested tree the self times add up to the root's
	// wall time.
	nested := []span{
		{Name: "round", Parent: -1, Start: at(0), End: at(100)},
		{Name: "setup", Parent: 0, Start: at(0), End: at(30)},
		{Name: "collect", Parent: 0, Start: at(30), End: at(60)},
		{Name: "tail", Parent: 0, Start: at(62), End: at(100)},
		{Name: "finish", Parent: 3, Start: at(62), End: at(70)},
	}
	var sum time.Duration
	for _, d := range selfTimes(nested) {
		sum += d
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
	if c := covered(span{Start: at(0), End: at(10)}, nil); c != 0 {
		t.Errorf("no children covered %v", c)
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or duplicate metric name %q", d.Name)
		}
		seen[d.Name] = true
		if !unitPattern.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range allWorkloads() {
		if !namePattern.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or duplicate workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes exactly what
// this program emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestSoundness(t *testing.T) {
	small := psc.Config{Bins: 256, NoisePerCP: 64, NumCPs: 3, NumDCs: 2}
	if r := soundProofRounds(small); r != soundnessBits {
		t.Errorf("single-block round needs %d proof rounds, want %d", r, soundnessBits)
	}
	// psc-lan: 320, 384 and 448 elements over 128-element blocks are
	// 3, 3 and 4 rows; with the column-group pass 7, 7 and 8 blocks per
	// stage, so 40 + log2(8) = 43 rounds.
	lan, _ := lookupWorkload("psc-lan")
	if st, r := shuffleStages(lan.pscConfig()), lan.pscConfig().ShuffleProofRounds; fmt.Sprint(st) != "[7 7 8]" || r != 43 {
		t.Errorf("psc-lan stages %v at %d proof rounds, want [7 7 8] at 43", st, r)
	}
	// 4096 bins + noise over 1024-element blocks: 5 rows, so 5 row
	// blocks plus 6 column groups of 204 columns = 11 blocks per stage,
	// and 40 + log2(11) rounds up to 44.
	big := psc.Config{Bins: 4096, NoisePerCP: 64, NumCPs: 3, NumDCs: 2}
	if st := shuffleStages(big); st[2] != 11 {
		t.Errorf("stage blocks %v, want 11 in the last stage", st)
	}
	if r := soundProofRounds(big); r != 44 {
		t.Errorf("4096-bin round needs %d proof rounds, want 44", r)
	}
	big.ShuffleProofRounds = 43
	if checkSound(big) == nil {
		t.Error("43 proof rounds accepted for an 11-block stage")
	}
	big.ShuffleProofRounds = 44
	if err := checkSound(big); err != nil {
		t.Error(err)
	}
	big.ShuffleProofRounds = 1 // the legacy bench setting
	if checkSound(big) == nil {
		t.Error("1 proof round accepted")
	}
}
