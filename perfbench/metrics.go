package main

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// metricDef names one reported metric. Bound is the end-to-end
// regression bound as a share of the parent's median (zero for
// per-layer metrics, which carry none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run: what an operator waits
// for and what the host pays, per round unless stated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_s", "s", "lower", 0.25},
	{"ingest_eps", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of a traced run, named after the modules.
// Each is what it measures per round (median over the run's rounds)
// unless its name says otherwise; a layer the workload does not touch
// reads 0.
var perLayer = []metricDef{
	{"elgamal.prove_block_s", "s", "lower", 0},
	{"elgamal.verify_block_s", "s", "lower", 0},
	{"elgamal.verify_bits_us", "us", "lower", 0},
	{"elgamal.verify_shares_us", "us", "lower", 0},
	{"elgamal.encrypt_bits_us", "us", "lower", 0},
	{"psc.dc_setup_s", "s", "lower", 0},
	{"psc.observe_ns", "ns", "lower", 0},
	{"psc.dc_finish_s", "s", "lower", 0},
	{"psc.tail_s", "s", "lower", 0},
	{"psc.round_s", "s", "lower", 0},
	{"psc.proof_rounds", "count", "lower", 0},
	{"psc.soundness_bits", "bits", "higher", 0},
	{"spill.write_mb_s", "MB/s", "higher", 0},
	{"spill.read_mb_s", "MB/s", "higher", 0},
	{"spill.mem_fallbacks", "count", "lower", 0},
	{"parallel.cpu_util", "cpu/wall", "higher", 0},
	{"parallel.shard_skew", "max/mean", "lower", 0},
	{"wire.round_mb", "MB", "lower", 0},
	{"wire.bytes_cp", "MB", "lower", 0},
	{"wire.bytes_sk", "MB", "lower", 0},
	{"wire.bytes_dc", "MB", "lower", 0},
	{"wire.write_block_s.cp", "s", "lower", 0},
	{"wire.write_block_s.sk", "s", "lower", 0},
	{"wire.write_block_s.dc", "s", "lower", 0},
	{"wire.window_bytes", "B", "higher", 0},
	{"wire.rtt_ms", "ms", "lower", 0},
	{"engine.start_s", "s", "lower", 0},
	{"engine.round_s", "s", "lower", 0},
	{"engine.parties_absent", "count", "lower", 0},
	{"torctl.parse_ns", "ns", "lower", 0},
	{"torctl.lines", "count", "higher", 0},
	{"torctl.skipped", "count", "lower", 0},
	{"torctl.starved_s", "s", "lower", 0},
	{"torctl.dispatch_s", "s", "lower", 0},
	{"privcount.increment_ns", "ns", "lower", 0},
	{"privcount.dc_setup_s", "s", "lower", 0},
	{"privcount.dc_finish_s", "s", "lower", 0},
	{"privcount.tail_s", "s", "lower", 0},
	{"privcount.round_s", "s", "lower", 0},
	{"go.gc_cpu_frac", "frac", "lower", 0},
	{"go.alloc_mb", "MB", "lower", 0},
	{"go.goroutines_leaked", "count", "lower", 0},
	{"span.collect_s", "s", "lower", 0},
	{"span.round_self_frac", "frac", "lower", 0},
	{"span.run_self_s", "s", "lower", 0},
	{"trace.round_s", "s", "lower", 0},
	{"trace.rounds", "count", "higher", 0},
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every round and takes the median.
func medianOf(rounds []roundStats, f func(roundStats) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// spanMedian is the median duration, in seconds, of the spans named
// name (0 when there are none).
func spanMedian(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, s.seconds())
		}
	}
	return median(xs)
}

// shardSkew reads the parallel/<pool>/shard-N/jobs counters from the
// registry and returns the largest max÷mean over pools (0 if none ran).
func shardSkew(reg *metrics.Registry) float64 {
	pools := map[string][]float64{}
	for name, v := range reg.Snapshot() {
		rest, ok := strings.CutPrefix(name, "parallel/")
		if !ok || !strings.HasSuffix(rest, "/jobs") {
			continue
		}
		pool, shard, ok := strings.Cut(strings.TrimSuffix(rest, "/jobs"), "/shard-")
		if _, err := strconv.Atoi(shard); !ok || err != nil {
			continue
		}
		pools[pool] = append(pools[pool], v)
	}
	worst := 0.0
	for _, jobs := range pools {
		var sum, max float64
		for _, j := range jobs {
			sum += j
			if j > max {
				max = j
			}
		}
		if sum > 0 {
			if skew := max / (sum / float64(len(jobs))); skew > worst {
				worst = skew
			}
		}
	}
	return worst
}
