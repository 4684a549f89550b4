// Command perfbench is the repository's benchmark. It runs one workload
// against an in-process fleet (3 computation parties, 3 share keepers,
// 2 data collectors) driven only through the program's public entry
// points, checks every round's output, and prints the run's metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload psc-lan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run counts traffic on every link and reports the per-layer
// metrics, and writes its spans to <out>/trace-<workload>-<seed>.json.
// See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/elgamal"
	"repro/internal/parallel"
	"repro/internal/spill"
)

// watchdog ends a wedged run with a non-zero status before the
// caller's 180-second limit.
const watchdog = 170 * time.Second

// leakGrace is how long teardown may take to return to the baseline.
const leakGrace = 10 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for scratch files and the trace
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	env      map[string]string
	failures []string
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to run measured rounds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v; giving up\n", watchdog)
		os.Exit(3)
	})
	res, err := execute(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, f := range res.failures {
			fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", f)
		}
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printResult writes the environment stamp and then the result object
// as the last line.
func printResult(w io.Writer, res *result) error {
	env, err := json.Marshal(res.env)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "env %s\n%s\n", env, line)
	return err
}

// environment stamps what the numbers were measured on.
func environment() map[string]string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        model,
	}
}

// execute runs the named workload and returns its result. An error
// means the run could not produce a result at all.
func execute(o options) (*result, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	return runWorkload(o, w)
}

func runWorkload(o options, w workload) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	in, err := makeInputs(w, o.seed)
	if err != nil {
		return nil, err
	}
	spillDir := filepath.Join(o.out, fmt.Sprintf("spill-%d", os.Getpid()))
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)
	spill.SetDir(spillDir)

	// The relays stand for the Tor side and outlive every fleet; the
	// worker pool is process-wide and never shrinks. Both start before
	// the goroutine baseline so neither counts as a leak.
	var relays []*relay
	for i := range in.lines {
		r, err := newRelay(in.lines[i], len(in.events[i]), w.repeat)
		if err != nil {
			return nil, err
		}
		relays = append(relays, r)
	}
	parallel.For(4*parallel.PoolSize(), 1, func(lo, hi int) {})
	baseGoroutines, baseFDs := runtime.NumGoroutine(), countFDs()
	// peak_heap_mb counts the fleet's heap above the inputs.
	runtime.GC()
	baseHeap := runtimeSample(rmLiveHeap)[0]

	chk := &checks{}
	tr := &tracer{}
	root := tr.open("run", -1)

	// Set-up: the fleet is brought up w.setups times (each but the last
	// torn down again, with a leak check) and setup_s is the median.
	// On unshaped links a set-up includes one warm-up round.
	var setups []float64
	var f *fleet
	var links *linkStats
	for k := 0; k < w.setups; k++ {
		if o.trace {
			links = newLinkStats()
		}
		sid := tr.open("setup", root)
		if k == 0 {
			elgamal.BaseMul(big.NewInt(1)) // the lazy generator table
		}
		f, err = startFleet(w.shape(o.seed, k), links)
		if err == nil && !w.wan {
			// On loopback a bare bring-up takes milliseconds; on wan-tor
			// its hello round trips alone are stable, and a warm-up round
			// would cost seconds per bring-up.
			if err = warmUp(f, w, chk); err != nil {
				f.stop()
			}
		}
		setups = append(setups, tr.close(sid).Seconds())
		if !chk.check(err == nil, "fleet set-up: %v", err) {
			for _, r := range relays {
				r.close()
			}
			return finish(o, w, chk, tr, nil, setups, nil)
		}
		if k < w.setups-1 {
			teardown(f, nil, chk, baseGoroutines, baseFDs, spillDir)
		}
	}

	hp := startHeapPeak(5 * time.Millisecond)
	d := &driver{w: w, in: in, f: f, tr: tr, chk: chk, traced: o.trace, relays: relays, heap: hp, heapBase: baseHeap}
	rm0 := runtimeSample(rmAllocs, rmGCCPU, rmTotalCPU)
	var rounds []roundStats
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < o.seconds {
		rs, err := d.round(root)
		if !chk.check(err == nil, "round %d: %v", len(rounds)+1, err) {
			break
		}
		rounds = append(rounds, rs)
	}
	hp.stop()
	rm1 := runtimeSample(rmAllocs, rmGCCPU, rmTotalCPU)
	reg := f.eng.Metrics()
	chk.check(reg.Get("spill/mem-fallbacks") == 0, "spill fell back to memory %v times", reg.Get("spill/mem-fallbacks"))
	leaked := teardown(f, relays, chk, baseGoroutines, baseFDs, spillDir)
	tr.close(root)

	res, err := finish(o, w, chk, tr, rounds, setups, func(m map[string]float64) error {
		n := float64(len(rounds))
		m["go.alloc_mb"] = (rm1[0] - rm0[0]) / 1e6 / n
		if rm1[2] > rm0[2] {
			m["go.gc_cpu_frac"] = (rm1[1] - rm0[1]) / (rm1[2] - rm0[2])
		}
		m["go.goroutines_leaked"] = float64(leaked)
		m["spill.mem_fallbacks"] = reg.Get("spill/mem-fallbacks")
		m["parallel.shard_skew"] = shardSkew(reg)
		if links != nil {
			for _, role := range []string{"cp", "sk", "dc"} {
				b, blocked := links.stats(role)
				m["wire.bytes_"+role] = float64(b) / 1e6 / n
				m["wire.write_block_s."+role] = blocked.Seconds() / n
			}
		}
		return probe(w, in, m)
	})
	return res, err
}

// teardown stops the fleet (and the relays, when given) and checks
// that the process returns to its pre-fleet state: goroutines and open
// files back to the baseline within leakGrace, the spill directory
// empty. It returns the goroutines still above the baseline.
func teardown(f *fleet, relays []*relay, chk *checks, baseGoroutines, baseFDs int, spillDir string) int {
	if err := f.stop(); err != nil {
		chk.fail("fleet teardown: %v", err)
	}
	for i, r := range relays {
		if err := r.close(); err != nil {
			chk.fail("relay %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(leakGrace)
	for (runtime.NumGoroutine() > baseGoroutines || countFDs() > baseFDs) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	leaked := runtime.NumGoroutine() - baseGoroutines
	chk.check(leaked <= 0, "%d goroutines above the pre-fleet baseline after %v", leaked, leakGrace)
	fds := countFDs() - baseFDs
	chk.check(fds <= 0, "%d open files above the pre-fleet baseline after %v", fds, leakGrace)
	ents, err := os.ReadDir(spillDir)
	chk.check(err == nil && len(ents) == 0, "spill directory holds %d entries (%v)", len(ents), err)
	if leaked < 0 {
		leaked = 0
	}
	return leaked
}

// countFDs counts the process's open file descriptors (0 where
// /proc is unavailable).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
