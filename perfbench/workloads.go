package main

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/event"
	"repro/internal/netem"
	"repro/internal/psc"
	"repro/internal/simtime"
)

// workload is one benchmark input set and the rounds it drives.
type workload struct {
	name string
	why  string
	psc  bool // runs PSC unique-client rounds
	priv bool // runs PrivCount Figure 1 rounds (concurrently with PSC when both)
	// torctl feeds each DC over its own control connection; otherwise
	// the driver calls Observe / Increment directly.
	torctl bool
	wan    bool // shape every party link with netem wan-tor

	bins, noisePerCP int
	block            int // shuffle block elements (0: the psc default)
	itemsPerDC       int // PSC observations per DC per round (direct feed)
	eventsPerDC      int // distinct trace events per DC
	repeat           int // trace replays per round
	setups           int // fleet bring-ups timed for setup_s
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "psc-lan",
		why:  "compute-bound verified PSC rounds, a two-pass multi-block shuffle at 40-bit soundness over unshaped loopback: elgamal, psc mixing, spill and parallel do the work",
		psc:  true, bins: 256, noisePerCP: 64, block: 128, itemsPerDC: 200000, setups: 5,
	},
	{
		name: "ingest-privcount",
		why:  "closed-loop control-port replay into Figure 1 PrivCount rounds: torctl parsing, event dispatch and counters, no elgamal work at all",
		priv: true, torctl: true, eventsPerDC: 40000, repeat: 2, setups: 31,
	},
}

// unlisted are workloads the program runs when asked but BENCHMARK.json
// does not list, because their end-to-end metrics spread too far from
// run to run to judge a change by (README.md, "Unlisted workload").
var unlisted = []workload{
	{
		name: "mixed-wan-tor",
		why:  "a PSC and a PrivCount round at once on the same sessions over netem wan-tor links: proof bulk and RTT-bound exchanges contend on the wire",
		psc:  true, priv: true, wan: true, bins: 32, noisePerCP: 16, eventsPerDC: 20000, repeat: 90, setups: 5,
	},
}

// allWorkloads lists the listed workloads, then the unlisted ones.
func allWorkloads() []workload {
	return append(append([]workload(nil), workloads...), unlisted...)
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pscConfig is the round configuration, with proof rounds derived from
// the geometry for soundnessBits per stage.
func (w workload) pscConfig() psc.Config {
	cfg := psc.Config{Bins: w.bins, NoisePerCP: w.noisePerCP, ShuffleBlockElems: w.block, NumDCs: numDCs, NumCPs: numCPs}
	cfg.ShuffleProofRounds = soundProofRounds(cfg)
	return cfg
}

// shape is the workload's link profile for the given bring-up of a
// run, seeded from the run seed and the bring-up.
func (w workload) shape(seed int64, bringUp int) *netem.Profile {
	if !w.wan {
		return nil
	}
	p, _ := netem.Lookup("wan-tor")
	p.Seed = seed*100 + int64(bringUp)
	return &p
}

// inputs is everything a run feeds the program, generated from the
// seed before any clock starts.
type inputs struct {
	items  [][]string           // per DC: PSC observations
	events [][]event.Event      // per DC: relay events
	lines  [][]byte             // per DC: events rendered as control-port lines
	exact  map[string][]float64 // a round's exact Figure 1 counts
}

func makeInputs(w workload, seed int64) (*inputs, error) {
	rng := simtime.Rand(uint64(seed), "perfbench")
	in := &inputs{}
	var model *traceModel
	if w.eventsPerDC > 0 {
		var err error
		if model, err = newTraceModel(); err != nil {
			return nil, err
		}
	}
	var pool []netip.Addr
	if w.psc {
		pool = clientPool(rng, occupancyPool(w.bins))
	} else {
		pool = clientPool(rng, 1024)
	}
	epoch := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := 0; i < numDCs; i++ {
		if w.itemsPerDC > 0 {
			in.items = append(in.items, pscItems(rng, pool, w.itemsPerDC))
		}
		if w.eventsPerDC > 0 {
			evs := model.eventTrace(rng, w.eventsPerDC, event.RelayID(i), pool)
			in.events = append(in.events, evs)
			if w.torctl {
				b, err := renderTrace(evs, epoch)
				if err != nil {
					return nil, fmt.Errorf("render trace: %w", err)
				}
				in.lines = append(in.lines, b)
			}
		}
	}
	if in.events != nil {
		in.exact = exactCounts(in.events, w.repeat)
	}
	return in, nil
}
