package main

import (
	"fmt"
	"path/filepath"
)

// finish turns a run's measurements into its result. layer, called
// only for traced runs that measured rounds, adds the per-layer
// metrics not derived from rounds and spans.
func finish(o options, w workload, chk *checks, tr *tracer, rounds []roundStats, setups []float64, layer func(map[string]float64) error) (*result, error) {
	m := map[string]float64{
		"setup_s": median(setups),
		"round_s": medianOf(rounds, func(r roundStats) float64 { return r.tail.Seconds() }),
		"ingest_eps": medianOf(rounds, func(r roundStats) float64 {
			if r.ingest <= 0 {
				return 0
			}
			return float64(r.events) / r.ingest.Seconds()
		}),
		"cpu_s":        medianOf(rounds, func(r roundStats) float64 { return r.cpu }),
		"peak_heap_mb": medianOf(rounds, func(r roundStats) float64 { return r.heap / 1e6 }),
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if len(rounds) > 0 {
			layerMetrics(w, tr, rounds, m)
			err := layer(m)
			chk.check(err == nil, "layer probe: %v", err)
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res := &result{Metrics: map[string]metricValue{}, env: environment()}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	res.Attempted, res.Failed, res.failures = chk.attempts, len(chk.failures), chk.failures
	res.Correct = res.Failed == 0
	return res, nil
}

// layerMetrics derives the per-layer metrics measured by the rounds
// themselves and by the spans around them.
func layerMetrics(w workload, tr *tracer, rounds []roundStats, m map[string]float64) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	var fracs []float64
	for i, s := range spans {
		switch s.Name {
		case "round":
			if d := s.End.Sub(s.Start); d > 0 {
				fracs = append(fracs, float64(self[i])/float64(d))
			}
		case "run":
			m["span.run_self_s"] = self[i].Seconds()
		}
	}
	m["span.round_self_frac"] = median(fracs)
	m["span.collect_s"] = spanMedian(spans, "collect")
	m["trace.round_s"] = m["round_s"]
	m["trace.rounds"] = float64(len(rounds))

	of := func(f func(roundStats) float64) float64 { return medianOf(rounds, f) }
	m["parallel.cpu_util"] = of(func(r roundStats) float64 { return r.tailCPU / r.tail.Seconds() })
	m["wire.round_mb"] = of(func(r roundStats) float64 { return float64(r.wireBytes) / 1e6 })
	m["wire.window_bytes"] = of(func(r roundStats) float64 { return r.window })
	m["wire.rtt_ms"] = of(func(r roundStats) float64 { return r.rtt })
	m["engine.start_s"] = of(func(r roundStats) float64 { return r.startSec })
	m["engine.round_s"] = of(func(r roundStats) float64 { return r.engineSec })
	for _, r := range rounds {
		m["engine.parties_absent"] += float64(r.absent)
		m["torctl.skipped"] += float64(r.skipped)
	}
	if w.psc {
		cfg := w.pscConfig()
		m["psc.proof_rounds"] = float64(cfg.ShuffleProofRounds)
		m["psc.soundness_bits"] = stageBits(cfg, cfg.ShuffleProofRounds)
		m["psc.dc_setup_s"] = spanMedian(spans, "psc.dc.setup")
		m["psc.dc_finish_s"] = spanMedian(spans, "psc.dc.finish")
		m["psc.tail_s"] = spanMedian(spans, "psc.tail")
		m["psc.round_s"] = of(func(r roundStats) float64 { return r.pscTail.Seconds() })
		// Collect wall time per event offered (the DCs are fed one
		// after the other); on mixed-wan-tor the events also feed
		// PrivCount.
		m["psc.observe_ns"] = of(func(r roundStats) float64 {
			return float64(r.collect.Nanoseconds()) / float64(r.events)
		})
	}
	if w.priv {
		m["privcount.dc_setup_s"] = spanMedian(spans, "privcount.dc.setup")
		m["privcount.dc_finish_s"] = spanMedian(spans, "privcount.dc.finish")
		m["privcount.tail_s"] = spanMedian(spans, "privcount.tail")
		m["privcount.round_s"] = of(func(r roundStats) float64 { return r.privTail.Seconds() })
	}
	if w.torctl {
		m["torctl.lines"] = of(func(r roundStats) float64 { return float64(r.parsed) })
		m["torctl.starved_s"] = of(func(r roundStats) float64 { return r.starved.Seconds() })
		m["torctl.dispatch_s"] = of(func(r roundStats) float64 { return r.dispatch.Seconds() })
	}
}

// probe runs the layer probes of the layers the workload uses.
func probe(w workload, in *inputs, m map[string]float64) error {
	if w.psc {
		if err := probeElgamal(w.pscConfig(), m); err != nil {
			return err
		}
	}
	if w.torctl {
		if err := probeTorctl(in.lines[0], m); err != nil {
			return err
		}
	}
	if w.priv {
		if err := probeIncrement(in.events[0], m); err != nil {
			return err
		}
	}
	return nil
}
