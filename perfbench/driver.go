package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/torctl"
)

// roundTimeout bounds every round (the engine's round deadline) and the
// wait for its DCs, so a wedged round fails instead of hanging the run.
const roundTimeout = 120 * time.Second

// noiseSigmas is the PrivCount acceptance window: each bin must lie
// within this many effective standard deviations of the exact count (a
// false alarm has probability ~2e-9 per bin).
const noiseSigmas = 6

// roundStats is what one round measured.
type roundStats struct {
	tail      time.Duration // Finish called -> last result checked
	pscTail   time.Duration // Finish called -> PSC result (0: no PSC round)
	privTail  time.Duration // Finish called -> PrivCount result
	cpu       float64       // process CPU seconds, round start -> result
	tailCPU   float64       // process CPU seconds during the tail
	wireBytes int64         // Round.Stats sent+recv over the round's rounds
	events    int           // events dispatched into the DCs
	ingest    time.Duration // first event offered -> last dispatched
	collect   time.Duration // the collect phase
	engineSec float64       // Round.Stats().Seconds, summed over the round's rounds
	startSec  float64       // time inside engine.Start*, summed
	absent    int
	starved   time.Duration // torctl consumers waiting on an empty Events()
	dispatch  time.Duration // torctl consumers busy dispatching
	parsed    int64
	skipped   int64
	window    float64 // wire/<label>/window-bytes of the bulk round
	rtt       float64 // wire/<label>/rtt-ms of the bulk round
	occupied  int     // max DC table occupancy (PSC)
	heap      float64 // peak live heap above the pre-fleet baseline, bytes
}

// checks counts correctness operations.
type checks struct {
	mu       sync.Mutex
	attempts int
	failures []string
}

func (c *checks) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (c *checks) fail(format string, args ...any) { c.check(false, format, args...) }

// driver runs rounds of one workload over one fleet.
type driver struct {
	w      workload
	in     *inputs
	f      *fleet
	tr     *tracer
	chk    *checks
	traced bool
	relays []*relay

	heap     *heapPeak // nil: no heap sampling
	heapBase float64   // live heap before the fleet existed
}

// warmUp runs one minimal round of each of the workload's protocols on
// a fresh fleet (no events, a tiny PSC table), so that the fleet's
// first-round costs — per-party key precomputation, first streams,
// transport warm-up — count as set-up rather than as a measured round.
// Its spans are discarded; its checks count.
func warmUp(f *fleet, w workload, chk *checks) error {
	w.torctl, w.itemsPerDC, w.eventsPerDC, w.repeat = false, 0, 0, 0
	if w.psc {
		w.bins, w.noisePerCP = 8, 8
	}
	d := &driver{w: w, in: &inputs{items: make([][]string, numDCs)}, f: f, tr: &tracer{}, chk: chk}
	_, err := d.round(-1)
	return err
}

// round runs one measurement round (a PSC and a PrivCount round at once
// when the workload has both) and records its spans under parent.
func (d *driver) round(parent int) (roundStats, error) {
	var rs roundStats
	w := d.w
	rid := d.tr.open("round", parent)
	defer d.tr.close(rid)
	cpu0 := cpuSeconds()
	if d.heap != nil {
		d.heap.take()
	}

	var pr, vr *engine.Round
	var pscCfg psc.Config
	if w.psc {
		pscCfg = w.pscConfig()
		if err := checkSound(pscCfg); err != nil {
			return rs, err
		}
		s := d.tr.open("psc.engine.start", rid)
		var err error
		pr, err = d.f.eng.StartPSC(pscCfg, nil)
		rs.startSec += d.tr.close(s).Seconds()
		if err != nil {
			return rs, fmt.Errorf("start psc: %w", err)
		}
	}
	if w.priv {
		s := d.tr.open("privcount.engine.start", rid)
		var err error
		vr, err = d.f.eng.StartPrivCount(privcount.TallyConfig{Stats: fig1Stats(), NumDCs: numDCs, NumSKs: numSKs}, nil)
		rs.startSec += d.tr.close(s).Seconds()
		if err != nil {
			if pr != nil {
				pr.Abort("benchmark: privcount start failed")
			}
			return rs, fmt.Errorf("start privcount: %w", err)
		}
	}
	setupFrom := time.Now()
	var pdcs, vdcs []*dcRound
	var err error
	if pr != nil {
		if pdcs, err = d.f.roundDCs(pr.ID, roundTimeout); err != nil {
			abortAll(pr, vr)
			return rs, err
		}
		d.tr.add("psc.dc.setup", rid, setupFrom, lastSetup(pdcs))
	}
	if vr != nil {
		if vdcs, err = d.f.roundDCs(vr.ID, roundTimeout); err != nil {
			abortAll(pr, vr)
			return rs, err
		}
		d.tr.add("privcount.dc.setup", rid, setupFrom, lastSetup(vdcs))
	}

	cid := d.tr.open("collect", rid)
	if err := d.collect(pdcs, vdcs, &rs); err != nil {
		abortAll(pr, vr)
		return rs, err
	}
	rs.collect = d.tr.close(cid)
	var sumOcc int
	for _, dc := range pdcs {
		n := dc.psc.Occupied()
		sumOcc += n
		rs.occupied = max(rs.occupied, n)
	}

	// A real collection period lasts hours, so its garbage is long
	// collected before the DCs finish. The benchmark compresses
	// collection into moments, so it runs that garbage collection
	// before the tail's clock starts.
	gid := d.tr.open("gc", rid)
	runtime.GC()
	d.tr.close(gid)

	// Collection is over: every DC finishes at once and the clock runs
	// until each round's result is back and checked.
	t0 := time.Now()
	cpuTail0 := cpuSeconds()
	type outcome struct {
		label string
		end   time.Time
		err   error
	}
	results := make(chan outcome, 2)
	var finMu sync.Mutex // guards finEnd and finErrs until fin.Wait
	finEnd := map[string]time.Time{}
	var finErrs []error
	var fin sync.WaitGroup
	for _, dc := range append(append([]*dcRound(nil), pdcs...), vdcs...) {
		fin.Add(1)
		go func(dc *dcRound) {
			defer fin.Done()
			err := dc.finish()
			now := time.Now()
			finMu.Lock()
			defer finMu.Unlock()
			if now.After(finEnd[dc.label]) {
				finEnd[dc.label] = now
			}
			if err != nil {
				finErrs = append(finErrs, fmt.Errorf("%s finish: %w", dc.label, err))
			}
		}(dc)
	}
	if pr != nil {
		go func() {
			res, err := pr.WaitPSC()
			end := time.Now()
			if err == nil {
				d.checkPSC(res.Reported, res.AbsentDCs, rs.occupied, sumOcc, pscCfg.TotalNoiseTrials())
			}
			results <- outcome{engine.LabelPSC, end, err}
		}()
	}
	if vr != nil {
		go func() {
			res, err := vr.WaitPrivCount()
			end := time.Now()
			if err == nil {
				d.checkPriv(res, d.in.exact)
			}
			results <- outcome{engine.LabelPrivCount, end, err}
		}()
	}
	var outs []outcome
	for n := 0; n < countRounds(pr, vr); n++ {
		outs = append(outs, <-results)
	}
	fin.Wait()
	var last time.Time
	errs := finErrs
	for _, o := range outs {
		if o.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", o.label, o.err))
		}
		if o.end.After(last) {
			last = o.end
		}
		proto := "psc"
		if o.label == engine.LabelPrivCount {
			proto = "privcount"
		}
		// The DCs' Finish returns once their last frame is written,
		// which can be a moment after the tally already answered.
		fe := finEnd[o.label]
		if fe.After(o.end) {
			fe = o.end
		}
		d.tr.add(proto+".dc.finish", rid, t0, fe)
		d.tr.add(proto+".tail", rid, fe, o.end)
		if proto == "psc" {
			rs.pscTail = o.end.Sub(t0)
		} else {
			rs.privTail = o.end.Sub(t0)
		}
	}
	rs.tail = last.Sub(t0)
	rs.cpu = cpuSeconds() - cpu0
	rs.tailCPU = cpuSeconds() - cpuTail0
	if d.heap != nil {
		rs.heap = d.heap.take() - d.heapBase
	}
	for _, r := range []*engine.Round{pr, vr} {
		if r == nil {
			continue
		}
		st := r.Stats()
		rs.wireBytes += st.BytesSent + st.BytesRecv
		rs.engineSec += st.Seconds
		rs.absent += len(r.Absent())
	}
	d.chk.check(rs.absent == 0, "round had %d absent parties", rs.absent)
	bulk := engine.LabelPrivCount
	if pr != nil {
		bulk = engine.LabelPSC
	}
	reg := d.f.eng.Metrics()
	rs.window = reg.Gauge("wire/" + bulk + "/window-bytes")
	rs.rtt = reg.Gauge("wire/" + bulk + "/rtt-ms")
	if len(errs) > 0 {
		return rs, fmt.Errorf("round failed: %v", errs)
	}
	return rs, nil
}

func countRounds(rs ...*engine.Round) int {
	n := 0
	for _, r := range rs {
		if r != nil {
			n++
		}
	}
	return n
}

func abortAll(rs ...*engine.Round) {
	for _, r := range rs {
		if r != nil {
			r.Abort("benchmark: round setup failed")
		}
	}
}

func lastSetup(dcs []*dcRound) time.Time {
	var t time.Time
	for _, d := range dcs {
		if d.setupEnd.After(t) {
			t = d.setupEnd
		}
	}
	return t
}

// checkPSC applies the exact PSC bound: the reported count holds the
// union of the DCs' occupied bins (at least the largest table, at most
// their sum) plus at most one noise bit per noise trial.
func (d *driver) checkPSC(reported int, absent []string, maxOcc, sumOcc, noise int) {
	d.chk.check(len(absent) == 0, "psc: absent DCs %v", absent)
	d.chk.check(maxOcc <= reported && reported <= sumOcc+noise,
		"psc: reported %d outside [%d, %d+%d]", reported, maxOcc, sumOcc, noise)
}

// checkPriv requires every bin within noiseSigmas effective standard
// deviations of the benchmark's exact count. With every DC required
// (no quorum), the DCs' noise shares sum to the configured sigma.
func (d *driver) checkPriv(got, want map[string][]float64) {
	for stat, bins := range want {
		for i, exact := range bins {
			v := math.NaN()
			if i < len(got[stat]) {
				v = got[stat][i]
			}
			d.chk.check(math.Abs(v-exact) <= noiseSigmas*privSigma,
				"privcount: %s[%d] = %.1f, exact %.0f, window ±%.0f", stat, i, v, exact, noiseSigmas*privSigma)
		}
	}
}

// feed is what one DC's collection measured.
type feed struct {
	events          int
	start, end      time.Time
	starved, busy   time.Duration // torctl consumer waiting / dispatching
	parsed, skipped int64         // torctl lines
}

// collect feeds one round's inputs into the DCs, one DC after the
// other on the calling goroutine: the load comes from one thread, so
// the feed never has more goroutines busy than there are CPUs. ingest
// is the sum of the DCs' feed times.
func (d *driver) collect(pdcs, vdcs []*dcRound, rs *roundStats) error {
	for i := 0; i < numDCs; i++ {
		var pdc, vdc *dcRound
		if pdcs != nil {
			pdc = pdcs[i]
		}
		if vdcs != nil {
			vdc = vdcs[i]
		}
		var f feed
		if d.w.torctl {
			var err error
			if f, err = d.ingest(i, pdc, vdc); err != nil {
				return fmt.Errorf("dc-%d feed: %w", i, err)
			}
		} else {
			f = d.feedDirect(i, pdc, vdc)
		}
		rs.events += f.events
		rs.ingest += f.end.Sub(f.start)
		rs.starved += f.starved
		rs.dispatch += f.busy
		rs.parsed += f.parsed
		rs.skipped += f.skipped
	}
	return nil
}

// feedDirect offers DC i its round inputs through Observe / Increment.
func (d *driver) feedDirect(i int, pdc, vdc *dcRound) feed {
	f := feed{start: time.Now()}
	if d.in.events != nil {
		for k := 0; k < d.w.repeat; k++ {
			for _, ev := range d.in.events[i] {
				dispatch(ev, pdc, vdc)
			}
		}
		f.events = d.w.repeat * len(d.in.events[i])
	} else {
		for _, it := range d.in.items[i] {
			_ = pdc.psc.Observe(it)
		}
		f.events = len(d.in.items[i])
	}
	f.end = time.Now()
	return f
}

// dispatch routes one event the way cmd/datacollector does: client IPs
// of ConnectionEnds into the PSC round, StreamEnds through the Figure 1
// mapping into the PrivCount round.
func dispatch(ev event.Event, pdc, vdc *dcRound) {
	switch e := ev.(type) {
	case *event.ConnectionEnd:
		if pdc != nil {
			_ = pdc.psc.Observe(e.ClientIP.String())
		}
	case *event.StreamEnd:
		if vdc != nil {
			fig1(e, func(stat string, bin int) { _ = vdc.priv.Increment(stat, bin, 1) })
		}
	}
}

// ingest consumes DC i's control connection until the relay's end
// marker, dispatching every event. It checks that every line fed was
// parsed, none skipped and the connection never re-established.
func (d *driver) ingest(i int, pdc, vdc *dcRound) (feed, error) {
	var f feed
	src, err := torctl.DialSource(torctl.Config{
		Addr: d.relays[i].addr(), DialTimeout: dialTimeout, MaxDialFailures: 1,
	}, torctl.LineParser{DefaultRelay: event.RelayID(i)})
	if err != nil {
		return f, fmt.Errorf("control connection: %w", err)
	}
	defer src.Close()
	ch := src.Events()
	if d.traced {
		for {
			var ev event.Event
			var ok bool
			select {
			case ev, ok = <-ch:
			default:
				t := time.Now()
				ev, ok = <-ch
				f.starved += time.Since(t)
			}
			if !ok {
				break
			}
			f.events++
			dispatch(ev, pdc, vdc)
		}
	} else {
		for ev := range ch {
			f.events++
			dispatch(ev, pdc, vdc)
		}
	}
	f.end = time.Now()
	f.start = d.relays[i].started()
	f.busy = f.end.Sub(f.start) - f.starved
	f.parsed, f.skipped = src.Stats()
	fed := d.relays[i].lines * d.relays[i].repeat
	d.chk.check(src.Err() == nil, "dc-%d control connection: %v", i, src.Err())
	d.chk.check(int(f.parsed) == fed && f.events == fed && f.skipped == 0,
		"dc-%d ingest: fed %d lines, parsed %d, dispatched %d, skipped %d", i, fed, f.parsed, f.events, f.skipped)
	d.chk.check(src.Reconnects() == 0, "dc-%d control connection reconnected %d times", i, src.Reconnects())
	return f, nil
}
