package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/stats"
	"repro/internal/tornet"
	"repro/internal/wire"
)

// These integration tests run the full multi-party deployments over
// real TCP sockets (loopback), optionally under TLS with pinned keys —
// the same code path as the cmd/ binaries, without process spawning.

// TestPrivCountOverTCPWithTLS runs a complete PrivCount round where
// every party dials the tally server over TLS and authenticates it by
// pinned SPKI.
func TestPrivCountOverTCPWithTLS(t *testing.T) {
	id, err := wire.GenerateIdentity("tally", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := wire.Listen("127.0.0.1:0", id.ServerTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	clientTLS := func() *wire.Conn {
		c, err := wire.Dial(addr, wire.ClientTLS(id.SPKI()), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	const numDCs, numSKs = 4, 2
	statsCfg := []privcount.StatConfig{
		{Name: "events", Bins: []string{"a", "b"}, Sigma: 0},
	}
	tally, err := privcount.NewTally(privcount.TallyConfig{
		Round: 7, Stats: statsCfg, NumDCs: numDCs, NumSKs: numSKs,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Accept server-side connections.
	acceptedCh := make(chan *wire.Conn, numDCs+numSKs)
	go func() {
		for i := 0; i < numDCs+numSKs; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			acceptedCh <- c
		}
	}()

	// TLS handshakes complete lazily on the server side (the tally
	// reads only once it runs), so every party must dial in its own
	// goroutine; a sequential dial loop would deadlock on the first
	// client handshake. Run's slice is positional (SKs first), so the
	// SKs' connections are accepted before any DC dials.
	var skWG, setupWG sync.WaitGroup
	dcCh := make(chan *privcount.DC, numDCs)
	for i := 0; i < numSKs; i++ {
		i := i
		skWG.Add(1)
		go func() {
			defer skWG.Done()
			sk, err := privcount.NewSK(fmt.Sprintf("sk-%d", i), clientTLS())
			if err != nil {
				t.Errorf("sk new: %v", err)
				return
			}
			if err := sk.Serve(); err != nil {
				t.Errorf("sk: %v", err)
			}
		}()
	}
	tsConns := make([]wire.Messenger, 0, numDCs+numSKs)
	for i := 0; i < numSKs; i++ {
		tsConns = append(tsConns, <-acceptedCh)
	}
	for i := 0; i < numDCs; i++ {
		i := i
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			dc := privcount.NewDC(fmt.Sprintf("dc-%d", i), clientTLS(), nil)
			if err := dc.Setup(); err != nil {
				t.Errorf("dc: %v", err)
				return
			}
			dcCh <- dc
		}()
	}

	resCh := make(chan map[string][]float64, 1)
	go func() {
		for i := 0; i < numDCs; i++ {
			tsConns = append(tsConns, <-acceptedCh)
		}
		res, err := tally.Run(tsConns)
		if err != nil {
			t.Errorf("tally: %v", err)
			close(resCh)
			return
		}
		resCh <- res
	}()

	setupWG.Wait()
	close(dcCh)
	dcs := make([]*privcount.DC, 0, numDCs)
	for dc := range dcCh {
		dcs = append(dcs, dc)
	}
	if len(dcs) != numDCs {
		t.Fatalf("only %d DCs completed setup", len(dcs))
	}
	for i, dc := range dcs {
		for j := 0; j <= i; j++ {
			if err := dc.Increment("events", 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := dc.Increment("events", 1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	var finWG sync.WaitGroup
	for _, dc := range dcs {
		finWG.Add(1)
		go func(dc *privcount.DC) {
			defer finWG.Done()
			if err := dc.Finish(); err != nil {
				t.Errorf("finish: %v", err)
			}
		}(dc)
	}
	finWG.Wait()
	skWG.Wait()
	res, ok := <-resCh
	if !ok {
		t.Fatal("tally failed")
	}
	// 1+2+3+4 = 10 in bin a; 4×0.5 = 2 in bin b; zero noise → exact.
	if got := res["events"][0]; got != 10 {
		t.Fatalf("bin a: %v want 10", got)
	}
	if got := res["events"][1]; got != 2 {
		t.Fatalf("bin b: %v want 2", got)
	}
}

// TestPSCOverTCP runs a complete PSC round over plain TCP loopback with
// proofs enabled and verifies the estimator output.
func TestPSCOverTCP(t *testing.T) {
	ln, err := wire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	const numDCs, numCPs = 3, 2
	cfg := psc.Config{
		Round: 9, Bins: 1024, NoisePerCP: 16,
		ShuffleProofRounds: 2, NumDCs: numDCs, NumCPs: numCPs,
	}
	tally, err := psc.NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acceptedCh := make(chan *wire.Conn, numDCs+numCPs)
	go func() {
		for i := 0; i < numDCs+numCPs; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			acceptedCh <- c
		}
	}()
	dial := func() *wire.Conn {
		c, err := wire.Dial(addr, nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	var cpWG, setupWG sync.WaitGroup
	for i := 0; i < numCPs; i++ {
		cp := psc.NewCP(fmt.Sprintf("cp-%d", i), dial(), nil)
		cpWG.Add(1)
		go func() {
			defer cpWG.Done()
			if err := cp.Serve(); err != nil {
				t.Errorf("cp: %v", err)
			}
		}()
	}
	dcs := make([]*psc.DC, numDCs)
	for i := range dcs {
		dcs[i] = psc.NewDC(fmt.Sprintf("dc-%d", i), dial())
		setupWG.Add(1)
		go func(dc *psc.DC) {
			defer setupWG.Done()
			if err := dc.Setup(); err != nil {
				t.Errorf("dc: %v", err)
			}
		}(dcs[i])
	}
	tsConns := make([]wire.Messenger, 0, numDCs+numCPs)
	for i := 0; i < numDCs+numCPs; i++ {
		tsConns = append(tsConns, <-acceptedCh)
	}
	resCh := make(chan psc.Result, 1)
	go func() {
		res, err := tally.Run(tsConns)
		if err != nil {
			t.Errorf("tally: %v", err)
			close(resCh)
			return
		}
		resCh <- res
	}()
	setupWG.Wait()
	const distinct = 120
	for i := 0; i < distinct; i++ {
		dcs[i%numDCs].Observe(fmt.Sprintf("203.0.113.%d-client-%d", i%250, i))
	}
	var finWG sync.WaitGroup
	for _, dc := range dcs {
		finWG.Add(1)
		go func(dc *psc.DC) {
			defer finWG.Done()
			if err := dc.Finish(); err != nil {
				t.Errorf("finish: %v", err)
			}
		}(dc)
	}
	finWG.Wait()
	cpWG.Wait()
	res, ok := <-resCh
	if !ok {
		t.Fatal("tally failed")
	}
	iv, err := stats.UnionCardinalityCI(stats.PSCObservation{
		Reported: res.Reported, Bins: res.Bins, NoiseTrials: res.NoiseTrials,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A 95% interval misses ~1 run in 20; allow a small margin so a
	// single unlucky binomial draw does not flake the deployment test.
	if distinct < iv.Lo-8 || distinct > iv.Hi+8 {
		t.Fatalf("estimator CI %+v must (nearly) contain %d (reported %d)", iv, distinct, res.Reported)
	}
}

// TestEventFeedRoundTrip exercises the torsim wire format end to end:
// a simulated relay event stream marshaled over TCP and consumed by a
// DC-side decoder, as cmd/torsim and cmd/datacollector do.
func TestEventFeedRoundTrip(t *testing.T) {
	env := &Env{Scale: 8000, Seed: 3, AlexaN: 5000, ProofRounds: 0}
	sim, err := env.BuildSim(tornet.StudyFractions(), 0)
	if err != nil {
		t.Fatal(err)
	}

	sent := 0
	var payloads [][]byte
	var buf []byte
	sim.Net.Bus.Subscribe(func(e event.Event) {
		buf = event.Marshal(buf[:0], e)
		cp := make([]byte, len(buf))
		copy(cp, buf)
		payloads = append(payloads, cp)
		sent++
	})
	sim.Driver.Run(1)
	if sent == 0 {
		t.Fatal("no events simulated")
	}
	for _, p := range payloads {
		if _, err := event.Unmarshal(p); err != nil {
			t.Fatalf("feed event failed to decode: %v", err)
		}
	}
}
