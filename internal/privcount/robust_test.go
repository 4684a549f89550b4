package privcount

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

// Failure-injection tests: the tally server must reject malformed or
// misbehaving parties with a clear error instead of producing a bogus
// aggregate.

func tallyWith(t *testing.T, cfg TallyConfig, parties func(conns []*wire.Conn)) error {
	t.Helper()
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsConns := make([]wire.Messenger, cfg.NumDCs+cfg.NumSKs)
	partyConns := make([]*wire.Conn, len(tsConns))
	for i := range tsConns {
		tsConns[i], partyConns[i] = wire.Pipe()
	}
	done := make(chan error, 1)
	go func() {
		_, err := tally.Run(tsConns)
		done <- err
	}()
	parties(partyConns)
	err = <-done
	// Unblock any party goroutine still waiting on the aborted round.
	for _, c := range tsConns {
		c.Close()
	}
	return err
}

var oneStat = []StatConfig{{Name: "s", Bins: []string{""}, Sigma: 0}}

// Run's slice is positional (SKs first, then DCs), so each rejection
// test below runs a real SK in slot 0: the tally configures it before
// it reaches the misbehaving DC slot.

func TestTallyRejectsUnknownRole(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 1, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			sk, _ := NewSK("sk", conns[0])
			go sk.Serve() // errors once the round aborts; ignored
			conns[1].Send(kindRegister, RegisterMsg{Role: "mallory", Name: "m"})
		})
	if err == nil || !strings.Contains(err.Error(), `registered as "mallory"`) {
		t.Fatalf("want an error naming role \"mallory\", got %v", err)
	}
}

func TestTallyRejectsDuplicateDCNames(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 1, Stats: oneStat, NumDCs: 2, NumSKs: 1},
		func(conns []*wire.Conn) {
			sk, _ := NewSK("sk", conns[0])
			go sk.Serve()
			// The first "same" completes its setup (the tally configures
			// it and relays its shares) before the second registers.
			go NewDC("same", conns[1], nil).Setup()
			conns[2].Send(kindRegister, RegisterMsg{Role: RoleDC, Name: "same"})
		})
	if err == nil || !strings.Contains(err.Error(), "duplicate DC") {
		t.Fatalf("want duplicate-DC error, got %v", err)
	}
}

func TestTallyRejectsSKWithoutKey(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 1, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			conns[0].Send(kindRegister, RegisterMsg{Role: RoleSK, Name: "sk"})
		})
	if err == nil || !strings.Contains(err.Error(), "seal key") {
		t.Fatalf("want missing-seal-key error, got %v", err)
	}
}

func TestTallyRejectsWrongRoleCounts(t *testing.T) {
	// Two SKs registered where one DC + one SK expected.
	err := tallyWith(t, TallyConfig{Round: 1, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			sk, _ := NewSK("a-sk", conns[0])
			go sk.Serve()
			key, _ := NewSealKey()
			conns[1].Send(kindRegister, RegisterMsg{Role: RoleSK, Name: "b-sk", SealPub: key.Public()})
		})
	if err == nil || !strings.Contains(err.Error(), `registered as "sk", want "dc"`) {
		t.Fatalf("want count-mismatch error, got %v", err)
	}
}

func TestTallyRejectsWrongRoundReport(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 5, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			// Run a real SK.
			sk, _ := NewSK("sk", conns[0])
			go sk.Serve()
			// A DC that reports the wrong round.
			c := conns[1]
			c.Send(kindRegister, RegisterMsg{Role: RoleDC, Name: "dc"})
			var cfg ConfigureMsg
			if c.Expect(kindConfigure, &cfg) != nil {
				return
			}
			// Send minimal valid shares.
			schema, _ := NewSchema(cfg.Stats)
			boxes := map[string][]byte{}
			for _, skName := range cfg.SKNames {
				plain, _ := wire.EncodePayload(RandomShares(schema.Size()))
				box, _ := Seal(cfg.SKKeys[skName], plain)
				boxes[skName] = box
			}
			c.Send(kindShares, SharesMsg{From: "dc", N: schema.Size()})
			c.Send(kindShareChunk, ShareChunkMsg{Off: 0, Count: schema.Size(), Boxes: boxes})
			var begin BeginMsg
			c.Expect(kindBegin, &begin)
			c.Send(kindReport, ReportMsg{From: "dc", Round: 99, N: schema.Size()})
		})
	if err == nil || !strings.Contains(err.Error(), "round") {
		t.Fatalf("want round-mismatch error, got %v", err)
	}
}

func TestTallyRejectsMissingBox(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 1, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			sk, _ := NewSK("sk", conns[0])
			go sk.Serve() // will fail when the round aborts; ignore
			c := conns[1]
			c.Send(kindRegister, RegisterMsg{Role: RoleDC, Name: "dc"})
			var cfg ConfigureMsg
			if c.Expect(kindConfigure, &cfg) != nil {
				return
			}
			// Claim shares but include no boxes.
			schema, _ := NewSchema(cfg.Stats)
			c.Send(kindShares, SharesMsg{From: "dc", N: schema.Size()})
			c.Send(kindShareChunk, ShareChunkMsg{Off: 0, Count: schema.Size(), Boxes: map[string][]byte{}})
		})
	if err == nil || !strings.Contains(err.Error(), "boxes") {
		t.Fatalf("want missing-boxes error, got %v", err)
	}
}

// TestSKRefusesCollectBelowQuorumFloor: a TS naming fewer DCs in its
// collect request than the quorum floor it declared at configure time
// must be refused — otherwise it could isolate one DC's counters with
// only that DC's fraction of the calibrated noise.
func TestSKRefusesCollectBelowQuorumFloor(t *testing.T) {
	tsSide, skSide := wire.Pipe()
	sk, err := NewSK("sk", skSide)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- sk.Serve() }()

	var reg RegisterMsg
	if err := tsSide.Expect(kindRegister, &reg); err != nil {
		t.Fatal(err)
	}
	tsSide.Send(kindConfigure, ConfigureMsg{Round: 1, Stats: oneStat, NumDCs: 2, MinDCs: 2})
	for _, dc := range []string{"dc-0", "dc-1"} {
		plain, _ := wire.EncodePayload([]uint64{7})
		box, _ := Seal(reg.SealPub, plain)
		tsSide.Send(kindRelay, RelayMsg{From: dc, Off: 0, Count: 1, N: 1, Box: box})
	}
	tsSide.Send(kindCollect, CollectMsg{Round: 1, DCs: []string{"dc-0"}})
	err = <-errCh
	if err == nil || !strings.Contains(err.Error(), "quorum floor") {
		t.Fatalf("want quorum-floor refusal, got %v", err)
	}
}

// TestSKRejectsShortShareVector: a DC sending a wrong-length share
// vector must be caught by the SK.
func TestSKRejectsShortShareVector(t *testing.T) {
	tsSide, skSide := wire.Pipe()
	sk, err := NewSK("sk", skSide)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- sk.Serve() }()

	var reg RegisterMsg
	if err := tsSide.Expect(kindRegister, &reg); err != nil {
		t.Fatal(err)
	}
	tsSide.Send(kindConfigure, ConfigureMsg{Round: 1, Stats: oneStat, NumDCs: 1})
	// Box with too few shares (chunk claims 1 slot; box holds 3).
	plain, _ := wire.EncodePayload([]uint64{1, 2, 3})
	box, _ := Seal(reg.SealPub, plain)
	tsSide.Send(kindRelay, RelayMsg{From: "dc", Off: 0, Count: 1, N: 1, Box: box})
	err = <-errCh
	if err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("want share-length error, got %v", err)
	}
}

// TestTolerantNoiseWeightProvisionsQuorumFloor: the churn-aware flow
// must hand every DC 1/MinDCs of the noise responsibility, not
// 1/NumDCs — an absent DC's noise share travels in its never-sent
// report, so quorum-floor weights are what keep a round degraded to
// MinDCs reporting DCs at (or above) the calibrated Gaussian sigma.
func TestTolerantNoiseWeightProvisionsQuorumFloor(t *testing.T) {
	recover := func(int, string, bool) (wire.Messenger, bool) { return nil, false }
	for _, tc := range []struct {
		numDCs, minDCs int
		want           float64
	}{
		{4, 2, 0.5},     // k-of-n quorum: provision at the floor
		{4, 0, 0.25},    // no floor set: all DCs required, equal shares
		{3, 3, 1.0 / 3}, // floor equals the fleet: equal shares
		{2, 1, 1.0},     // dcs=1 quorum: every DC carries full sigma
	} {
		tally, err := NewTally(TallyConfig{
			Round: 1, Stats: oneStat, NumDCs: tc.numDCs, NumSKs: 1,
			MinDCs: tc.minDCs, Recover: recover,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := tally.weightFor("any"); got != tc.want {
			t.Errorf("weightFor with %d DCs, quorum floor %d = %v, want %v",
				tc.numDCs, tc.minDCs, got, tc.want)
		}
	}
}

// kindRecorder records the frame kinds the tally sends on one party's
// messenger.
type kindRecorder struct {
	wire.Messenger
	mu    sync.Mutex
	kinds []string
}

func (r *kindRecorder) Send(kind string, v any) error {
	r.mu.Lock()
	r.kinds = append(r.kinds, kind)
	r.mu.Unlock()
	return r.Messenger.Send(kind, v)
}

func (r *kindRecorder) sent(kind string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range r.kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// TestNilRecoverReportDeathFailsRound: with no Recover callback a DC is
// never declared absent, even when MinDCs would admit the round without
// it. A DC whose report stream dies mid-upload must fail the round with
// that DC's named error before the SKs are asked for their sums — not
// panic, and not complete with the DC annotated absent.
func TestNilRecoverReportDeathFailsRound(t *testing.T) {
	stats := []StatConfig{{Name: "s", Bins: []string{"a", "b", "c", "d", "e", "f", "g", "h"}, Sigma: 0}}
	tally, err := NewTally(TallyConfig{Round: 3, Stats: stats, NumDCs: 2, NumSKs: 1, MinDCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsSK, skSide := wire.Pipe()
	tsGood, goodSide := wire.Pipe()
	tsDying, dyingSide := wire.Pipe()
	skRec := &kindRecorder{Messenger: tsSK}
	tsConns := []wire.Messenger{skRec, tsGood, tsDying}

	sk, _ := NewSK("sk", skSide)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); sk.Serve() }()
	go func() {
		defer wg.Done()
		good := NewDC("dc-good", goodSide, nil)
		if good.Setup() == nil {
			good.Increment("s", 0, 1)
			good.Finish()
		}
	}()
	go func() {
		// A real setup, then a report that announces 8 slots, delivers
		// 4, and dies.
		defer wg.Done()
		dying := NewDC("dc-dying", dyingSide, nil)
		if dying.Setup() != nil {
			return
		}
		dyingSide.Send(kindReport, ReportMsg{From: "dc-dying", Round: dying.Round(), N: 8})
		dyingSide.Send(kindChunk, ValueChunkMsg{Off: 0, Values: make([]uint64, 4)})
		dyingSide.Close()
	}()

	_, err = tally.Run(tsConns)
	for _, m := range tsConns {
		m.Close()
	}
	wg.Wait()
	if err == nil {
		t.Fatalf("round completed with a dead DC and no Recover (absent: %v)", tally.Absent())
	}
	if !strings.Contains(err.Error(), "report from DC dc-dying") {
		t.Fatalf("error %q does not name the dying DC's report", err)
	}
	if skRec.sent(kindCollect) {
		t.Fatal("tally asked the SKs for their sums after a DC report failed")
	}
}
