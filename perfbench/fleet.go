package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// Fleet shape of the paper's deployment as internal/core models it.
const (
	numCPs = 3
	numSKs = 3
	numDCs = 2
)

const dialTimeout = 10 * time.Second

// fleet is one in-process deployment: a tally engine accepting party
// sessions on a loopback listener, and every party dialed to it over
// wire.Dial with the pinned-hello handshake, exactly as the daemons do.
type fleet struct {
	eng  *engine.Engine
	ln   wire.Listener
	addr string

	partySess []*wire.Session
	dcs       []*dcHost

	accepting sync.WaitGroup // accept loop and per-session hello handlers
	serving   sync.WaitGroup // party serve loops
	serveMu   sync.Mutex
	serveErrs []error
}

// dcHost is a data-collector daemon's round server. Each round stream
// the tally opens becomes a dcRound handed to the driver once its DC is
// set up; the handler then waits for the driver's release (after
// Finish) and drains the stream the way cmd/datacollector does.
type dcHost struct {
	name string

	mu    sync.Mutex
	boxes map[uint64]chan *dcRound // round ID -> its DC, one send each
}

// box returns the mailbox of round id, creating it on first use by
// either side: a round's stream can reach the DC before StartPSC or
// StartPrivCount has returned its ID to the driver.
func (h *dcHost) box(id uint64) chan *dcRound {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.boxes[id]
	if !ok {
		ch = make(chan *dcRound, 1)
		h.boxes[id] = ch
	}
	return ch
}

// take waits for round id's DC and forgets the mailbox.
func (h *dcHost) take(id uint64, deadline <-chan time.Time) (*dcRound, bool) {
	select {
	case d := <-h.box(id):
		h.mu.Lock()
		delete(h.boxes, id)
		h.mu.Unlock()
		return d, true
	case <-deadline:
		return nil, false
	}
}

// dcRound is one DC's part of one round.
type dcRound struct {
	label    string
	round    uint64
	psc      *psc.DC
	priv     *privcount.DC
	setupErr error
	setupEnd time.Time
	release  chan error // the driver sends Finish's outcome
}

// finish runs the DC's Finish and hands its outcome to the handler.
func (d *dcRound) finish() error {
	var err error
	if d.psc != nil {
		err = d.psc.Finish()
	} else {
		err = d.priv.Finish()
	}
	d.release <- err
	return err
}

// serve is the ServeRounds handler.
func (h *dcHost) serve(st *wire.Stream) error {
	d := &dcRound{label: st.Label(), round: st.Round(), release: make(chan error, 1)}
	switch st.Label() {
	case engine.LabelPSC:
		d.psc = psc.NewDC(h.name, st)
		d.setupErr = d.psc.Setup()
	case engine.LabelPrivCount:
		d.priv = privcount.NewDC(h.name, st, nil)
		d.setupErr = d.priv.Setup()
	default:
		return fmt.Errorf("%s: unexpected stream %q", h.name, st.Label())
	}
	d.setupEnd = time.Now()
	h.box(d.round) <- d
	if d.setupErr != nil {
		return d.setupErr
	}
	var err error
	select {
	case err = <-d.release:
	case <-st.Failed():
		return errors.New(h.name + ": round stream failed before finish")
	}
	if err != nil {
		return err
	}
	// As in cmd/datacollector: wait for the tally to close the round
	// before the handler returns.
	st.Close()
	for {
		if _, rerr := st.Recv(); rerr != nil {
			return nil
		}
	}
}

// linkOptions returns the wire options of one party link end. Like
// the daemons' defaults, every link autotunes its stream windows; shape
// (nil: none) emulates the workload's network path, and traced runs add
// a counting wrapper on top.
func linkOptions(shape func(net.Conn) net.Conn, links *linkStats, role string) []wire.Option {
	opts := []wire.Option{wire.WithAdaptiveWindow(0)}
	switch {
	case links != nil:
		opts = append(opts, wire.WithTransportWrap(func(c net.Conn) net.Conn {
			if shape != nil {
				c = shape(c)
			}
			return links.wrap(c, role)
		}))
	case shape != nil:
		opts = append(opts, wire.WithTransportWrap(shape))
	}
	return opts
}

// shaper shapes the link ends of one bring-up with a netem profile.
// It is the wrap netem.WireOption installs, except that each link end
// draws jitter and loss from its own seed, (profile seed, link, side):
// one option on the listener would give every link the same loss
// schedule. Links are dialed one at a time, each after the listener
// has shaped the previous one, so link k's tally end is the k-th one
// accepted and the same seed replays the same per-link draws.
type shaper struct {
	p        netem.Profile
	accepted chan struct{} // one token per tally-side end shaped
	n        int64         // tally-side ends shaped (accept loop only)
}

func newShaper(p *netem.Profile) *shaper {
	if p == nil {
		return nil
	}
	return &shaper{p: *p, accepted: make(chan struct{}, numCPs+numSKs+numDCs)}
}

func (s *shaper) wrap(c net.Conn, link int64, tallySide bool) net.Conn {
	q := s.p
	q.Seed = s.p.Seed*1000 + 2*link
	if tallySide {
		q.Seed++
	}
	return netem.Wrap(c, q)
}

// dialer returns the wrap of the party end of link k; nil when unshaped.
func (s *shaper) dialer(k int) func(net.Conn) net.Conn {
	if s == nil {
		return nil
	}
	return func(c net.Conn) net.Conn { return s.wrap(c, int64(k), false) }
}

// acceptor returns the wrap of every tally-side end; nil when unshaped.
func (s *shaper) acceptor() func(net.Conn) net.Conn {
	if s == nil {
		return nil
	}
	return func(c net.Conn) net.Conn {
		c = s.wrap(c, s.n, true)
		s.n++
		s.accepted <- struct{}{}
		return c
	}
}

// waitAccepted waits until the listener has shaped the link just
// dialed; it returns at once when unshaped.
func (s *shaper) waitAccepted() error {
	if s == nil {
		return nil
	}
	select {
	case <-s.accepted:
		return nil
	case <-time.After(dialTimeout):
		return errors.New("listener did not accept the link")
	}
}

// startFleet brings the fleet up and returns once the engine has
// registered every party. Every link end is shaped by profile (nil:
// unshaped loopback); links, when set, counts traffic per role.
func startFleet(profile *netem.Profile, links *linkStats) (*fleet, error) {
	f := &fleet{eng: engine.New()}
	sh := newShaper(profile)
	f.eng.SetRoundDeadline(roundTimeout)
	ln, err := wire.Listen("127.0.0.1:0", nil, linkOptions(sh.acceptor(), links, "")...)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f.ln, f.addr = ln, ln.Addr().String()
	f.accepting.Add(1)
	go f.acceptLoop()

	dial := func(role string) (*wire.Session, error) {
		c, err := wire.Dial(f.addr, nil, dialTimeout, linkOptions(sh.dialer(len(f.partySess)), links, role)...)
		if err == nil {
			err = sh.waitAccepted()
		}
		if err != nil {
			if c != nil {
				c.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", role, err)
		}
		s := wire.NewSession(c, true)
		f.partySess = append(f.partySess, s)
		return s, nil
	}
	serve := func(fn func() error) {
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			if err := fn(); err != nil && !errors.Is(err, wire.ErrClosed) {
				f.serveMu.Lock()
				f.serveErrs = append(f.serveErrs, err)
				f.serveMu.Unlock()
			}
		}()
	}
	for i := 0; i < numCPs; i++ {
		s, err := dial("cp")
		if err != nil {
			f.stop()
			return nil, err
		}
		h := engine.Hello{Name: fmt.Sprintf("cp-%d", i), Token: fmt.Sprintf("cp-token-%d", i)}
		serve(func() error { return engine.ServeCPAs(s, h, nil) })
	}
	for i := 0; i < numSKs; i++ {
		s, err := dial("sk")
		if err != nil {
			f.stop()
			return nil, err
		}
		h := engine.Hello{Name: fmt.Sprintf("sk-%d", i), Token: fmt.Sprintf("sk-token-%d", i)}
		serve(func() error { return engine.ServeSKAs(s, h, nil) })
	}
	for i := 0; i < numDCs; i++ {
		s, err := dial("dc")
		if err != nil {
			f.stop()
			return nil, err
		}
		h := &dcHost{name: fmt.Sprintf("dc-%d", i), boxes: make(map[uint64]chan *dcRound)}
		f.dcs = append(f.dcs, h)
		hello := engine.Hello{Role: engine.RoleDC, Name: h.name, Token: "dc-token-" + h.name}
		serve(func() error {
			if _, err := engine.SendHelloPinned(s, hello); err != nil {
				return err
			}
			return engine.ServeRounds(s, h.serve)
		})
	}
	if err := f.eng.WaitParties(numCPs, numSKs, numDCs, 60*time.Second); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) acceptLoop() {
	defer f.accepting.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return
		}
		s := wire.NewSession(c, false)
		f.accepting.Add(1)
		go func() {
			defer f.accepting.Done()
			if _, err := f.eng.AcceptSession(s); err != nil {
				s.Close()
			}
		}()
	}
}

// stop tears the fleet down and waits for every goroutine it started
// directly. It returns the party serve errors other than a closed
// session, and an error if the listener still accepts connections.
func (f *fleet) stop() error {
	// Parties hang up first, so their serve loops end on their own
	// close rather than on the tally's.
	for _, s := range f.partySess {
		s.Close()
	}
	f.eng.Close()
	f.ln.Close()
	f.accepting.Wait()
	f.serving.Wait()
	var errs []error
	f.serveMu.Lock()
	errs = append(errs, f.serveErrs...)
	f.serveMu.Unlock()
	if c, err := net.DialTimeout("tcp", f.addr, time.Second); err == nil {
		c.Close()
		errs = append(errs, fmt.Errorf("listener %s still accepts after close", f.addr))
	}
	return errors.Join(errs...)
}

// roundDCs collects the DC side of round id from every host, in host
// order, waiting at most timeout.
func (f *fleet) roundDCs(id uint64, timeout time.Duration) ([]*dcRound, error) {
	out := make([]*dcRound, len(f.dcs))
	deadline := time.After(timeout)
	for i, h := range f.dcs {
		d, ok := h.take(id, deadline)
		if !ok {
			return nil, fmt.Errorf("%s: round %d DC setup timed out", h.name, id)
		}
		if d.setupErr != nil {
			return nil, fmt.Errorf("%s setup: %w", h.name, d.setupErr)
		}
		out[i] = d
	}
	return out, nil
}
