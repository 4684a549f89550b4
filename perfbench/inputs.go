package main

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/alexa"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/privcount"
	"repro/internal/simtime"
	"repro/internal/torctl"
	tormodel "repro/internal/workload"
)

// privSigma is the noise scale of every PrivCount round's statistics.
const privSigma = 100.0

// fig1Stats is the Figure 1 schema cmd/datacollector counts.
func fig1Stats() []privcount.StatConfig {
	return []privcount.StatConfig{
		{Name: "exit-streams", Bins: []string{"initial", "subsequent"}, Sigma: privSigma},
		{Name: "initial-target", Bins: []string{"hostname", "ipv4", "ipv6"}, Sigma: privSigma},
		{Name: "hostname-port", Bins: []string{"web", "other"}, Sigma: privSigma},
	}
}

// fig1 maps a StreamEnd onto its Figure 1 increments; it is the
// datacollector daemon's mapping, restated so the benchmark can both
// drive the DCs and keep its own exact count. inc receives
// (statistic, bin).
func fig1(s *event.StreamEnd, inc func(stat string, bin int)) {
	if !s.IsInitial {
		inc("exit-streams", 1)
		return
	}
	inc("exit-streams", 0)
	switch s.Target {
	case event.TargetHostname:
		inc("initial-target", 0)
		if s.IsWebPort() {
			inc("hostname-port", 0)
		} else {
			inc("hostname-port", 1)
		}
	case event.TargetIPv4:
		inc("initial-target", 1)
	case event.TargetIPv6:
		inc("initial-target", 2)
	}
}

// exactCounts is the benchmark's own Figure 1 tally of one round's
// feed: every DC's trace, replayed repeat times.
func exactCounts(traces [][]event.Event, repeat int) map[string][]float64 {
	out := map[string][]float64{
		"exit-streams":   make([]float64, 2),
		"initial-target": make([]float64, 3),
		"hostname-port":  make([]float64, 2),
	}
	for _, evs := range traces {
		for _, ev := range evs {
			if s, ok := ev.(*event.StreamEnd); ok {
				fig1(s, func(stat string, bin int) { out[stat][bin] += float64(repeat) })
			}
		}
	}
	return out
}

// clientPool returns n distinct seeded client IPv4 addresses.
func clientPool(rng *rand.Rand, n int) []netip.Addr {
	seen := make(map[netip.Addr]bool, n)
	out := make([]netip.Addr, 0, n)
	for len(out) < n {
		var b [4]byte
		b[0] = byte(1 + rng.IntN(223))
		b[1], b[2], b[3] = byte(rng.IntN(256)), byte(rng.IntN(256)), byte(1+rng.IntN(254))
		a := netip.AddrFrom4(b)
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// pscItems draws count observations from the pool with a skewed
// (Zipf-like) repeat distribution, as rendered strings.
func pscItems(rng *rand.Rand, pool []netip.Addr, count int) []string {
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(pool)-1))
	perm := rng.Perm(len(pool))
	out := make([]string, count)
	for i := range out {
		out[i] = pool[perm[z.Uint64()]].String()
	}
	// Every pool member appears at least once, so the union of the DCs'
	// tables is exactly the pool.
	for i, p := range perm {
		if i < count {
			out[i] = pool[p].String()
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// occupancyPool is the distinct-item count that fills about 25% of
// bins: 1 − (1 − 1/b)^d ≈ 0.25.
func occupancyPool(bins int) int {
	return int(math.Round(float64(bins) * math.Log(4.0/3.0)))
}

// hostListSize is the synthetic top-sites list the hostname sampler
// draws from: cmd/torsim's default size, under the same fixed seed as
// alexa.DefaultConfig.
const hostListSize = 100_000

// traceModel draws relay events from the repository's calibrated
// workload model (internal/workload's DefaultParams and its domain
// sampler), restated per event for a single relay's trace.
type traceModel struct {
	p        tormodel.Params
	hosts    *tormodel.DomainSampler
	country  *simtime.WeightedChoice
	names    []string
	connFrac float64 // share of ConnectionEnd lines
	dataConn float64 // share of those that are data-guard connections
}

func newTraceModel() (*traceModel, error) {
	p := tormodel.DefaultParams(1, 0)
	hosts, err := tormodel.NewDomainSampler(p.Domains, alexa.Generate(alexa.Config{N: hostListSize, Seed: alexa.DefaultConfig().Seed}))
	if err != nil {
		return nil, err
	}
	names := geo.Countries()
	weights := make([]float64, len(names))
	for i, c := range names {
		weights[i] = geo.ClientWeight(c)
	}
	// Connections and streams per client and day, from the same
	// calibration. Mixing them in this ratio assumes a relay sees the
	// guard and the exit side of the network in equal shares; the
	// paper's relays did not, so this share is the benchmark's choice.
	conns := p.DataConnsPerClient + float64(p.Guards)*p.DirConnsPerGuard
	streams := p.InitialStreamsPerClient * (1 + p.SubsequentPerInitial)
	return &traceModel{
		p:        p,
		hosts:    hosts,
		country:  simtime.NewWeightedChoice(weights),
		names:    names,
		connFrac: conns / (conns + streams),
		dataConn: p.DataConnsPerClient / conns,
	}, nil
}

// streamType is the Figure 1b/1c breakdown of an initial stream,
// restated from internal/workload's unexported Driver.drawStreamType:
// almost all carry a hostname and a web port.
func (m *traceModel) streamType(r *rand.Rand) (event.TargetKind, uint16, string) {
	p := m.p
	switch u := r.Float64(); {
	case u < p.IPv4Share:
		return event.TargetIPv4, 443, ""
	case u < p.IPv4Share+p.IPv6Share:
		return event.TargetIPv6, 443, ""
	case u < p.IPv4Share+p.IPv6Share+p.NonWebShare:
		ports := []uint16{22, 25, 993, 5222, 6667}
		return event.TargetHostname, ports[r.IntN(len(ports))], m.hosts.Hostname(r)
	default:
		port := uint16(443)
		if r.Float64() < 0.35 {
			port = 80
		}
		return event.TargetHostname, port, m.hosts.Hostname(r)
	}
}

// connection draws a guard-side ConnectionEnd of a client from pool:
// a data-guard connection carries its share of the client's daily
// circuits and entry bytes, a directory connection a few circuits and
// a consensus-sized download.
func (m *traceModel) connection(r *rand.Rand, h event.Header, pool []netip.Addr) *event.ConnectionEnd {
	p := m.p
	c := &event.ConnectionEnd{
		Header:   h,
		ClientIP: pool[r.IntN(len(pool))],
		Country:  m.names[m.country.Pick(r)],
		ASN:      uint32(1 + r.IntN(64000)),
	}
	if r.Float64() < m.dataConn {
		mu := math.Log(p.EntryMiBMean*tormodel.MiB) - p.EntryLogSigma*p.EntryLogSigma/2
		recv := simtime.LogNormal(r, mu, p.EntryLogSigma) * 6 / 7 / p.DataConnsPerClient
		c.NumCircuits = uint32(simtime.Poisson(r, p.DataCircuitsPerClient/p.DataConnsPerClient))
		c.BytesRecv, c.BytesSent = uint64(recv), uint64(recv/6)
	} else {
		c.NumCircuits = uint32(simtime.Poisson(r, p.DirCircuitsPerGuard/p.DirConnsPerGuard))
		c.BytesSent, c.BytesRecv = 2048, 512*1024
	}
	return c
}

// eventTrace generates n seeded relay events: exit streams as
// internal/workload emits them — an initial stream of the Figure 1b/1c
// breakdown, then Poisson(SubsequentPerInitial) subsequent streams on
// the same circuit, which carry no hostname — with ConnectionEnds
// (connFrac of the lines) interleaved.
func (m *traceModel) eventTrace(r *rand.Rand, n int, relay event.RelayID, pool []netip.Addr) []event.Event {
	p := m.p
	muStream := math.Log(p.StreamKiBMean*1024) - p.StreamLogSigma*p.StreamLogSigma/2
	out := make([]event.Event, 0, n)
	at := simtime.Time(0)
	next := func() event.Header {
		at += simtime.Time(time.Duration(1+r.IntN(2000)) * time.Microsecond)
		return event.Header{At: at, Relay: relay}
	}
	var circ uint64
	subsequent := 0 // streams left on the current circuit
	for len(out) < n {
		if r.Float64() < m.connFrac {
			out = append(out, m.connection(r, next(), pool))
			continue
		}
		s := &event.StreamEnd{Header: next(), Target: event.TargetHostname, Port: 443}
		if subsequent == 0 {
			circ++
			s.IsInitial = true
			s.Target, s.Port, s.Hostname = m.streamType(r)
			recv := uint64(simtime.LogNormal(r, muStream, p.StreamLogSigma))
			s.BytesSent, s.BytesRecv = recv/10+1, recv
			subsequent = simtime.Poisson(r, p.SubsequentPerInitial)
		} else {
			subsequent--
			sub := uint64(simtime.LogNormal(r, muStream-1, p.StreamLogSigma))
			s.BytesSent, s.BytesRecv = sub/10+1, sub
		}
		s.CircuitID = circ
		out = append(out, s)
	}
	return out
}

// renderTrace formats a trace as control-port 650 lines, the bytes a
// PrivCount-patched relay writes.
func renderTrace(evs []event.Event, epoch int64) ([]byte, error) {
	var b []byte
	for _, ev := range evs {
		line, err := torctl.FormatEvent(ev, epoch)
		if err != nil {
			return nil, err
		}
		b = append(b, "650 "...)
		b = append(b, line...)
		b = append(b, "\r\n"...)
	}
	return b, nil
}
