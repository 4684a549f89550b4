package main

import (
	"encoding/json"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span, -1 for the root.
type span struct {
	Name   string    `json:"name"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

// close ends span id and returns its duration.
func (t *tracer) close(id int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now.Sub(t.spans[id].Start)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children covers. Children may
// overlap each other (concurrent rounds) and are clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End.Sub(s.Start) - covered(s, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// linkStats counts, per party role, the bytes written on both ends of
// every party link and the time writers spent blocked in Write. The
// tally end learns its link's role from the party end's local address.
type linkStats struct {
	mu     sync.Mutex
	roleOf map[string]string // party-side local address -> role
	roles  map[string]*roleStats
}

type roleStats struct {
	bytes   atomic.Int64
	blocked atomic.Int64 // nanoseconds
}

func newLinkStats() *linkStats {
	ls := &linkStats{roleOf: make(map[string]string), roles: make(map[string]*roleStats)}
	for _, r := range []string{"cp", "sk", "dc"} {
		ls.roles[r] = &roleStats{}
	}
	return ls
}

// wrap returns a counting view of c. An empty role marks the tally end.
func (ls *linkStats) wrap(c net.Conn, role string) net.Conn {
	if role != "" {
		ls.mu.Lock()
		ls.roleOf[c.LocalAddr().String()] = role
		ls.mu.Unlock()
	}
	return &countingConn{Conn: c, ls: ls, role: role}
}

func (ls *linkStats) stats(role string) (bytes int64, blocked time.Duration) {
	rs := ls.roles[role]
	return rs.bytes.Load(), time.Duration(rs.blocked.Load())
}

type countingConn struct {
	net.Conn
	ls   *linkStats
	role string
	rs   *roleStats // resolved on first write
}

func (c *countingConn) Write(b []byte) (int, error) {
	if c.rs == nil {
		role := c.role
		if role == "" {
			c.ls.mu.Lock()
			role = c.ls.roleOf[c.Conn.RemoteAddr().String()]
			c.ls.mu.Unlock()
		}
		c.rs = c.ls.roles[role]
		if c.rs == nil {
			c.rs = &roleStats{} // unknown peer: not a party link
		}
	}
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.rs.blocked.Add(int64(time.Since(start)))
	c.rs.bytes.Add(int64(n))
	return n, err
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSample reads Go runtime metrics by name.
func runtimeSample(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

const (
	rmLiveHeap = "/gc/heap/live:bytes"
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// heapPeak samples the live heap (as of the latest GC) until stopped
// and keeps the maximum since the last take.
type heapPeak struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  float64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-t.C:
			case <-h.stopc:
				return
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	v := runtimeSample(rmLiveHeap)[0]
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// take returns the peak in bytes since the previous take and restarts
// the maximum from the current level.
func (h *heapPeak) take() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

// stop ends sampling.
func (h *heapPeak) stop() {
	close(h.stopc)
	<-h.done
}
