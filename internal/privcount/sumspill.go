package privcount

import (
	"encoding/binary"
	"sync"

	"repro/internal/spill"
)

// u64Spill buffers one party's counter vector on spill storage — eight
// little-endian bytes per slot — so the tally's per-DC report buffers
// (which must be held whole until the DC is known to have completed)
// cost scratch storage, not heap. One goroutine owns each
// buffer.
type u64Spill struct {
	st      *spill.Store
	decoded []uint64
}

func newU64Spill(n int) (*u64Spill, error) {
	st, err := spill.New(n, 8)
	if err != nil {
		return nil, err
	}
	return &u64Spill{st: st}, nil
}

// write stores vals at slot offset off.
func (s *u64Spill) write(off int, vals []uint64) error {
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	return s.st.WriteAt(off, buf)
}

// readRange returns count slots at off. The returned slice is reused
// across calls.
func (s *u64Spill) readRange(off, count int) ([]uint64, error) {
	raw, err := s.st.ReadRange(off, count)
	if err != nil {
		return nil, err
	}
	if cap(s.decoded) < count {
		s.decoded = make([]uint64, count)
	}
	out := s.decoded[:count]
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return out, nil
}

// Close releases the backing storage.
func (s *u64Spill) Close() error { return s.st.Close() }

// sumAccum is the round's single modular accumulator: every completed
// report and blinding-sum vector folds into it chunk-wise, under the
// chunk's stripe lock, so concurrent DC streams combine without a
// global bottleneck and the TS holds one schema-sized sum instead of
// one vector per party.
type sumAccum struct {
	sum   []uint64
	strps []sync.Mutex
}

func newSumAccum(n int) *sumAccum {
	return &sumAccum{
		sum:   make([]uint64, n),
		strps: make([]sync.Mutex, (n+ChunkSlots-1)/ChunkSlots+1),
	}
}

// fold adds vals into the accumulator mod 2⁶⁴ at slot offset off,
// locking the covering stripes in ascending order.
func (a *sumAccum) fold(off int, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	lo, hi := off/ChunkSlots, (off+len(vals)-1)/ChunkSlots
	for s := lo; s <= hi; s++ {
		a.strps[s].Lock()
	}
	for i, v := range vals {
		a.sum[off+i] += v
	}
	for s := lo; s <= hi; s++ {
		a.strps[s].Unlock()
	}
}
