package privcount

import (
	"fmt"

	"repro/internal/wire"
)

// Wire message kinds exchanged between the PrivCount parties. Every
// message travels as a wire.Frame whose payload is the gob encoding of
// one of these structs. Counter vectors and blinding shares travel as
// bounded chunk frames after a header, never as one frame.
const (
	kindRegister   = "privcount/register"
	kindConfigure  = "privcount/configure"
	kindShares     = "privcount/shares"
	kindShareChunk = "privcount/share-chunk"
	kindRelay      = "privcount/relay-shares"
	kindBegin      = "privcount/begin"
	kindReport     = "privcount/report"
	kindCollect    = "privcount/collect"
	kindSums       = "privcount/sums"
	kindChunk      = "privcount/chunk"
	kindResults    = "privcount/results"
)

// ChunkSlots is how many uint64 counter slots travel per chunk frame
// (and per sealed box): 32 KiB of payload, far below any frame cap.
const ChunkSlots = 4096

// forEachChunk invokes fn(off, end) over [0, n) in ChunkSlots-sized
// ranges.
func forEachChunk(n int, fn func(off, end int) error) error {
	for off := 0; off < n; off += ChunkSlots {
		end := off + ChunkSlots
		if end > n {
			end = n
		}
		if err := fn(off, end); err != nil {
			return err
		}
	}
	return nil
}

// sendValues streams a counter vector as bounded chunks after its
// header has announced len(v) slots.
func sendValues(m wire.Messenger, v []uint64) error {
	return forEachChunk(len(v), func(off, end int) error {
		return m.Send(kindChunk, ValueChunkMsg{Off: off, Values: v[off:end]})
	})
}

// recvValuesFunc consumes chunk frames until n slots have arrived,
// invoking fn for each chunk as it lands — for callers that fold or
// spill the vector instead of buffering it whole. Chunks must tile
// [0, n) in order.
func recvValuesFunc(m wire.Messenger, n int, fn func(off int, vals []uint64) error) error {
	for off := 0; off < n; {
		var c ValueChunkMsg
		if err := m.Expect(kindChunk, &c); err != nil {
			return err
		}
		if c.Off != off || len(c.Values) == 0 || c.Off+len(c.Values) > n {
			return fmt.Errorf("privcount: chunk [%d,%d) does not continue vector at %d/%d",
				c.Off, c.Off+len(c.Values), off, n)
		}
		if err := fn(off, c.Values); err != nil {
			return err
		}
		off += len(c.Values)
	}
	return nil
}

// Party roles.
const (
	RoleDC = "dc"
	RoleSK = "sk"
)

// RegisterMsg announces a party to the tally server. Share keepers
// include their sealed-box public key.
type RegisterMsg struct {
	Role    string
	Name    string
	SealPub []byte
}

// ConfigureMsg carries the round configuration from the TS to every
// party. DCs learn the statistics schema, their noise weight, and the
// SK public keys to seal blinding shares to; SKs learn the schema size,
// how many DC share vectors to expect, and the round's declared DC
// quorum floor (MinDCs): an SK refuses a collect request naming fewer
// DCs, so a TS cannot adaptively subset the aggregate below the policy
// it declared before collection began.
type ConfigureMsg struct {
	Round       uint64
	Stats       []StatConfig
	NumDCs      int
	MinDCs      int
	SKNames     []string
	SKKeys      map[string][]byte
	NoiseWeight float64
}

// SharesMsg opens a DC's blinding-share distribution: the share vector
// follows as ShareChunkMsg frames, each sealing one slot range to every
// SK. The TS relays each box to its SK without being able to open it.
type SharesMsg struct {
	From string
	// N is the schema slot count the chunks must tile.
	N int
}

// ShareChunkMsg carries one slot range of a DC's blinding shares, one
// independently sealed box per SK. Chunked sealing bounds every frame
// (and every SK's working set) by the chunk size, not the schema size.
type ShareChunkMsg struct {
	Off, Count int
	Boxes      map[string][]byte
}

// RelayMsg delivers one chunk of one DC's sealed shares to a share
// keeper.
type RelayMsg struct {
	From       string
	Off, Count int
	N          int // total slots in the DC's vector
	Box        []byte
}

// BeginMsg tells DCs the collection phase has started.
type BeginMsg struct {
	Round uint64
}

// ReportMsg opens a DC's end-of-round report: blinded, noised counters,
// chunked as ValueChunkMsg frames.
type ReportMsg struct {
	From  string
	Round uint64
	N     int
}

// CollectMsg asks a share keeper for its blinding sums. DCs lists the
// data collectors whose reports the tally actually holds: the SK sums
// exactly those DCs' blinding shares, so a DC that distributed shares
// but never reported (churn, crash) is excluded on both sides of the
// telescoping sum instead of corrupting the aggregate. An empty list
// means all DCs whose vectors completed (the pre-churn wire format).
type CollectMsg struct {
	Round uint64
	DCs   []string
}

// SumsMsg opens a share keeper's response — the negated sum of all
// blinding shares it received — chunked as ValueChunkMsg frames.
type SumsMsg struct {
	From  string
	Round uint64
	N     int
}

// ValueChunkMsg carries one slot range of a counter vector.
type ValueChunkMsg struct {
	Off    int
	Values []uint64
}

// ResultsMsg is the TS's final output broadcast, used by the CLI
// deployment so every operator sees the same result.
type ResultsMsg struct {
	Round  uint64
	Values map[string][]float64
}
