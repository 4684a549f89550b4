package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/elgamal"
	"repro/internal/event"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/spill"
	"repro/internal/torctl"
)

// Layer probes call a layer's public functions on the workload's own
// geometry after the workload has finished, so their cost never lands
// in a round. A layer the workload does not use is not probed.

// probeElgamal times one shuffle block's proof and verification at the
// round's block size and proof rounds, and the per-element cost of the
// batch bit encryption and bit/share proof checks on a block.
func probeElgamal(cfg psc.Config, out map[string]float64) error {
	n := cfg.Bins + cfg.NumCPs*cfg.NoisePerCP
	block := cfg.ShuffleBlockElems
	if block <= 0 {
		block = psc.DefaultShuffleBlock
	}
	if n > block {
		n = block
	}
	key := elgamal.GenerateKey()
	elgamal.Precompute(key.PK)
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = i%4 == 0
	}
	t := time.Now()
	in, rs := elgamal.BatchEncryptBits(key.PK, bits)
	out["elgamal.encrypt_bits_us"] = us(time.Since(t), n)

	shuffled, wit := elgamal.Shuffle(key.PK, in)
	rounds := cfg.ShuffleProofRounds
	t = time.Now()
	proof, err := elgamal.ProveShuffleBlock(elgamal.NewShuffleTranscript(key.PK, n, n, 1, rounds), 1, 0, key.PK, in, shuffled, wit, rounds)
	out["elgamal.prove_block_s"] = time.Since(t).Seconds()
	if err != nil {
		return fmt.Errorf("probe: prove block: %w", err)
	}
	t = time.Now()
	err = elgamal.VerifyShuffleBlock(elgamal.NewShuffleTranscript(key.PK, n, n, 1, rounds), 1, 0, key.PK, in, shuffled, proof)
	out["elgamal.verify_block_s"] = time.Since(t).Seconds()
	if err != nil {
		return fmt.Errorf("probe: verify block: %w", err)
	}

	bitProofs := elgamal.BatchProveBits(key.PK, in, bits, rs)
	t = time.Now()
	_, ok := elgamal.VerifyBitsBatch(key.PK, in, bitProofs)
	out["elgamal.verify_bits_us"] = us(time.Since(t), n)
	if !ok {
		return fmt.Errorf("probe: bit proofs rejected")
	}
	shares := key.BatchPartialDecrypt(in)
	shareProofs := key.BatchProveShares(in, shares)
	t = time.Now()
	_, ok = elgamal.VerifySharesBatch(key.PK, in, shares, shareProofs)
	out["elgamal.verify_shares_us"] = us(time.Since(t), n)
	if !ok {
		return fmt.Errorf("probe: share proofs rejected")
	}
	return probeSpill(in, rounds, out)
}

// probeSpill writes the block's ciphertexts through a spill store once
// per proof round (the shape of the shuffle's shadow traffic) and reads
// them back, in the benchmark's spill directory.
func probeSpill(cts []elgamal.Ciphertext, copies int, out map[string]float64) error {
	var rec []byte
	for _, c := range cts {
		rec = c.AppendTo(rec)
	}
	slot := len(rec) / len(cts)
	st, err := spill.New(len(cts)*copies, slot)
	if err != nil {
		return fmt.Errorf("probe: spill store: %w", err)
	}
	defer st.Close()
	mb := float64(len(rec)*copies) / 1e6
	t := time.Now()
	for k := 0; k < copies; k++ {
		if err := st.WriteAt(k*len(cts), rec); err != nil {
			return fmt.Errorf("probe: spill write: %w", err)
		}
	}
	out["spill.write_mb_s"] = mb / time.Since(t).Seconds()
	t = time.Now()
	for k := 0; k < copies; k++ {
		got, err := st.ReadRange(k*len(cts), len(cts))
		if err != nil {
			return fmt.Errorf("probe: spill read: %w", err)
		}
		if !bytes.Equal(got, rec) {
			return fmt.Errorf("probe: spill read back different bytes")
		}
	}
	out["spill.read_mb_s"] = mb / time.Since(t).Seconds()
	return nil
}

// probeTorctl times LineParser.Parse over DC 0's rendered lines.
func probeTorctl(lines []byte, out map[string]float64) error {
	p := torctl.LineParser{}
	ls := bytes.Split(bytes.TrimSuffix(lines, []byte("\r\n")), []byte("\r\n"))
	strs := make([]string, len(ls))
	for i, l := range ls {
		strs[i] = string(l)
	}
	t := time.Now()
	for _, l := range strs {
		if _, err := p.Parse(l); err != nil {
			return fmt.Errorf("probe: parse %q: %w", l, err)
		}
	}
	out["torctl.parse_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(strs))
	return nil
}

// probeIncrement times the Figure 1 mapping into privcount counters over
// DC 0's events, per event.
func probeIncrement(evs []event.Event, out map[string]float64) error {
	schema, err := privcount.NewSchema(fig1Stats())
	if err != nil {
		return err
	}
	c := privcount.NewCounters(schema)
	var incErr error
	t := time.Now()
	for _, ev := range evs {
		if s, ok := ev.(*event.StreamEnd); ok {
			fig1(s, func(stat string, bin int) {
				if err := c.Increment(stat, bin, 1); err != nil {
					incErr = err
				}
			})
		}
	}
	out["privcount.increment_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(evs))
	return incErr
}

func us(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
