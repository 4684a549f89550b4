package main

import (
	"fmt"
	"math"

	"repro/internal/psc"
)

// soundnessBits is the per-stage target: a cheating CP's shuffle stage
// survives verification with probability at most 2^-40.
const soundnessBits = 40

// shuffleStages returns, for each CP stage of a PSC round, how many
// shuffle blocks it proves summed over its passes. CP k (1-based) mixes
// the table plus k CPs' noise; the blocking follows the streaming
// shuffle's grid (rows of block elements; odd passes permute rows, even
// passes permute column groups of block/rows columns; a vector that
// fits one row takes a single pass).
func shuffleStages(cfg psc.Config) []int {
	block := cfg.ShuffleBlockElems
	if block <= 0 {
		block = psc.DefaultShuffleBlock
	}
	passes := cfg.ShufflePasses
	if passes <= 0 {
		passes = psc.DefaultShufflePasses
	}
	out := make([]int, cfg.NumCPs)
	for k := 1; k <= cfg.NumCPs; k++ {
		n := cfg.Bins + k*cfg.NoisePerCP
		b := block
		if b > n {
			b = n
		}
		rows := (n + b - 1) / b
		if rows == 1 {
			out[k-1] = 1
			continue
		}
		gcols := b / rows
		if gcols < 1 {
			gcols = 1
		}
		total := 0
		for p := 1; p <= passes; p++ {
			if p%2 == 1 {
				total += rows
			} else {
				total += (b + gcols - 1) / gcols
			}
		}
		out[k-1] = total
	}
	return out
}

// stageBits is the weakest stage's soundness in bits at the given proof
// rounds: rounds − log2(blocks proved in that stage), by a union bound.
func stageBits(cfg psc.Config, rounds int) float64 {
	worst := math.Inf(1)
	for _, blocks := range shuffleStages(cfg) {
		if b := float64(rounds) - math.Log2(float64(blocks)); b < worst {
			worst = b
		}
	}
	return worst
}

// soundProofRounds returns the smallest proof-round count that gives
// every stage at least soundnessBits bits.
func soundProofRounds(cfg psc.Config) int {
	r := soundnessBits
	for stageBits(cfg, r) < soundnessBits {
		r++
	}
	return r
}

// checkSound refuses a configuration below the soundness target.
func checkSound(cfg psc.Config) error {
	if bits := stageBits(cfg, cfg.ShuffleProofRounds); bits < soundnessBits {
		return fmt.Errorf("psc: %d proof rounds give %.1f bits per stage, below the %d-bit floor (need %d)",
			cfg.ShuffleProofRounds, bits, soundnessBits, soundProofRounds(cfg))
	}
	return nil
}
