// Package privcount implements the PrivCount distributed measurement
// protocol (Jansen & Johnson, CCS 2016) as deployed in the paper: a
// tally server (TS), data collectors (DCs) attached to instrumented Tor
// relays, and share keepers (SKs). DCs maintain counters blinded with
// random shares, one per SK, so no single party ever sees a true count;
// DCs add calibrated Gaussian noise so the aggregate is differentially
// private; the TS learns only the noisy totals.
//
// Counters live in ℤ₂⁶⁴ with binary fixed-point scaling so the
// real-valued noise survives modular blinding exactly, following the
// PrivCount design. Multi-bin histogram counters provide the
// set-membership counting the paper added for its domain, country, and
// onion-service measurements (§3.1).
//
// # Key types
//
//   - TallyConfig / Tally: one round from the TS's perspective,
//     including the MinDCs quorum floor and the engine's Recover
//     callback (nil: any party failure fails the round); Tally.Run
//     takes a positional party slice — SKs first, then DCs — and
//     Tally.Absent annotates a degraded round.
//   - DC: the per-relay collector — Setup distributes sealed blinding
//     shares, Increment counts events, Finish reports noised blinded
//     totals.
//   - SK: the share keeper, accumulating each DC's negated shares
//     per-DC so the collect request can include exactly the DCs that
//     reported.
//   - Schema / Counters: the statistic layout and fixed-point counter
//     vector.
//
// # Invariants
//
//   - The aggregate telescopes only when DC reports and SK sums cover
//     the same DC set: the collect message's DC list keeps both sides
//     aligned when churn drops a DC after share distribution. An SK
//     refuses a collect naming fewer DCs than the quorum floor the TS
//     declared at configure time, so the TS cannot adaptively subset
//     the aggregate toward a single DC's under-noised counters.
//   - A share-chunk restarting at offset zero resets that DC's
//     accumulation at the SK — the restart semantics behind a rejoined
//     DC re-sending its shares.
//   - The TS never holds a key that opens a sealed share box, and
//     never more than one chunk of boxes per DC in flight.
//   - A round may complete without a DC (its counts, blinds, and noise
//     share are all excluded) but never without an SK. Every DC
//     carries an equal noise weight provisioned at the quorum floor
//     (1/MinDCs), so any DC set the quorum admits reports at least the
//     calibrated sigma.
//   - The TS's residency is one schema-sized modular accumulator plus
//     O(chunk) per in-flight stream: DC reports are collected
//     concurrently, each buffered whole on spill storage
//     (internal/spill) and folded into the striped accumulator only
//     once complete — a DC that dies mid-report contributes nothing,
//     which the telescoping sum requires, since its blinding is
//     excluded from the SK sums. SK sums fold directly: every SK is
//     required, so a partial fold is never observed.
package privcount
