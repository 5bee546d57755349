package chain

import "runtime"

// ShardStats is what a chain has done since SetShards. Txs and Gas tally the
// transactions (or transaction groups) its blocks executed and their
// execution gas (or opcode cost); both families execute a block's items in
// canonical order on one state, so there is one lane and each slice has one
// entry. ParallelBatches counts the SubmitBatch calls whose signature checks
// ran on more than one goroutine. The shape is the one the benchmark module
// reads.
type ShardStats struct {
	Txs []uint64 // transactions (or tx groups) executed
	Gas []uint64 // execution gas (or opcode cost)
	// ParallelBatches counts batches admitted on more than one goroutine:
	// more than one item, at a width and a GOMAXPROCS above one.
	ParallelBatches uint64
}

// Sharder is a chain's fan-out width plus its tallies. Chains embed it,
// which gives them SetShards, Shards, ShardStats and Record; the zero value
// has width one and keeps no tallies.
type Sharder struct {
	shards int
	stats  *ShardStats
}

// SetShards sets the fan-out width of the work a chain spreads over
// goroutines — SubmitBatch's signature verification and what Step's
// selection reads of the pending pool (FanOut, which also caps it at
// GOMAXPROCS) — and starts the tallies afresh; n <= 1 keeps that work on
// the calling goroutine. Blocks execute serially at every width, so their
// contents do not depend on it.
func (s *Sharder) SetShards(n int) {
	s.shards = max(n, 1)
	s.stats = &ShardStats{Txs: make([]uint64, 1), Gas: make([]uint64, 1)}
}

// Shards returns the configured fan-out width.
func (s *Sharder) Shards() int { return max(s.shards, 1) }

// ShardStats returns a copy of the tallies accumulated since SetShards, or
// nil when SetShards was never called.
func (s *Sharder) ShardStats() *ShardStats {
	if s.stats == nil {
		return nil
	}
	return &ShardStats{
		Txs:             append([]uint64(nil), s.stats.Txs...),
		Gas:             append([]uint64(nil), s.stats.Gas...),
		ParallelBatches: s.stats.ParallelBatches,
	}
}

// Record adds one block's executed items and their gas to the tallies; a
// Sharder that SetShards never configured records nothing.
func (s *Sharder) Record(txs, gas uint64) {
	if s.stats == nil {
		return
	}
	s.stats.Txs[0] += txs
	s.stats.Gas[0] += gas
}

// batchWidth returns the width a batch of n items fans out at and counts
// the batch in ParallelBatches when FanOut will run it on more than one
// goroutine.
func (s *Sharder) batchWidth(n int) int {
	w := s.Shards()
	if s.stats != nil && min(w, runtime.GOMAXPROCS(0), n) > 1 {
		s.stats.ParallelBatches++
	}
	return w
}
