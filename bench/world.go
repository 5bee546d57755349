package main

import (
	"fmt"
	"math"
	"time"

	"agnopol/internal/chain"
)

// worldConfig is everything one world is built from. A world is one
// fixed-count repetition of a workload on a fresh chain and system; a run
// measures several identical worlds and reports medians.
type worldConfig struct {
	config
	// rec records spans when the world is traced; nil otherwise.
	rec *recorder
	tmp *tempDirs
}

const (
	faultFlipProof = "flip_proof"
	faultDropTx    = "drop_tx"
)

// worldResult is what one world measured.
type worldResult struct {
	// setup times everything before the window; window is the measured
	// window, the sum of its timed sections: one per area on the lifecycles,
	// one per round on the soaks. Each section is bracketed by host probes.
	setup, window stopwatch
	// opWalls has one sample per proof (lifecycles) or per round (soaks), in
	// reference-host time: the wall time over opSlow of the operation.
	opWalls []time.Duration
	// opSlow is the host slowdown measured around each operation, by the op
	// id its spans carry.
	opSlow map[int32]float64
	// attempted counts operations. failedOps are the lifecycle proofs that
	// missed a check; failedN counts check-ins, which have no identity worth
	// keeping.
	attempted int
	failedOps map[int]bool
	failedN   int
	failures  []string

	simSeconds float64 // simulated chain-clock seconds the window covered
	feeEUR     float64 // fees the window's accounts paid, by balance identity
	gas        uint64  // Σ receipt GasUsed
	digest     chain.Hash32
	stateRoot  chain.Hash32
	liveHeap   uint64

	// counts are layer counters summed over the window (blocks, hops,
	// retries, bytes written …), keyed by the name metrics.go reads.
	counts map[string]float64
	// buildSign is the soaks' client-side encode + sign work, timed outside
	// the window so window shares do not include it, in reference-host time
	// by the slowdown of the round it feeds.
	buildSign spanStat
	// spans are what the world's recorder held at the end, if it was traced.
	spans []span
}

// newWorldResult takes how many cores the workload keeps busy.
func newWorldResult(threads int) *worldResult {
	w := &worldResult{
		failedOps: make(map[int]bool),
		counts:    make(map[string]float64),
		opSlow:    make(map[int32]float64),
	}
	w.setup.threads, w.window.threads = threads, threads
	return w
}

// addOp records one operation's sample: its wall time and the host slowdown
// of the section it ran in.
func (w *worldResult) addOp(op int, wall time.Duration, slow float64) {
	w.opWalls = append(w.opWalls, time.Duration(float64(wall)/slow))
	w.opSlow[int32(op)] = slow
}

func (w *worldResult) failed() int { return min(w.attempted, len(w.failedOps)+w.failedN) }
func (w *worldResult) ops() int    { return w.attempted - w.failed() }

// opsPerSec is the world's throughput in reference-host time, rawOpsPerSec
// by the wall clock.
func (w *worldResult) opsPerSec() float64 {
	return ratio(float64(w.ops()), w.window.refWall.Seconds())
}

func (w *worldResult) rawOpsPerSec() float64 {
	return ratio(float64(w.ops()), w.window.wall.Seconds())
}

// note keeps the first few failure reasons for the report.
func (w *worldResult) note(format string, args ...any) {
	if len(w.failures) < 8 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// fail marks one lifecycle proof as failed.
func (w *worldResult) fail(op int, format string, args ...any) {
	w.failedOps[op] = true
	w.note("op %d: %s", op, fmt.Sprintf(format, args...))
}

// failN marks n more operations failed; n <= 0 is a no-op.
func (w *worldResult) failN(n int, format string, args ...any) {
	if n > 0 {
		w.failedN += n
		w.note(format, args...)
	}
}

// failAll marks every operation failed: a whole-world invariant (fee
// identity, drained mempool, reopened digest) cannot be pinned on one op.
func (w *worldResult) failAll(format string, args ...any) {
	w.failN(w.attempted, format, args...)
}

// scaled multiplies a count by the scale factor, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(math.Round(float64(n)*scale)), floor)
}
