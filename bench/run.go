package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	scale   float64
	seconds float64
	// fault makes every world misbehave on purpose (faultFlipProof,
	// faultDropTx) so the correctness checks can be shown to bite.
	fault  string
	outDir string
}

// nominalWorldSeconds is the measured window one world is sized for on the
// 2-core reference host (see the size constants in lifecycle.go and
// soak.go). A run measures round(seconds / nominalWorldSeconds) worlds, so
// the work is fixed by count and sample counts repeat exactly.
const nominalWorldSeconds = 3.0

// runResult is the outcome of one pass of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Worlds    int                    `json:"worlds"`
	Samples   int                    `json:"samples"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Noisy     bool                   `json:"noisy"`
	Digest    string                 `json:"digest"`
	StateRoot string                 `json:"state_root"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
	// WorldOpsPerSec is each world's own throughput, in run order: how much
	// the worlds of one pass disagree is the first thing to look at when a
	// number looks off. Like every timing it is in reference-host time;
	// HostSlowdown is what the wall clock was divided by (window wall time
	// over reference-host time, all worlds) and RawOpsPerSec the median
	// world's throughput by the wall clock.
	WorldOpsPerSec []float64 `json:"world_ops_per_s"`
	HostSlowdown   float64   `json:"host_slowdown"`
	RawOpsPerSec   float64   `json:"ops_per_s_raw"`

	// exact are the per-op counts that must repeat between passes, and
	// opsPerSec the pass's own throughput (of its traced worlds, when
	// traced): runAll compares both across the two passes.
	exact     [3]float64
	opsPerSec float64
}

func runWorld(workload string, wc worldConfig) (*worldResult, error) {
	switch workload {
	case "lifecycle_evm":
		return runLifecycle("evm", wc)
	case "lifecycle_algorand":
		return runLifecycle("algorand", wc)
	case "soak_evm", "soak_algorand", "persist_evm":
		return runSoak(workload, wc)
	}
	return nil, fmt.Errorf("bench: unknown workload %q", workload)
}

// runWorkload runs one pass of a workload: several identical worlds, all
// from the same seed. Untraced passes yield the end-to-end metrics. Traced
// passes record spans in every other world and leave the rest untraced, so
// the same pass yields the per-layer metrics and the tracing overhead.
func runWorkload(spec *benchSpec, workload string, cfg config, traced bool) (*runResult, error) {
	tmp := &tempDirs{root: cfg.outDir}
	defer tmp.cleanup()

	nWorlds := max(2, int(math.Round(cfg.seconds/nominalWorldSeconds)))
	var worlds []*worldResult
	started := time.Now()
	for i := 0; i < nWorlds; i++ {
		wc := worldConfig{config: cfg, tmp: tmp}
		if traced && i%2 == 0 {
			wc.rec = newRecorder()
		}
		w, err := runWorld(workload, wc)
		if err != nil {
			return nil, fmt.Errorf("%s: world %d: %w", workload, i, err)
		}
		if wc.rec != nil {
			w.spans = wc.rec.spans
		}
		worlds = append(worlds, w)
		// A host far slower than the reference stops early rather than
		// overrun the driver's time limit. A pass of `seconds` measured
		// seconds takes up to 1.9 × that on the reference host (set-up, load
		// generation and checks are outside the windows); one that has used
		// 1.85 × before its last world would end near 2.5 ×.
		if len(worlds) >= 2 && time.Since(started).Seconds() > 1.85*cfg.seconds && cfg.seconds > 0 {
			break
		}
		tmp.cleanup()
	}

	first := worlds[0]
	out := &runResult{
		Workload: workload, Traced: traced, Worlds: len(worlds),
		Digest: fmt.Sprintf("%x", first.digest[:]), StateRoot: fmt.Sprintf("%x", first.stateRoot[:]),
	}
	for i, w := range worlds {
		out.Attempted += w.attempted
		out.WorldOpsPerSec = append(out.WorldOpsPerSec, w.opsPerSec())
		out.Failed += w.failed()
		out.Samples += len(w.opWalls)
		out.Failures = append(out.Failures, w.failures...)
		// Same seed, same inputs: every world must end in the same state,
		// traced or not.
		if w.digest != first.digest || w.stateRoot != first.stateRoot ||
			w.simSeconds != first.simSeconds || w.gas != first.gas || w.feeEUR != first.feeEUR {
			out.Failures = append(out.Failures, fmt.Sprintf("world %d diverged from world 0 on the same seed", i))
			out.Failed = out.Attempted
		}
	}
	out.Correct = out.Failed == 0
	out.HostSlowdown = hostSlowdown(worlds)
	out.RawOpsPerSec = medianOf(worlds, (*worldResult).rawOpsPerSec)
	firstOps := float64(first.ops())
	out.exact = [3]float64{
		ratio(first.simSeconds, firstOps), ratio(first.feeEUR, firstOps), ratio(float64(first.gas), firstOps),
	}

	var err error
	if !traced {
		out.opsPerSec = medianOf(worlds, (*worldResult).opsPerSec)
		out.Metrics, err = endToEndMetrics(spec, worlds, out.exact)
		return out, err
	}
	var tracedWorlds, plainWorlds []*worldResult
	for _, w := range worlds {
		if w.spans != nil {
			tracedWorlds = append(tracedWorlds, w)
		} else {
			plainWorlds = append(plainWorlds, w)
		}
	}
	out.opsPerSec = medianOf(tracedWorlds, (*worldResult).opsPerSec)
	overhead := (ratio(medianOf(plainWorlds, (*worldResult).opsPerSec), out.opsPerSec) - 1) * 100
	if math.Abs(overhead) > 10 {
		out.Noisy = true
		fmt.Fprintf(os.Stderr, "bench: %s: traced and untraced worlds differ by %.1f%% in ops_per_s; treat this run as noisy\n", workload, overhead)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(filepath.Join(cfg.outDir, "trace_"+workload+".json"), first.spans); err != nil {
		return nil, err
	}
	out.Metrics, err = layerMetrics(spec, workload, cfg, tracedWorlds, overhead)
	if err == nil && out.Metrics["bench.unattributed_share"].Value > 0.05 {
		// The parts must sum to the whole: time outside every named span
		// means the driver grew a cost the layer table does not show.
		out.Correct = false
		out.Failures = append(out.Failures, "more than 5% of op wall time is outside every span")
	}
	return out, err
}

// hostSlowdown is how much slower than the reference host the worlds'
// windows ran: their wall time over their reference-host time.
func hostSlowdown(worlds []*worldResult) float64 {
	var wall, ref time.Duration
	for _, w := range worlds {
		wall += w.window.wall
		ref += w.window.refWall
	}
	return ratio(float64(wall), float64(ref))
}

func medianOf(worlds []*worldResult, f func(*worldResult) float64) float64 {
	var v []float64
	for _, w := range worlds {
		v = append(v, f(w))
	}
	return median(v)
}

// pooledOpWalls returns every op sample of the worlds, in reference-host ms,
// sorted.
func pooledOpWalls(worlds []*worldResult) []float64 {
	var v []float64
	for _, w := range worlds {
		for _, d := range w.opWalls {
			v = append(v, ms(d))
		}
	}
	sort.Float64s(v)
	return v
}

// endToEndMetrics folds the worlds of an untraced pass into the metrics a
// user of the system would see. Timings are in reference-host time (see
// calib.go): medians over worlds (one disturbed world does not move them) or
// percentiles over the pooled op samples. The three exact metrics are counts
// and identical in every world.
func endToEndMetrics(spec *benchSpec, worlds []*worldResult, exact [3]float64) (map[string]metricValue, error) {
	m := newMetricSet(spec.EndToEnd)
	walls := pooledOpWalls(worlds)
	m.set("ops_per_s", medianOf(worlds, (*worldResult).opsPerSec))
	m.set("op_wall_ms_p50", percentile(walls, 50))
	m.set("op_wall_ms_p90", percentile(walls, 90))
	m.set("cpu_ms_per_op", medianOf(worlds, func(w *worldResult) float64 {
		return ratio(ms(w.window.refCPU), float64(w.ops()))
	}))
	m.set("setup_s", medianOf(worlds, func(w *worldResult) float64 { return w.setup.refWall.Seconds() }))
	m.set("sim_s_per_op", exact[0])
	m.set("fee_eur_per_op", exact[1])
	m.set("gas_per_op", exact[2])
	m.set("live_heap_mb", medianOf(worlds, func(w *worldResult) float64 { return float64(w.liveHeap) / (1 << 20) }))
	return m.finish(false)
}
