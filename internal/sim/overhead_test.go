package sim

import (
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"agnopol/internal/obs"
)

// fig52 is the smallest full experiment (Ropsten, 8 users) — the standard
// workload for overhead measurements.
var fig52 = FigureSpecs[0]

func processCPU(tb testing.TB) time.Duration {
	tb.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuRun executes fig 5.2 once and returns the process CPU time it took.
func cpuRun(tb testing.TB, o *obs.Obs) time.Duration {
	tb.Helper()
	start := processCPU(tb)
	if _, err := Execute(Spec{Chain: fig52.Chain, Users: fig52.Users, Seed: 7, Obs: o}); err != nil {
		tb.Fatal(err)
	}
	return processCPU(tb) - start
}

// TestNoOpObservabilityOverhead checks that the uninstrumented (nil-obs)
// path through the instrumented code is not slower than the fully
// instrumented one. The no-op path does strictly less work — only nil
// checks — so comparing against the instrumented run gives a stable
// direction: if the nil path ever exceeded the instrumented one by more
// than the 5% noise allowance, the "observability off costs nothing"
// claim would be broken. Each repetition runs the two back to back, in
// alternating order, and yields one ratio of process CPU time (which time
// spent descheduled under a loaded test run does not enter); the verdict
// is the median ratio, which a disturbed pair cannot move. A run is only
// ~15 ms, so single ratios scatter by ±10%; over 41 pairs the median stays
// within 0.93–1.02 on a loaded 2-CPU host (the instrumented side really is
// a few percent dearer).
func TestNoOpObservabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const pairs = 41
	ratios := make([]float64, pairs)
	for i := range ratios {
		var cpu [2]time.Duration // no-op, instrumented
		first := i % 2
		for _, side := range []int{first, 1 - first} {
			var o *obs.Obs
			if side == 1 {
				o = obs.New()
			}
			cpu[side] = cpuRun(t, o)
		}
		ratios[i] = float64(cpu[0]) / float64(cpu[1])
	}
	sort.Float64s(ratios)
	median := ratios[pairs/2]
	t.Logf("fig 5.2 no-op/instrumented CPU time over %d pairs: median %.3f, range %.3f..%.3f",
		pairs, median, ratios[0], ratios[pairs-1])
	if median > 1.05 {
		t.Errorf("no-op path costs %.1f%% more CPU than the instrumented one (median of %d pairs); the allowance is 5%%",
			100*(median-1), pairs)
	}
}

// soakMallocs runs a 40-round soak and returns the heap objects
// allocated while it ran: the least of three runs, so a goroutine left
// over from an earlier test cannot inflate the figure.
func soakMallocs(t *testing.T, c ChainName, o func() *obs.Obs) uint64 {
	t.Helper()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		spec := SoakSpec{Chain: c, Areas: 4, Users: 16, Rounds: 40, Shards: 2, Seed: 7, Obs: o()}
		runtime.ReadMemStats(&before)
		if _, err := RunSoak(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestObsOverheadOnSoak bounds what recording a soak costs: with Spec.Obs
// attached (registry, tracer, opcode profiles) the soak may allocate at
// most 5% more heap objects than without. Allocation counts are
// deterministic where the CPU time of two separate soaks on a shared host
// is not, and every per-transaction or per-opcode cost of an instrument
// shows up in them.
func TestObsOverheadOnSoak(t *testing.T) {
	for _, c := range []ChainName{ChainGoerli, ChainAlgorand} {
		t.Run(string(c), func(t *testing.T) {
			bare := soakMallocs(t, c, func() *obs.Obs { return nil })
			observed := soakMallocs(t, c, obs.New)
			ratio := float64(observed) / float64(bare)
			t.Logf("soak allocations: %d bare, %d with Obs (%.3fx)", bare, observed, ratio)
			if ratio > 1.05 {
				t.Errorf("Obs adds %.1f%% to the soak's allocations; the budget is 5%%", 100*(ratio-1))
			}
		})
	}
}

func BenchmarkFig52(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Execute(Spec{Chain: fig52.Chain, Users: fig52.Users, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig52Observed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Execute(Spec{Chain: fig52.Chain, Users: fig52.Users, Seed: 7, Obs: obs.New()}); err != nil {
			b.Fatal(err)
		}
	}
}
