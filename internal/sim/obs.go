package sim

import (
	"fmt"

	"agnopol/internal/obs"
)

// DefaultSLORules are the stock health-monitor rules for a live
// telemetry session (obs.NewTelemetry): a throughput floor, tail-latency ceilings, a rejection
// ceiling and a fault-recovery floor. Rules for families the run never
// touches simply never evaluate — the same set works for EVM presets,
// Algorand and fault sweeps.
func DefaultSLORules() []obs.Rule {
	return []obs.Rule{
		// Throughput floor: across a five-sample window at least one
		// transaction must land. A stalled soak — mempool wedged, executor
		// deadlocked — flatlines these counters and trips the rule; the
		// window tolerates the single empty block a base-fee spike can
		// legitimately produce, and the zero-progress final drain sample.
		{Name: "eth_throughput_floor", Kind: obs.RuleRateMin,
			Series: "eth_txs_included_total", Threshold: 1, Grace: 5, Window: 5},
		{Name: "algorand_throughput_floor", Kind: obs.RuleRateMin,
			Series: "algorand_groups_included_total", Threshold: 1, Grace: 5, Window: 5},
		// Tail-latency ceiling over the merged inclusion sketches, in
		// simulated seconds. The congestion-trimmed soak stays well under
		// a minute; five simulated minutes of p99 means sustained
		// congestion or a fault storm.
		{Name: "eth_tail_latency_ceiling", Kind: obs.RuleQuantileMax,
			Series: "eth_inclusion_latency", Quantile: 0.99, Threshold: 300, Grace: 2},
		{Name: "algorand_tail_latency_ceiling", Kind: obs.RuleQuantileMax,
			Series: "algorand_inclusion_latency", Quantile: 0.99, Threshold: 120, Grace: 2},
		// Rejection ceiling: the soak workload is valid by construction,
		// so any rejected group is an anomaly worth a flight record.
		{Name: "rejection_ceiling", Kind: obs.RuleRateMax,
			Series: "algorand_groups_rejected_total", Threshold: 0, Grace: 2},
		// Fault-recovery floor: cumulative recovered/injected across all
		// classes. Only evaluates once faults actually fire.
		{Name: "fault_recovery_floor", Kind: obs.RuleRatioMin,
			Series: "faults_recovered_total", Denominator: "faults_injected_total",
			Threshold: 0.5, Grace: 2},
	}
}

// RunFigureObserved is RunFigure with an observability bundle threaded
// through the underlying run.
func RunFigureObserved(spec FigureSpec, seed uint64, o *obs.Obs) (*Figure, *Result, error) {
	r, err := Execute(Spec{Chain: spec.Chain, Users: spec.Users, Seed: seed, Obs: o})
	if err != nil {
		return nil, nil, err
	}
	return FigureFromResult(spec.ID, r.Result), r.Result, nil
}

// RunTablesObserved is RunTables with an observability bundle threaded
// through every underlying run. Chain metrics accumulate in the shared
// registry, distinguished by their chain label.
func RunTablesObserved(seed uint64, o *obs.Obs) ([]*Table, map[int]map[ChainName]*Result, error) {
	byUsers := map[int]map[ChainName]*Result{16: {}, 32: {}}
	for _, users := range []int{16, 32} {
		for _, c := range AllChains {
			r, err := Execute(Spec{Chain: c, Users: users, Seed: seed, Obs: o})
			if err != nil {
				return nil, nil, fmt.Errorf("sim: %s/%d users: %w", c, users, err)
			}
			byUsers[users][c] = r.Result
		}
	}
	tables := []*Table{
		BuildTable("deploy", 16, byUsers[16]),
		BuildTable("deploy", 32, byUsers[32]),
		BuildTable("attach", 16, byUsers[16]),
		BuildTable("attach", 32, byUsers[32]),
	}
	return tables, byUsers, nil
}
