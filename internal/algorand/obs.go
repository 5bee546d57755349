package algorand

import (
	"agnopol/internal/obs"
)

// InclusionLatencyBuckets are the histogram bounds, in simulated seconds,
// for group inclusion latency. Rounds certify every ~4.5 s, so the range
// is tighter than on the EVM chains.
var InclusionLatencyBuckets = []float64{1, 2.5, 5, 7.5, 10, 15, 20, 30, 45, 60}

// chainObs bundles the chain's metric instruments; nil means the chain is
// uninstrumented and hook sites cost one nil check.
type chainObs struct {
	roundsCertified  *obs.Counter
	groupsSubmitted  *obs.Counter
	groupsIncluded   *obs.Counter
	groupsRejected   *obs.Counter
	fees             *obs.Counter
	pendingDepth     *obs.Gauge
	inclusionLatency *obs.Histogram
	// inclusionSketch answers tail-latency questions the fixed buckets
	// can't: a mergeable quantile sketch over the same observations.
	inclusionSketch *obs.QuantileSketch
	faultDelay      *obs.QuantileSketch
	prof            obs.Profiler
	log             *obs.Logger
}

// Instrument attaches metric instruments, an AVM opcode profiler and a
// logger to the chain. All metrics carry a chain label with the preset
// name. Passing a nil registry detaches instrumentation.
func (c *Chain) Instrument(reg *obs.Registry, prof obs.Profiler, log *obs.Logger) {
	if reg == nil {
		c.obs = nil
		c.pool.Instrument(nil, nil, nil)
		return
	}
	name := obs.L("chain", c.cfg.Name)
	c.obs = &chainObs{
		roundsCertified:  reg.Counter("algorand_rounds_certified_total", name),
		groupsSubmitted:  reg.Counter("algorand_groups_submitted_total", name),
		groupsIncluded:   reg.Counter("algorand_groups_included_total", name),
		groupsRejected:   reg.Counter("algorand_groups_rejected_total", name),
		fees:             reg.Counter("algorand_fees_microalgo_total", name),
		pendingDepth:     reg.Gauge("algorand_pending_depth", name),
		inclusionLatency: reg.Histogram("algorand_inclusion_latency_seconds", InclusionLatencyBuckets, name),
		inclusionSketch:  reg.Sketch("algorand_inclusion_latency", name),
		faultDelay:       reg.Sketch("faults_injected_delay_seconds", name),
		prof:             prof,
		log:              log,
	}
	c.pool.Instrument(c.obs.groupsSubmitted, c.obs.pendingDepth, c.obs.faultDelay)
	reg.Help("algorand_rounds_certified_total", "Consensus rounds certified.")
	reg.Help("algorand_groups_submitted_total", "Transaction groups accepted into the pending pool.")
	reg.Help("algorand_groups_included_total", "Transaction groups included in a certified round.")
	reg.Help("algorand_groups_rejected_total", "Included groups whose execution was rejected and rolled back.")
	reg.Help("algorand_fees_microalgo_total", "Fees charged, in microAlgos.")
	reg.Help("algorand_pending_depth", "Transaction groups currently awaiting a round.")
	reg.Help("algorand_inclusion_latency_seconds", "Simulated submit-to-certification latency.")
	reg.Help("algorand_inclusion_latency", "Quantile sketch of simulated submit-to-certification latency.")
	reg.Help("faults_injected_delay_seconds", "Quantile sketch of injected tx_delay propagation stalls.")
}
