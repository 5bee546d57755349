package algorand

import (
	"agnopol/internal/obs"
)

// inclusionLatencyBuckets are the histogram bounds, in simulated seconds,
// for group inclusion latency. Rounds certify every ~4.5 s, so the range
// is tighter than on the EVM chains.
var inclusionLatencyBuckets = []float64{1, 2.5, 5, 7.5, 10, 15, 20, 30, 45, 60}

// chainObs bundles the chain's metric instruments beyond the pending
// pool's; nil means the chain is uninstrumented and hook sites cost one
// nil check.
type chainObs struct {
	roundsCertified *obs.Counter
	groupsRejected  *obs.Counter
	fees            *obs.Counter
	prof            obs.Profiler
}

// Instrument attaches o's registry and AVM opcode profile to the chain. All metrics carry a chain label with the preset name; the pending
// pool's are the series both families share (chain.Pool.Instrument). A
// nil bundle detaches instrumentation.
func (c *Chain) Instrument(o *obs.Obs) {
	c.obs = nil
	var reg *obs.Registry
	if o != nil {
		reg = o.Registry
	}
	name := obs.L("chain", c.cfg.Name)
	c.pool.Instrument(reg, name, "algorand", "groups", "pending", inclusionLatencyBuckets, [4]string{
		"Transaction groups accepted into the pending pool.",
		"Transaction groups included in a certified round.",
		"Transaction groups currently awaiting a round.",
		"Simulated submit-to-certification latency.",
	})
	if reg == nil {
		return
	}
	c.obs = &chainObs{
		roundsCertified: reg.Counter("algorand_rounds_certified_total", name),
		groupsRejected:  reg.Counter("algorand_groups_rejected_total", name),
		fees:            reg.Counter("algorand_fees_microalgo_total", name),
		prof:            o.AVMProfile,
	}
	reg.Help("algorand_rounds_certified_total", "Consensus rounds certified.")
	reg.Help("algorand_groups_rejected_total", "Included groups whose execution was rejected and rolled back.")
	reg.Help("algorand_fees_microalgo_total", "Fees charged, in microAlgos.")
}
