package eth

import (
	"agnopol/internal/obs"
)

// inclusionLatencyBuckets are the histogram bounds, in simulated seconds,
// used for transaction inclusion latency. Slots are 12–15 s apart across
// the presets, so the buckets span one slot up to several minutes of
// congestion-induced waiting.
var inclusionLatencyBuckets = []float64{1, 2.5, 5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 300}

// chainObs bundles the chain's metric instruments beyond the mempool's. A
// nil chainObs (the default) means the chain is uninstrumented and every
// hook site reduces to a single nil check.
type chainObs struct {
	blocksProduced   *obs.Counter
	txsDeferred      *obs.Counter
	congestionSpikes *obs.Counter
	blockGasUsed     *obs.Counter
	baseFee          *obs.Gauge
	prof             obs.Profiler
}

// Instrument attaches o's registry and EVM opcode profile to the chain. All metrics carry a chain label with the preset name; the
// mempool's are the series both families share (chain.Pool.Instrument). A
// nil bundle detaches instrumentation.
func (c *Chain) Instrument(o *obs.Obs) {
	c.obs = nil
	var reg *obs.Registry
	if o != nil {
		reg = o.Registry
	}
	name := obs.L("chain", c.cfg.Name)
	c.pool.Instrument(reg, name, "eth", "txs", "mempool", inclusionLatencyBuckets, [4]string{
		"Transactions accepted into the mempool.",
		"Transactions included in a block.",
		"Transactions currently queued in the mempool.",
		"Simulated submit-to-inclusion latency.",
	})
	if reg == nil {
		return
	}
	c.obs = &chainObs{
		blocksProduced:   reg.Counter("eth_blocks_produced_total", name),
		txsDeferred:      reg.Counter("eth_txs_deferred_total", name),
		congestionSpikes: reg.Counter("eth_congestion_spikes_total", name),
		blockGasUsed:     reg.Counter("eth_block_gas_used_total", name),
		baseFee:          reg.Gauge("eth_base_fee_wei", name),
		prof:             o.EVMProfile,
	}
	reg.Help("eth_blocks_produced_total", "Blocks produced by the simulated EVM chain.")
	reg.Help("eth_txs_deferred_total", "Eligible transactions deferred past a block (priced out or waiting).")
	reg.Help("eth_congestion_spikes_total", "Congestion spike episodes started.")
	reg.Help("eth_block_gas_used_total", "Total gas consumed across produced blocks.")
	reg.Help("eth_base_fee_wei", "Current EIP-1559 base fee in wei.")
}
