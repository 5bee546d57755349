package eth

import (
	"math/big"
	"time"

	"agnopol/internal/chain"
)

// Config parameterizes one Ethereum-family network. The presets below
// reproduce the regimes the paper measured in autumn 2022.
type Config struct {
	Name string
	Unit chain.Unit

	// SlotDuration is the block interval (12 s mainline, 2 s Polygon).
	SlotDuration time.Duration
	// BlockGasLimit and the derived target (limit/2) drive EIP-1559.
	BlockGasLimit uint64
	// InitialBaseFee in wei.
	InitialBaseFee *big.Int
	// MinBaseFee floors the EIP-1559 decay.
	MinBaseFee *big.Int
	// DefaultTip is the priority fee the simulated clients attach
	// (the paper used 1.5 gwei).
	DefaultTip *big.Int

	// Background traffic: total demand per block is lognormal with the
	// given mean (gas) and sigma; its tips are exponential with mean
	// TipScale, so a client tx with tip T is outbid by a fraction
	// exp(-T/TipScale) of the demand.
	CongestionMeanGas float64
	CongestionSigma   float64
	// CongestionElasticity makes demand respond to the base fee: the
	// demand mean scales by (InitialBaseFee/baseFee)^elasticity — the
	// fee-market equilibrium that keeps EIP-1559 mean-reverting instead
	// of drifting during long runs.
	CongestionElasticity float64
	TipScale             *big.Int
	// SpikeProb is the per-block probability of *entering* a congestion
	// spike that multiplies demand by SpikeFactor. Spikes persist for a
	// geometric number of blocks with mean SpikeBlocksMean — congestion
	// on real networks comes in episodes, which is what produces the
	// occasional very slow user in the paper's figures.
	SpikeProb       float64
	SpikeFactor     float64
	SpikeBlocksMean float64

	// Confirmations the client waits after inclusion before considering a
	// transaction final.
	Confirmations int
	// RPCLatencyMean/Jitter model the node-provider round trip
	// (Infura/Quicknode in the paper).
	RPCLatencyMean   time.Duration
	RPCLatencyJitter time.Duration
	// APIExtraDelayMean models the connector's event-subscription poll
	// after API calls (the Reach JS stdlib polls for the call's effects
	// before returning; see DESIGN.md).
	APIExtraDelayMean   time.Duration
	APIExtraDelayJitter time.Duration

	// Proof-of-stake parameters.
	ValidatorCount int
}

func gwei(f float64) *big.Int {
	v := new(big.Float).Mul(big.NewFloat(f), big.NewFloat(1e9))
	out, _ := v.Int(nil)
	return out
}

// Goerli is the primary Ethereum testnet preset: 12 s slots, busy and
// bursty, base fee in the 8-gwei range of the paper's runs.
func Goerli() Config {
	return Config{
		Name:                 "goerli",
		Unit:                 chain.UnitETH,
		SlotDuration:         12 * time.Second,
		BlockGasLimit:        30_000_000,
		InitialBaseFee:       gwei(8),
		MinBaseFee:           gwei(0.05),
		DefaultTip:           gwei(1.5),
		CongestionMeanGas:    15_000_000,
		CongestionSigma:      0.5,
		CongestionElasticity: 1.5,
		TipScale:             gwei(4.0),
		SpikeProb:            0.05,
		SpikeFactor:          3.0,
		SpikeBlocksMean:      2.5,
		Confirmations:        1,
		RPCLatencyMean:       900 * time.Millisecond,
		RPCLatencyJitter:     600 * time.Millisecond,
		APIExtraDelayMean:    10 * time.Second,
		APIExtraDelayJitter:  4 * time.Second,
		ValidatorCount:       64,
	}
}

// Ropsten is the deprecated, erratic testnet of Fig. 5.2: long waits, huge
// variance.
func Ropsten() Config {
	c := Goerli()
	c.Name = "ropsten"
	c.CongestionMeanGas = 14_800_000
	c.CongestionSigma = 0.8
	c.SpikeProb = 0.12
	c.SpikeFactor = 3.0
	c.SpikeBlocksMean = 5
	c.APIExtraDelayMean = 14 * time.Second
	c.APIExtraDelayJitter = 8 * time.Second
	return c
}

// PolygonMumbai is the layer-2 preset: 2 s blocks, cheap gas, more
// confirmations demanded by clients, still congestion-sensitive.
func PolygonMumbai() Config {
	return Config{
		Name:                 "polygon-mumbai",
		Unit:                 chain.UnitMATIC,
		SlotDuration:         2 * time.Second,
		BlockGasLimit:        30_000_000,
		InitialBaseFee:       gwei(0.35),
		MinBaseFee:           gwei(0.01),
		DefaultTip:           gwei(0.05),
		CongestionMeanGas:    9_000_000,
		CongestionSigma:      0.5,
		CongestionElasticity: 1.5,
		TipScale:             gwei(0.1),
		SpikeProb:            0.04,
		SpikeFactor:          4.5,
		SpikeBlocksMean:      3,
		Confirmations:        2,
		RPCLatencyMean:       700 * time.Millisecond,
		RPCLatencyJitter:     400 * time.Millisecond,
		APIExtraDelayMean:    11 * time.Second,
		APIExtraDelayJitter:  2 * time.Second,
		ValidatorCount:       32,
	}
}
