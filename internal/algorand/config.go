// Package algorand is a discrete-event simulator of the Algorand network as
// the paper uses it: pure proof-of-stake rounds whose leader is drawn by
// VRF-based cryptographic sortition (Gilad et al., SOSP'17) and whose blocks
// are final immediately, flat 1000-µAlgo fees, and stateful applications
// executed by the AVM (package avm). As in the paper, a client trusts its
// node provider's receipt: rounds carry no committee certificate.
package algorand

import (
	"time"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
)

// MinFee is the flat minimum fee per transaction, in µAlgos.
const MinFee = 1000

// MinBalance is the minimum balance an account (including an application
// escrow account) must hold, in µAlgos. It matches the value the AVM's
// `global MinBalance` reports.
const MinBalance = avm.MinBalanceValue

// Config parameterizes the simulated network.
type Config struct {
	Name string
	Unit chain.Unit

	// RoundDuration is the block interval; Algorand testnet runs ~4.4 s
	// rounds in the paper's period.
	RoundDuration time.Duration
	// ParticipantCount and stake shape the sortition population.
	ParticipantCount int
	// ExpectedProposers is the proposer sortition's target size (the
	// real protocol uses 20; scaled down with the population).
	ExpectedProposers float64

	// IndexerSyncRounds is how many rounds behind the indexer the client
	// reads confirmed effects from (the Reach/PureStake pipeline the
	// paper used polls the indexer, which lags the ledger).
	IndexerSyncRounds int
	// RPCLatencyMean/Jitter model the PureStake API hop.
	RPCLatencyMean   time.Duration
	RPCLatencyJitter time.Duration
}

// Testnet is the preset matching the paper's Algorand testnet runs.
func Testnet() Config {
	return Config{
		Name:              "algorand-testnet",
		Unit:              chain.UnitALGO,
		RoundDuration:     4850 * time.Millisecond,
		ParticipantCount:  60,
		ExpectedProposers: 5,
		IndexerSyncRounds: 2,
		RPCLatencyMean:    500 * time.Millisecond,
		RPCLatencyJitter:  600 * time.Millisecond,
	}
}
