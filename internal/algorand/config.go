// Package algorand is a discrete-event simulator of the Algorand network as
// the paper uses it: pure proof-of-stake rounds with VRF-based cryptographic
// sortition for leader and committee selection (Gilad et al., SOSP'17),
// BA-style certification with immediate finality, flat 1000-µAlgo fees, and
// stateful applications executed by the AVM (package avm). A round (Step)
// runs the proposer sortition its seed chain needs; the committee's
// certificate is evidence anyone can ask for afterwards (Certificate) and
// check against the block (VerifyCertificate).
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
	// ExpectedProposers and ExpectedCommittee are the sortition target
	// sizes (the real protocol uses 20 and ~2990; scaled down with the
	// same ratios).
	ExpectedProposers float64
	ExpectedCommittee float64
	// CertThreshold is the weighted-vote fraction of ExpectedCommittee
	// required to certify (the real soft-vote threshold is ~0.685).
	CertThreshold float64

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
		ExpectedCommittee: 30,
		CertThreshold:     0.685,
		IndexerSyncRounds: 2,
		RPCLatencyMean:    500 * time.Millisecond,
		RPCLatencyJitter:  600 * time.Millisecond,
	}
}
