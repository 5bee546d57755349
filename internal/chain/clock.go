package chain

import "time"

// Clock is the discrete-event simulation clock. Each chain owns one; it only
// moves when the simulation advances it (block production, network delays),
// so experiments that span simulated hours run in milliseconds of wall time.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock at simulated time zero (genesis).
func NewClock() *Clock { return &Clock{} }

// Now returns the elapsed simulated time since genesis.
func (c *Clock) Now() time.Duration { return c.now }

// AdvanceTo moves the clock to an absolute simulated time, never backwards.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// Receipt reports the outcome of a transaction on either chain family, in
// the common shape the Connector interface and the benchmark harness
// consume.
type Receipt struct {
	TxHash      Hash32
	BlockNumber uint64
	// GasUsed is EVM gas for Ethereum-family chains and the AVM opcode
	// budget consumed for Algorand.
	GasUsed uint64
	// Fee actually paid, in the chain's base units.
	Fee Amount
	// Submitted and Included are simulated timestamps; Included-Submitted
	// is the confirmation latency the paper's figures plot.
	Submitted time.Duration
	Included  time.Duration
	Reverted  bool
	RevertMsg string
	// ReturnValue is the ABI-encoded (EVM) or raw (AVM) return of the call.
	ReturnValue []byte
	Logs        []string
}
