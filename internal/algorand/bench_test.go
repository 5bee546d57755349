package algorand

import "testing"

// BenchmarkStepEmpty is one Testnet round with nothing pending: the
// proposer sortition (one VRF per participant) the seed chain needs, state
// root, block hash — what every round costs before it carries a group.
func BenchmarkStepEmpty(b *testing.B) {
	c := NewChain(Testnet(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
