package eth

import "testing"

// BenchmarkStepEmpty is one Goerli slot with nothing in the mempool:
// proposer selection, background demand, state root, block hash — what
// every block costs before it carries a transaction.
func BenchmarkStepEmpty(b *testing.B) {
	c := NewChain(Goerli(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
