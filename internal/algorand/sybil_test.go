package algorand

import (
	"fmt"
	"testing"

	"agnopol/internal/polcrypto"
)

// TestSortitionSybilResistance: splitting stake across many pseudonymous
// identities does not increase expected committee weight — the property
// PPoS uses to defeat Sybil attacks (§1.4.2: "it is addressed by selecting
// users considering their amount of stake as weight").
func TestSortitionSybilResistance(t *testing.T) {
	const (
		totalStake = 100_000
		expected   = 50.0
		rounds     = 800
	)
	type detRand struct{ state uint64 }
	read := func(r *detRand, p []byte) {
		for i := range p {
			r.state = r.state*6364136223846793005 + 1442695040888963407
			p[i] = byte(r.state >> 56)
		}
	}
	newKP := func(seed uint64) *polcrypto.KeyPair {
		r := &detRand{state: seed}
		kp, err := polcrypto.GenerateKeyPair(readerFunc(func(p []byte) (int, error) {
			read(r, p)
			return len(p), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return kp
	}

	// One whale with 10,000 stake vs. the same stake split over 50 sybils.
	whale := newKP(1)
	sybils := make([]*polcrypto.KeyPair, 50)
	for i := range sybils {
		sybils[i] = newKP(uint64(100 + i))
	}

	whaleWeight, sybilWeight := 0.0, 0.0
	for round := 0; round < rounds; round++ {
		seed := []byte(fmt.Sprintf("round-%d", round))
		out := polcrypto.VRFEvaluate(whale, seed)
		whaleWeight += float64(polcrypto.Sortition(out, 10_000, totalStake, expected))
		for _, s := range sybils {
			out := polcrypto.VRFEvaluate(s, seed)
			sybilWeight += float64(polcrypto.Sortition(out, 200, totalStake, expected))
		}
	}
	ratio := sybilWeight / whaleWeight
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("sybil/whale committee weight ratio %.3f; splitting stake should not change expected weight", ratio)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
