package chain

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestAddressDerivationIsStable(t *testing.T) {
	pub := make([]byte, 32)
	for i := range pub {
		pub[i] = byte(i)
	}
	a := AddressFromPublicKey(pub)
	b := AddressFromPublicKey(pub)
	if a != b {
		t.Fatal("address derivation not deterministic")
	}
	pub[0] ^= 1
	if AddressFromPublicKey(pub) == a {
		t.Fatal("different keys produced the same address")
	}
}

func TestContractAddressDependsOnNonce(t *testing.T) {
	creator := AddressFromBytes([]byte("creator"))
	if ContractAddress(creator, 0) == ContractAddress(creator, 1) {
		t.Fatal("same contract address for different nonces")
	}
	other := AddressFromBytes([]byte("other"))
	if ContractAddress(creator, 0) == ContractAddress(other, 0) {
		t.Fatal("same contract address for different creators")
	}
}

func TestAmountConversions(t *testing.T) {
	// 1 ETH = €1156 (the paper's Nov 17 2022 rate).
	a := AmountFromTokens(1, UnitETH)
	if a.Base.Cmp(big.NewInt(1e18)) != 0 {
		t.Fatalf("1 ETH = %s wei", a.Base)
	}
	if got := a.Euros(); math.Abs(got-1156) > 1e-9 {
		t.Fatalf("1 ETH = €%v, want €1156", got)
	}
	algo := AmountFromTokens(0.5, UnitALGO)
	if algo.Base.Cmp(big.NewInt(500_000)) != 0 {
		t.Fatalf("0.5 ALGO = %s µALGO", algo.Base)
	}
	if got := algo.Euros(); math.Abs(got-0.13) > 1e-9 {
		t.Fatalf("0.5 ALGO = €%v, want €0.13", got)
	}
}

func TestAmountAdd(t *testing.T) {
	a := AmountFromTokens(1, UnitMATIC)
	b := AmountFromTokens(2.5, UnitMATIC)
	sum := a.Add(b)
	if got := sum.Tokens(); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("sum = %v MATIC", got)
	}
	var zero Amount
	if got := zero.Add(a).Tokens(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("zero+1 = %v", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(7)
	a := r.Fork("a")
	b := r.Fork("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams matched %d/64 draws", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(9)
	err := quick.Check(func(n uint16) bool {
		m := int(n)%100 + 1
		v := r.Uint64n(uint64(m))
		return v < uint64(m)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		if e := r.ExpFloat64(); e < 0 {
			t.Fatalf("ExpFloat64 = %v", e)
		}
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 20000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestClock(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(5)
	c.AdvanceTo(3) // never backwards
	if c.Now() != 5 {
		t.Fatalf("clock went backwards: %v", c.Now())
	}
	c.AdvanceTo(9)
	if c.Now() != 9 {
		t.Fatalf("now = %v", c.Now())
	}
}
