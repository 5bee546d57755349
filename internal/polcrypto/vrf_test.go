package polcrypto

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVRFUniqueness(t *testing.T) {
	kp := MustGenerateKeyPair(&detRand{state: 13})
	a := VRFEvaluate(kp, []byte("s"))
	b := VRFEvaluate(kp, []byte("s"))
	if a != b {
		t.Fatal("VRF output not unique per (key, seed)")
	}
}

func TestVRFFractionInUnitInterval(t *testing.T) {
	err := quick.Check(func(seed []byte) bool {
		kp := MustGenerateKeyPair(&detRand{state: 99})
		out := VRFEvaluate(kp, seed)
		f := out.Fraction()
		return f >= 0 && f < 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortitionZeroCases(t *testing.T) {
	var out VRFOutput
	if Sortition(out, 0, 100, 10) != 0 {
		t.Fatal("zero stake selected")
	}
	if Sortition(out, 10, 0, 10) != 0 {
		t.Fatal("zero total stake selected")
	}
	if Sortition(out, 10, 100, 0) != 0 {
		t.Fatal("zero expected size selected")
	}
}

func TestSortitionNeverExceedsStake(t *testing.T) {
	err := quick.Check(func(seedByte uint8, stake16 uint16) bool {
		stake := uint64(stake16)%1000 + 1
		kp := MustGenerateKeyPair(&detRand{state: uint64(seedByte) + 1})
		out := VRFEvaluate(kp, []byte{seedByte})
		j := Sortition(out, stake, 10000, 50)
		return j <= stake
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSortitionExpectation draws many evaluations and checks the mean
// selected weight approaches expectedSize·stake/totalStake.
func TestSortitionExpectation(t *testing.T) {
	kp := MustGenerateKeyPair(&detRand{state: 21})
	const (
		stake      = 100
		totalStake = 1000
		expected   = 50.0
		rounds     = 4000
	)
	sum := 0.0
	for i := 0; i < rounds; i++ {
		out := VRFEvaluate(kp, []byte{byte(i), byte(i >> 8)})
		sum += float64(Sortition(out, stake, totalStake, expected))
	}
	mean := sum / rounds
	want := expected * stake / totalStake // 5
	if math.Abs(mean-want) > 0.35 {
		t.Fatalf("sortition mean %.3f, want ≈%.1f", mean, want)
	}
}

// TestSortitionProportionalToStake checks that doubling stake roughly
// doubles expected selections — the weighting PPoS relies on.
func TestSortitionProportionalToStake(t *testing.T) {
	kp := MustGenerateKeyPair(&detRand{state: 22})
	count := func(stake uint64) float64 {
		sum := 0.0
		for i := 0; i < 3000; i++ {
			out := VRFEvaluate(kp, []byte{byte(i), byte(i >> 8), byte(stake)})
			sum += float64(Sortition(out, stake, 10000, 100))
		}
		return sum
	}
	small, large := count(100), count(200)
	ratio := large / small
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("stake 200 selected %.1f× stake 100, want ≈2×", ratio)
	}
}
