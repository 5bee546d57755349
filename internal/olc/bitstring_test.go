package olc

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// nodeID is the hypercube node ID of a coordinate's default-length code.
func nodeID(lat, lng float64, r int) (uint64, error) {
	code, err := Encode(lat, lng, DefaultCodeLength)
	if err != nil {
		return 0, err
	}
	bs, err := ToBitString(code, r)
	if err != nil {
		return 0, err
	}
	return bs.Uint64(), nil
}

func TestSegmentsThesisExample(t *testing.T) {
	// Fig. 1.3: "6PH57VP3+PR" splits into zero-padded pairs.
	segs, err := Segments("6PH57VP3+PR")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"6P00000000", "00H5000000", "00007V0000", "000000P300", "00000000PR",
	}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments, want %d", len(segs), len(want))
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("segment %d = %q, want %q", i, segs[i], want[i])
		}
	}
}

func TestToBitStringDeterministicAndBounded(t *testing.T) {
	bs1, err := ToBitString("6PH57VP3+PR", 6)
	if err != nil {
		t.Fatal(err)
	}
	bs2, err := ToBitString("6PH57VP3+PR", 6)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bs1.Bits, bs2.Bits) {
		t.Fatal("dual encoding not deterministic")
	}
	if len(bs1.Bits) != 6 {
		t.Fatalf("bit string length %d, want 6", len(bs1.Bits))
	}
	if bs1.Uint64() >= 64 {
		t.Fatalf("node ID %d out of range for r=6", bs1.Uint64())
	}
}

func TestToBitStringRange(t *testing.T) {
	err := quick.Check(func(latRaw, lngRaw float64, rRaw uint8) bool {
		lat := math.Mod(math.Abs(latRaw), 170) - 85
		lng := math.Mod(math.Abs(lngRaw), 360) - 180
		if math.IsNaN(lat) || math.IsNaN(lng) {
			return true
		}
		r := int(rRaw)%16 + 1
		id, err := nodeID(lat, lng, r)
		if err != nil {
			return false
		}
		return id < uint64(1)<<uint(r)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestToBitStringRejectsBadInput(t *testing.T) {
	if _, err := ToBitString("8FPHF8VV+X2", 0); err == nil {
		t.Fatal("r=0 accepted")
	}
	if _, err := ToBitString("8FPHF8VV+X2", 65); err == nil {
		t.Fatal("r=65 accepted")
	}
	if _, err := ToBitString("not-a-code", 6); err == nil {
		t.Fatal("invalid code accepted")
	}
	if _, err := ToBitString("2345+G6", 6); err == nil {
		t.Fatal("short code accepted")
	}
}

func TestBitStringUint64MSBFirst(t *testing.T) {
	bs := BitString{Bits: []bool{true, false, true, false}}
	// The thesis convention: "1010" is node 10.
	if got := bs.Uint64(); got != 10 {
		t.Fatalf("1010 -> %d, want 10", got)
	}
}

func TestNearbyCodesSpreadAcrossNodes(t *testing.T) {
	// The dual encoding should not collapse a whole neighbourhood onto a
	// single node: over a 20×20 cell grid expect several distinct IDs.
	seen := make(map[uint64]bool)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			lat := 44.49 + float64(i)*0.000125
			lng := 11.34 + float64(j)*0.000125
			id, err := nodeID(lat, lng, 6)
			if err != nil {
				t.Fatal(err)
			}
			seen[id] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("400 nearby cells mapped to only %d node(s)", len(seen))
	}
}
