package olc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// Reference vectors from the Open Location Code repository's test data.
func TestEncodeKnownVectors(t *testing.T) {
	cases := []struct {
		lat, lng float64
		length   int
		want     string
	}{
		{20.375, 2.775, 6, "7FG49Q00+"},
		{20.3700625, 2.7821875, 10, "7FG49QCJ+2V"},
		{20.3701125, 2.782234375, 11, "7FG49QCJ+2VX"},
		{47.0000625, 8.0000625, 10, "8FVC2222+22"},
		{-41.2730625, 174.7859375, 10, "4VCPPQGP+Q9"},
		{0.5, -179.5, 4, "62G20000+"},
		{-89.5, -179.5, 4, "22220000+"},
		{20.5, 2.5, 4, "7FG40000+"},
		{-89.9999375, -179.9999375, 10, "22222222+22"},
		{0.5, 179.5, 4, "6VGX0000+"},
		{1, 1, 11, "6FH32222+222"},
		// Latitude clipping at the poles.
		{90, 1, 4, "CFX30000+"},
		{92, 1, 4, "CFX30000+"},
		// Longitude normalization.
		{1, 180, 4, "62H20000+"},
		{1, 181, 4, "62H30000+"},
	}
	for _, c := range cases {
		got, err := Encode(c.lat, c.lng, c.length)
		if err != nil {
			t.Errorf("Encode(%v,%v,%d): %v", c.lat, c.lng, c.length, err)
			continue
		}
		if got != c.want {
			t.Errorf("Encode(%v,%v,%d) = %q, want %q", c.lat, c.lng, c.length, got, c.want)
		}
	}
}

func TestDecodeContainsOriginal(t *testing.T) {
	err := quick.Check(func(latRaw, lngRaw float64) bool {
		lat := math.Mod(math.Abs(latRaw), 180) - 90
		lng := math.Mod(math.Abs(lngRaw), 360) - 180
		if math.IsNaN(lat) || math.IsNaN(lng) || lat >= 89.999 {
			return true
		}
		code, err := Encode(lat, lng, DefaultCodeLength)
		if err != nil {
			return false
		}
		area, err := Decode(code)
		if err != nil {
			return false
		}
		return area.Contains(lat, lng)
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTripCenter(t *testing.T) {
	// Encoding the center of a decoded area must reproduce the code.
	err := quick.Check(func(latRaw, lngRaw float64) bool {
		lat := math.Mod(math.Abs(latRaw), 170) - 85
		lng := math.Mod(math.Abs(lngRaw), 360) - 180
		if math.IsNaN(lat) || math.IsNaN(lng) {
			return true
		}
		code := MustEncode(lat, lng, DefaultCodeLength)
		area, err := Decode(code)
		if err != nil {
			return false
		}
		cLat, cLng := area.Center()
		return MustEncode(cLat, cLng, DefaultCodeLength) == code
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCellSize(t *testing.T) {
	// A 10-digit code designates a ~14 m × 14 m cell (§2.6).
	area, err := Decode("8FPHF8VV+X2")
	if err != nil {
		t.Fatal(err)
	}
	latMeters := (area.LatHi - area.LatLo) * 111_320
	if latMeters < 12 || latMeters > 16 {
		t.Fatalf("10-digit cell height %.1f m, want ≈13.9", latMeters)
	}
}

func TestValidation(t *testing.T) {
	valid := []string{
		"8FWC2345+G6", "8FWC2345+G6G", "8fwc2345+", "8FWCX400+", "8FWC0000+",
		// Valid *short* codes (full=false but syntactically fine).
		"WC2345+G6G", "2345+G6",
	}
	for _, c := range valid {
		if err := Check(c); err != nil {
			t.Errorf("Check(%q) = %v, want nil", c, err)
		}
	}
	invalid := []string{
		"", "8FWC2345+G", "8FWC2_45+G6", "8FWC2η45+G6", "8FWC2345+G6+",
		"8FWC2300+G6", "2300+", "+", "0000+",
	}
	for _, c := range invalid {
		if Check(c) == nil {
			t.Errorf("Check(%q) accepted", c)
		}
	}
}

func TestIsFull(t *testing.T) {
	if err := CheckFull("8FWC2345+G6"); err != nil {
		t.Errorf("full code rejected: %v", err)
	}
	for _, c := range []string{"2345+G6", "WC2345+G6", "X2GG8FWC+"} {
		if CheckFull(c) == nil {
			t.Errorf("CheckFull(%q) accepted", c)
		}
	}
}

func TestEncodeRejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 7, 9, 16} {
		if _, err := Encode(1, 1, n); err == nil {
			t.Errorf("Encode length %d accepted", n)
		}
	}
	for _, n := range []int{2, 4, 6, 8, 10, 11, 15} {
		if _, err := Encode(1, 1, n); err != nil {
			t.Errorf("Encode length %d rejected: %v", n, err)
		}
	}
}

func TestAlphabetExcludesConfusables(t *testing.T) {
	for _, c := range "AILO01" {
		if strings.ContainsRune(Alphabet, c) {
			t.Errorf("alphabet contains confusable %q", c)
		}
	}
	if len(Alphabet) != 20 {
		t.Fatalf("alphabet size %d, want 20", len(Alphabet))
	}
}

func TestGridRefinementMonotonicPrecision(t *testing.T) {
	// Longer codes designate strictly smaller areas containing the point.
	lat, lng := 47.365590, 8.524997
	prev := math.Inf(1)
	for _, n := range []int{10, 11, 12, 13, 14, 15} {
		code := MustEncode(lat, lng, n)
		area, err := Decode(code)
		if err != nil {
			t.Fatalf("Decode(%q): %v", code, err)
		}
		size := (area.LatHi - area.LatLo) * (area.LngHi - area.LngLo)
		if size >= prev {
			t.Fatalf("length %d area %.3g not smaller than previous %.3g", n, size, prev)
		}
		if !area.Contains(lat, lng) {
			t.Fatalf("length-%d area does not contain the point", n)
		}
		prev = size
	}
}
