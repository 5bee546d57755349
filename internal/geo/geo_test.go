package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	bologna := LatLng{Lat: 44.4949, Lng: 11.3426}
	milan := LatLng{Lat: 45.4642, Lng: 9.19}
	got := DistanceMeters(bologna, milan)
	// Great-circle Bologna–Milan is ≈ 201 km.
	if got < 195_000 || got > 210_000 {
		t.Fatalf("Bologna–Milan distance %.0f m, want ≈201 km", got)
	}
	if d := DistanceMeters(bologna, bologna); d != 0 {
		t.Fatalf("self-distance %f, want 0", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	err := quick.Check(func(lat1, lng1, lat2, lng2 float64) bool {
		a := LatLng{Lat: math.Mod(lat1, 90), Lng: math.Mod(lng1, 180)}
		b := LatLng{Lat: math.Mod(lat2, 90), Lng: math.Mod(lng2, 180)}
		d1, d2 := DistanceMeters(a, b), DistanceMeters(b, a)
		return math.Abs(d1-d2) < 1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestOffsetDistance(t *testing.T) {
	p := LatLng{Lat: 44.5, Lng: 11.3}
	q := Offset(p, 30, 40) // 3-4-5 triangle: 50 m
	if d := DistanceMeters(p, q); math.Abs(d-50) > 0.5 {
		t.Fatalf("offset(30,40) distance %.2f m, want ≈50", d)
	}
}

func TestBluetoothRange(t *testing.T) {
	p := LatLng{Lat: 44.5, Lng: 11.3}
	if !WithinBluetoothRange(p, Offset(p, 5, 5)) {
		t.Fatal("7 m apart should be in range")
	}
	if WithinBluetoothRange(p, Offset(p, 10, 10)) {
		t.Fatal("14 m apart should be out of range")
	}
}

func TestMoveToKeepsHonestyInvariant(t *testing.T) {
	a := LatLng{Lat: 44, Lng: 11}
	b := LatLng{Lat: 45, Lng: 12}
	honest := NewDevice(a)
	honest.MoveTo(b)
	if honest.ClaimedPosition != b {
		t.Fatal("honest device should update its claim on move")
	}
	liar := NewDevice(a)
	liar.ClaimedPosition = LatLng{Lat: 50, Lng: 1}
	liar.MoveTo(b)
	if liar.ClaimedPosition == b {
		t.Fatal("spoofing device must keep its fake claim after moving")
	}
}
