// Package geo models the physical-world substrate of the proof-of-location
// system: positions, distances and short-range ("Bluetooth") proximity.
//
// The paper assumes mobile devices with GPS (spoofable — a device may *claim*
// any coordinates) and Bluetooth (not spoofable at protocol level — two
// devices can only complete a Bluetooth exchange when they are physically
// within radio range). Device captures both: TruePosition drives proximity,
// ClaimedPosition drives what the device reports, and an honest device keeps
// the two equal.
package geo

import (
	"fmt"
	"math"
)

// LatLng is a WGS84 coordinate pair in degrees.
type LatLng struct {
	Lat float64
	Lng float64
}

func (p LatLng) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lng)
}

const earthRadiusMeters = 6371008.8

// DistanceMeters returns the great-circle (haversine) distance between two
// coordinates in meters.
func DistanceMeters(a, b LatLng) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLng := (b.Lng - a.Lng) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLng/2)*math.Sin(dLng/2)
	return 2 * earthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// BluetoothRangeMeters is the class-2 Bluetooth range the paper's
// witness-proximity argument relies on.
const BluetoothRangeMeters = 10.0

// WithinBluetoothRange reports whether two positions could complete a
// Bluetooth exchange.
func WithinBluetoothRange(a, b LatLng) bool {
	return DistanceMeters(a, b) <= BluetoothRangeMeters
}

// Offset returns the coordinate displaced by the given meters north and east.
// It uses the local-tangent-plane approximation, accurate to well under a
// meter for the few-hundred-meter offsets the simulations use.
func Offset(p LatLng, northMeters, eastMeters float64) LatLng {
	dLat := northMeters / earthRadiusMeters * 180 / math.Pi
	dLng := eastMeters / (earthRadiusMeters * math.Cos(p.Lat*math.Pi/180)) * 180 / math.Pi
	return LatLng{Lat: p.Lat + dLat, Lng: p.Lng + dLng}
}

// Device is a simulated mobile device. TruePosition is where the hardware
// physically is (what Bluetooth proximity sees); ClaimedPosition is what the
// device reports upstream (what a GPS spoofing attacker manipulates).
type Device struct {
	TruePosition    LatLng
	ClaimedPosition LatLng
}

// NewDevice returns an honest device whose claimed position matches reality.
func NewDevice(at LatLng) *Device {
	return &Device{TruePosition: at, ClaimedPosition: at}
}

// MoveTo physically relocates the device; an honest device also updates its
// claim.
func (d *Device) MoveTo(at LatLng) {
	honest := d.TruePosition == d.ClaimedPosition
	d.TruePosition = at
	if honest {
		d.ClaimedPosition = at
	}
}

// CanReach reports whether this device can complete a Bluetooth exchange with
// other, based on true physical positions only.
func (d *Device) CanReach(other *Device) bool {
	return WithinBluetoothRange(d.TruePosition, other.TruePosition)
}
