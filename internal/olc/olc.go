// Package olc implements Google's Open Location Code ("plus codes") —
// encode, decode and validation — together with the paper's dual encoding
// that maps an OLC to the r-bit identifier of the hypercube node responsible
// for that area (Fig. 1.3 of the thesis; Zichichi et al., IET Networks 2022).
package olc

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Alphabet is the 20-character OLC digit set. It deliberately omits vowels
// and easily-confused characters.
const Alphabet = "23456789CFGHJMPQRVWX"

const (
	// Separator splits the code after the 8th digit.
	Separator = '+'
	// SeparatorPosition is the number of digits before the separator in a
	// full code.
	SeparatorPosition = 8
	// Padding fills shortened codes up to the separator.
	Padding = '0'
	// PairCodeLength is the number of digits encoded as lat/lng pairs.
	PairCodeLength = 10
	// MaxDigitCount is the longest supported code.
	MaxDigitCount = 15
	// DefaultCodeLength is the 10-digit default the paper uses (≈14 m area).
	DefaultCodeLength = 10

	encodingBase = 20
	gridColumns  = 4
	gridRows     = 5
	latMax       = 90
	lngMax       = 180

	// Integer precision of the final (15th) digit, per the reference
	// implementation: pairs give 1/8000 degree, grid refinement divides
	// latitude by 5^5 and longitude by 4^5 on top of that.
	finalLatPrecision = 8000 * 3125 // 25_000_000 per degree
	finalLngPrecision = 8000 * 1024 // 8_192_000 per degree
	gridCodeLength    = MaxDigitCount - PairCodeLength
)

var digitValue = func() map[byte]int {
	m := make(map[byte]int, len(Alphabet))
	for i := 0; i < len(Alphabet); i++ {
		m[Alphabet[i]] = i
	}
	return m
}()

// CodeArea is the rectangle a decoded code designates.
type CodeArea struct {
	LatLo, LngLo, LatHi, LngHi float64
	CodeLength                 int
}

// Center returns the midpoint of the area, the canonical coordinate for a
// code.
func (a CodeArea) Center() (lat, lng float64) {
	return math.Min((a.LatLo+a.LatHi)/2, latMax),
		math.Min((a.LngLo+a.LngHi)/2, lngMax)
}

// Contains reports whether the coordinate lies inside the area.
func (a CodeArea) Contains(lat, lng float64) bool {
	return lat >= a.LatLo && lat < a.LatHi && lng >= a.LngLo && lng < a.LngHi
}

var (
	// ErrInvalidCode reports a malformed code string.
	ErrInvalidCode = errors.New("olc: invalid code")
	// ErrNotFull reports a short (padded or separator-less) code where a
	// full code was required.
	ErrNotFull = errors.New("olc: not a full code")
	// ErrBadLength reports an unsupported requested code length.
	ErrBadLength = errors.New("olc: invalid code length")
)

// Encode converts a coordinate to an Open Location Code of codeLen digits.
// codeLen must be at least 2, even if below the pair length 10, and at most
// 15. Latitude is clipped to [-90,90]; longitude is normalized to
// [-180,180).
func Encode(lat, lng float64, codeLen int) (string, error) {
	if codeLen < 2 || (codeLen < PairCodeLength && codeLen%2 == 1) || codeLen > MaxDigitCount {
		return "", fmt.Errorf("%w: %d", ErrBadLength, codeLen)
	}
	lat = clipLatitude(lat)
	lng = normalizeLongitude(lng)
	// The area of a code excludes its upper latitude bound; nudge the pole
	// down so 90°N encodes to a valid area.
	if lat == latMax {
		lat -= precisionByLength(codeLen)
	}

	// Work in integer units of the finest supported precision to avoid
	// floating-point drift, mirroring the reference implementation.
	latVal := int64(math.Round((lat + latMax) * finalLatPrecision))
	lngVal := int64(math.Round((lng + lngMax) * finalLngPrecision))
	if latVal < 0 {
		latVal = 0
	}
	if maxLat := int64(2*latMax*finalLatPrecision) - 1; latVal > maxLat {
		latVal = maxLat
	}

	var buf [MaxDigitCount]byte
	if codeLen > PairCodeLength {
		for i := 0; i < gridCodeLength; i++ {
			latDigit := latVal % gridRows
			lngDigit := lngVal % gridColumns
			buf[MaxDigitCount-1-i] = Alphabet[latDigit*gridColumns+lngDigit]
			latVal /= gridRows
			lngVal /= gridColumns
		}
	} else {
		latVal /= 3125 // 5^gridCodeLength
		lngVal /= 1024 // 4^gridCodeLength
	}
	for i := 0; i < PairCodeLength/2; i++ {
		buf[PairCodeLength-1-2*i] = Alphabet[lngVal%encodingBase]
		buf[PairCodeLength-2-2*i] = Alphabet[latVal%encodingBase]
		latVal /= encodingBase
		lngVal /= encodingBase
	}

	var sb strings.Builder
	if codeLen < SeparatorPosition {
		sb.Write(buf[:codeLen])
		for i := codeLen; i < SeparatorPosition; i++ {
			sb.WriteByte(Padding)
		}
		sb.WriteByte(Separator)
		return sb.String(), nil
	}
	sb.Write(buf[:SeparatorPosition])
	sb.WriteByte(Separator)
	sb.Write(buf[SeparatorPosition:codeLen])
	return sb.String(), nil
}

// MustEncode is Encode that panics on invalid input; for literals in tests
// and simulations.
func MustEncode(lat, lng float64, codeLen int) string {
	code, err := Encode(lat, lng, codeLen)
	if err != nil {
		panic(err)
	}
	return code
}

// Decode converts a full code back to the area it designates.
func Decode(code string) (CodeArea, error) {
	if err := CheckFull(code); err != nil {
		return CodeArea{}, err
	}
	digits := stripped(code)
	if len(digits) > MaxDigitCount {
		digits = digits[:MaxDigitCount]
	}

	// Accumulate digits in integer units of the finest precision, keeping
	// latitude and longitude in their distinct denominators
	// (finalLatPrecision vs finalLngPrecision).
	latUnits := int64(-latMax * finalLatPrecision)
	lngUnits := int64(-lngMax * finalLngPrecision)

	pairDigits := len(digits)
	if pairDigits > PairCodeLength {
		pairDigits = PairCodeLength
	}
	latStep := int64(finalLatPrecision) * encodingBase * encodingBase // first pair digit = 20°
	lngStep := int64(finalLngPrecision) * encodingBase * encodingBase
	for i := 0; i < pairDigits; i += 2 {
		latStep /= encodingBase
		lngStep /= encodingBase
		latUnits += int64(digitValue[digits[i]]) * latStep
		lngUnits += int64(digitValue[digits[i+1]]) * lngStep
	}
	if len(digits) > PairCodeLength {
		// After 10 pair digits the cell is 3125×1024 final-precision units;
		// each grid digit refines it by a 5×4 subdivision.
		latStep = 3125
		lngStep = 1024
		for i := PairCodeLength; i < len(digits); i++ {
			latStep /= gridRows
			lngStep /= gridColumns
			d := digitValue[digits[i]]
			latUnits += int64(d/gridColumns) * latStep
			lngUnits += int64(d%gridColumns) * lngStep
		}
	}

	latLo := float64(latUnits) / finalLatPrecision
	lngLo := float64(lngUnits) / finalLngPrecision
	latHi := float64(latUnits+latStep) / finalLatPrecision
	lngHi := float64(lngUnits+lngStep) / finalLngPrecision
	return CodeArea{
		LatLo: latLo, LngLo: lngLo, LatHi: latHi, LngHi: lngHi,
		CodeLength: len(digits),
	}, nil
}

// Check validates the syntax of a full or short code.
func Check(code string) error {
	if code == "" {
		return fmt.Errorf("%w: empty", ErrInvalidCode)
	}
	sep := strings.IndexByte(code, Separator)
	if sep == -1 {
		return fmt.Errorf("%w: missing separator", ErrInvalidCode)
	}
	if sep != strings.LastIndexByte(code, Separator) {
		return fmt.Errorf("%w: multiple separators", ErrInvalidCode)
	}
	if sep > SeparatorPosition || sep%2 == 1 {
		return fmt.Errorf("%w: separator at position %d", ErrInvalidCode, sep)
	}
	if len(code) == sep+2 {
		return fmt.Errorf("%w: single digit after separator", ErrInvalidCode)
	}
	padStart := strings.IndexByte(code, Padding)
	if padStart != -1 {
		if sep < SeparatorPosition {
			return fmt.Errorf("%w: short code with padding", ErrInvalidCode)
		}
		if padStart == 0 {
			return fmt.Errorf("%w: padded from start", ErrInvalidCode)
		}
		pads := code[padStart:sep]
		if strings.Count(pads, string(Padding)) != len(pads) || len(pads)%2 == 1 {
			return fmt.Errorf("%w: malformed padding", ErrInvalidCode)
		}
		if sep != len(code)-1 {
			return fmt.Errorf("%w: digits after padded separator", ErrInvalidCode)
		}
	}
	digits := 0
	for i := 0; i < len(code); i++ {
		c := upperByte(code[i])
		if c == Separator || c == Padding {
			continue
		}
		if _, ok := digitValue[c]; !ok {
			return fmt.Errorf("%w: character %q", ErrInvalidCode, code[i])
		}
		digits++
	}
	if digits == 0 {
		return fmt.Errorf("%w: no digits", ErrInvalidCode)
	}
	return nil
}

// CheckFull validates that code is a full (non-short) code with in-range
// first digits.
func CheckFull(code string) error {
	if err := Check(code); err != nil {
		return err
	}
	if strings.IndexByte(code, Separator) != SeparatorPosition {
		return ErrNotFull
	}
	if digitValue[upperByte(code[0])] >= latMax*2/encodingBase {
		return fmt.Errorf("%w: latitude out of range", ErrInvalidCode)
	}
	if len(code) > 1 && digitValue[upperByte(code[1])] >= lngMax*2/encodingBase {
		return fmt.Errorf("%w: longitude out of range", ErrInvalidCode)
	}
	return nil
}

// stripped returns the upper-cased digits of the code without separator and
// padding.
func stripped(code string) string {
	var sb strings.Builder
	for i := 0; i < len(code); i++ {
		c := upperByte(code[i])
		if c == Separator || c == Padding {
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

func upperByte(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

func clipLatitude(lat float64) float64 {
	return math.Min(latMax, math.Max(-latMax, lat))
}

func normalizeLongitude(lng float64) float64 {
	for lng < -lngMax {
		lng += 2 * lngMax
	}
	for lng >= lngMax {
		lng -= 2 * lngMax
	}
	return lng
}

// precisionByLength returns the latitude height in degrees of a code of the
// given digit count.
func precisionByLength(codeLen int) float64 {
	if codeLen <= PairCodeLength {
		return math.Pow(encodingBase, math.Floor(float64(codeLen)/-2+2))
	}
	return math.Pow(encodingBase, -3) / math.Pow(gridRows, float64(codeLen-PairCodeLength))
}
