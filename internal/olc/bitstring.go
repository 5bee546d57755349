package olc

import (
	"fmt"
	"strings"

	"agnopol/internal/polcrypto"
)

// BitString is the result of the paper's dual encoding: the r-bit identifier
// of the hypercube node responsible for an Open Location Code.
type BitString struct {
	Bits []bool
}

// Uint64 packs the bit string into an integer node ID, most significant bit
// first, matching the thesis convention where 1010 → node 10.
func (b BitString) Uint64() uint64 {
	var v uint64
	for _, bit := range b.Bits {
		v <<= 1
		if bit {
			v |= 1
		}
	}
	return v
}

// Segments splits a full code into the zero-padded pieces the dual encoding
// hashes (Fig. 1.3): for "6PH57VP3+PR" it returns
// ["6P00000000" "00H5000000" "00007V0000" "000000P300" "00000000PR"].
// Per the OLC guidelines, zeros act as padding symbols and each segment keeps
// its pair at the pair's original offset.
func Segments(code string) ([]string, error) {
	if err := CheckFull(code); err != nil {
		return nil, err
	}
	digits := stripped(code)
	if len(digits) > PairCodeLength {
		digits = digits[:PairCodeLength]
	}
	segs := make([]string, 0, len(digits)/2)
	for i := 0; i+1 < len(digits); i += 2 {
		seg := strings.Repeat("0", i) + digits[i:i+2] + strings.Repeat("0", PairCodeLength-i-2)
		segs = append(segs, seg)
	}
	return segs, nil
}

// ToBitString applies the dual encoding from the thesis: split the code into
// padded segments, hash each, take the hash modulo r to pick a bit to "turn
// on", and XOR the per-segment bit strings together. The result identifies
// the hypercube node responsible for the area.
func ToBitString(code string, r int) (BitString, error) {
	if r <= 0 || r > 64 {
		return BitString{}, fmt.Errorf("olc: dimension r=%d out of range (1..64)", r)
	}
	segs, err := Segments(code)
	if err != nil {
		return BitString{}, err
	}
	bits := make([]bool, r)
	for _, seg := range segs {
		h := polcrypto.Hash([]byte(seg))
		// Interpret the first 8 bytes as a big-endian integer; modulo r
		// selects which bit this segment turns on (counted from the left).
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(h[i])
		}
		idx := int(v % uint64(r))
		bits[idx] = !bits[idx] // XOR accumulate
	}
	return BitString{Bits: bits}, nil
}
