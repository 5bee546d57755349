package chain

import (
	"encoding/binary"
	"math"

	"agnopol/internal/polcrypto"
)

// Rand is a small deterministic PRNG (SplitMix64) used everywhere the
// simulators need randomness. It also implements io.Reader so it can feed
// ed25519 key generation, making whole experiments reproducible from a
// single seed.
type Rand struct {
	state uint64
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent generator labelled by name, so subsystems
// seeded from one experiment seed do not share streams.
func (r *Rand) Fork(name string) *Rand {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], r.Uint64())
	h := polcrypto.Hash(buf[:], []byte(name))
	return &Rand{state: binary.BigEndian.Uint64(h[:8])}
}

// State exposes the generator's internal state so a checkpoint can
// capture the stream position; SetState restores it. A restored
// generator continues the exact sequence the captured one would have
// produced.
func (r *Rand) State() uint64 { return r.state }

// SetState repositions the generator. See State.
func (r *Rand) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform uint64 in [0, n).
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("chain.Rand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(uint64(1)<<53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Read fills p with random bytes, implementing io.Reader for key
// generation.
func (r *Rand) Read(p []byte) (int, error) {
	for i := 0; i < len(p); i += 8 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], r.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}
