// Package u256 implements the fixed-width 256-bit word the virtual
// machines compute on. A Word is four little-endian uint64 limbs held by
// value, so the interpreter hot path never touches the heap: every
// arithmetic, comparison and bit operation works in registers and returns
// a new value. math/big is kept strictly at the boundaries through
// FromBig/ToBig.
//
// Semantics match the EVM's modulo-2^256 unsigned arithmetic, and are
// pinned to the math/big reference by the differential property tests in
// this package and in internal/evm. A Word is also eth's amount type:
// balances, fees and upfront costs use AddOverflow and MulOverflow, which
// report a result past 2^256-1 instead of wrapping it, and AppendBytes,
// the minimal big-endian form big.Int.Bytes produces.
package u256

import (
	"math/big"
	"math/bits"
)

// Word is an unsigned 256-bit integer: little-endian limbs, held by value.
type Word [4]uint64

// Zero and One are handy constants (by value; callers cannot mutate them).
var (
	Zero = Word{}
	One  = Word{1, 0, 0, 0}
)

// FromUint64 builds a Word from a uint64.
func FromUint64(v uint64) Word { return Word{v, 0, 0, 0} }

// FromBool is 1 for true, 0 for false — the EVM's boolean word.
func FromBool(b bool) Word {
	if b {
		return One
	}
	return Zero
}

// SetBytes interprets b as a big-endian unsigned integer reduced modulo
// 2^256 (inputs longer than 32 bytes keep their low 32 bytes, exactly like
// big.Int.SetBytes followed by Mod 2^256).
func SetBytes(b []byte) Word {
	if len(b) > 32 {
		b = b[len(b)-32:]
	}
	var z Word
	for i := 0; i < len(b); i++ {
		// b[len(b)-1] is the least significant byte.
		pos := len(b) - 1 - i
		z[i/8] |= uint64(b[pos]) << (8 * (i % 8))
	}
	return z
}

// AppendBytes appends the minimal big-endian form of x to dst: what
// big.Int.Bytes returns, so zero appends nothing.
func (x Word) AppendBytes(dst []byte) []byte {
	b := x.Bytes32()
	return append(dst, b[32-x.ByteLen():]...)
}

// Bytes32 renders the word as a 32-byte big-endian array.
func (x Word) Bytes32() [32]byte {
	var out [32]byte
	x.PutBytes32(out[:])
	return out
}

// PutBytes32 writes the 32-byte big-endian form into dst (len(dst) ≥ 32).
func (x Word) PutBytes32(dst []byte) {
	for i := 0; i < 4; i++ {
		limb := x[3-i]
		dst[i*8+0] = byte(limb >> 56)
		dst[i*8+1] = byte(limb >> 48)
		dst[i*8+2] = byte(limb >> 40)
		dst[i*8+3] = byte(limb >> 32)
		dst[i*8+4] = byte(limb >> 24)
		dst[i*8+5] = byte(limb >> 16)
		dst[i*8+6] = byte(limb >> 8)
		dst[i*8+7] = byte(limb)
	}
}

// FromBig reduces v modulo 2^256 (big.Int.Mod semantics: the result of a
// negative input is the non-negative representative). It is a boundary
// conversion — the fast path never calls it per opcode.
func FromBig(v *big.Int) Word {
	if v == nil {
		return Word{}
	}
	if v.Sign() >= 0 && v.BitLen() <= 256 {
		var buf [32]byte
		v.FillBytes(buf[:])
		return SetBytes(buf[:])
	}
	// Out-of-range or negative input: big.Int.Mod(v, 2^256) gives the
	// non-negative representative.
	m := new(big.Int).Mod(v, twoPow256)
	var buf [32]byte
	m.FillBytes(buf[:])
	return SetBytes(buf[:])
}

var twoPow256 = new(big.Int).Lsh(big.NewInt(1), 256)

// ToBig allocates the math/big form — boundary use only.
func (x Word) ToBig() *big.Int {
	b := x.Bytes32()
	return new(big.Int).SetBytes(b[:])
}

// Uint64 is the low limb — the EVM's semantics for offsets, jump targets
// and sizes (big.Int.Uint64 likewise truncates to the low 64 bits).
func (x Word) Uint64() uint64 { return x[0] }

// IsUint64 reports whether the value fits in 64 bits.
func (x Word) IsUint64() bool { return x[1]|x[2]|x[3] == 0 }

// IsZero reports x == 0.
func (x Word) IsZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// Lt reports x < y.
func (x Word) Lt(y Word) bool {
	_, borrow := sub(x, y)
	return borrow != 0
}

// Gt reports x > y.
func (x Word) Gt(y Word) bool { return y.Lt(x) }

// BitLen is the minimal number of bits to represent x.
func (x Word) BitLen() int {
	for i := 3; i >= 0; i-- {
		if x[i] != 0 {
			return i*64 + bits.Len64(x[i])
		}
	}
	return 0
}

// ByteLen is the minimal number of bytes to represent x: the length of
// AppendBytes' form.
func (x Word) ByteLen() int { return (x.BitLen() + 7) / 8 }

// Bit reports bit i (0 = least significant).
func (x Word) Bit(i int) bool {
	if i < 0 || i > 255 {
		return false
	}
	return x[i/64]>>(uint(i)%64)&1 == 1
}

func add(x, y Word) (Word, uint64) {
	var z Word
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	return z, c
}

func sub(x, y Word) (Word, uint64) {
	var z Word
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	return z, b
}

// Add is x + y mod 2^256.
func (x Word) Add(y Word) Word { z, _ := add(x, y); return z }

// Sub is x - y mod 2^256.
func (x Word) Sub(y Word) Word { z, _ := sub(x, y); return z }

// AddOverflow is x + y mod 2^256 and whether the sum reached 2^256.
func (x Word) AddOverflow(y Word) (Word, bool) { z, c := add(x, y); return z, c != 0 }

// Mul is x · y mod 2^256.
func (x Word) Mul(y Word) Word { p := mul(x, y); return Word{p[0], p[1], p[2], p[3]} }

// MulOverflow is x · y mod 2^256 and whether the product reached 2^256.
func (x Word) MulOverflow(y Word) (Word, bool) {
	p := mul(x, y)
	return Word{p[0], p[1], p[2], p[3]}, p[4]|p[5]|p[6]|p[7] != 0
}

// mul is the full 512-bit product x · y, schoolbook over 64-bit limbs.
func mul(x, y Word) (p [8]uint64) {
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			lo, c = bits.Add64(lo, carry, 0)
			hi += c // hi ≤ 2^64-2, cannot overflow
			p[i+j], c = bits.Add64(p[i+j], lo, 0)
			carry = hi + c
		}
		p[i+4] += carry
	}
	return p
}

// DivMod returns (x/y, x%y); both are zero when y is zero, the EVM's DIV
// and MOD convention. Single-limb divisors take the bits.Div64 long
// division; the rare multi-limb case runs binary shift-subtract, whose
// correctness is pinned by the big.Int differential tests.
func (x Word) DivMod(y Word) (q, r Word) {
	if y.IsZero() {
		return Word{}, Word{}
	}
	if x.Lt(y) {
		return Word{}, x
	}
	if y.IsUint64() {
		d := y[0]
		var rem uint64
		for i := 3; i >= 0; i-- {
			q[i], rem = bits.Div64(rem, x[i], d)
		}
		r[0] = rem
		return q, r
	}
	// Binary long division: r accumulates x's bits from the top; whenever
	// the 257-bit value (carry·2^256 + r) reaches y, subtract and set the
	// quotient bit. Wrapping Sub is exact even with the carry set, because
	// r' = carry·2^256 + r < 2y ≤ 2^257 and r' - y < y ≤ 2^256.
	for i := x.BitLen() - 1; i >= 0; i-- {
		carry := r[3] >> 63
		r = r.shl1()
		if x.Bit(i) {
			r[0] |= 1
		}
		if carry == 1 || !r.Lt(y) {
			r = r.Sub(y)
			q[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return q, r
}

// Div is x / y, zero when y is zero.
func (x Word) Div(y Word) Word { q, _ := x.DivMod(y); return q }

// Mod is x % y, zero when y is zero.
func (x Word) Mod(y Word) Word { _, r := x.DivMod(y); return r }

// And is x & y.
func (x Word) And(y Word) Word {
	return Word{x[0] & y[0], x[1] & y[1], x[2] & y[2], x[3] & y[3]}
}

// Or is x | y.
func (x Word) Or(y Word) Word {
	return Word{x[0] | y[0], x[1] | y[1], x[2] | y[2], x[3] | y[3]}
}

// Not is ^x (equivalently 2^256 - 1 - x).
func (x Word) Not() Word {
	return Word{^x[0], ^x[1], ^x[2], ^x[3]}
}

func (x Word) shl1() Word {
	return Word{
		x[0] << 1,
		x[1]<<1 | x[0]>>63,
		x[2]<<1 | x[1]>>63,
		x[3]<<1 | x[2]>>63,
	}
}

// Lsh is x << n; n ≥ 256 yields zero.
func (x Word) Lsh(n uint) Word {
	if n >= 256 {
		return Word{}
	}
	limbs, rem := n/64, n%64
	var z Word
	for i := 3; i >= int(limbs); i-- {
		z[i] = x[i-int(limbs)] << rem
		if rem > 0 && i-int(limbs)-1 >= 0 {
			z[i] |= x[i-int(limbs)-1] >> (64 - rem)
		}
	}
	return z
}

// Rsh is x >> n; n ≥ 256 yields zero.
func (x Word) Rsh(n uint) Word {
	if n >= 256 {
		return Word{}
	}
	limbs, rem := n/64, n%64
	var z Word
	for i := 0; i+int(limbs) < 4; i++ {
		z[i] = x[i+int(limbs)] >> rem
		if rem > 0 && i+int(limbs)+1 < 4 {
			z[i] |= x[i+int(limbs)+1] << (64 - rem)
		}
	}
	return z
}

// String renders the word in decimal (debug/boundary use; allocates).
func (x Word) String() string { return x.ToBig().String() }
