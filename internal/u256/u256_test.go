package u256

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

// randWord draws structured random operands: uniform bytes, small values,
// and boundary patterns — the mix division and shifting care about.
func randWord(rng *rand.Rand) Word {
	switch rng.Intn(5) {
	case 0:
		return FromUint64(rng.Uint64() % 1024) // small
	case 1:
		return FromUint64(rng.Uint64())
	case 2: // all-ones suffix: 2^k - 1
		return maxWord().Rsh(uint(rng.Intn(256)))
	case 3: // single bit
		return One.Lsh(uint(rng.Intn(256)))
	default:
		return Word{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
}

func maxWord() Word { return Word{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)} }

func TestWrapAroundAt256Bits(t *testing.T) {
	max := maxWord()
	if got := max.Add(One); !got.IsZero() {
		t.Fatalf("max+1 = %s, want 0", got)
	}
	if got := Zero.Sub(One); got != max {
		t.Fatalf("0-1 = %s, want 2^256-1", got)
	}
	// (2^255)·2 wraps to zero; (2^128)² wraps to zero.
	if got := One.Lsh(255).Mul(FromUint64(2)); !got.IsZero() {
		t.Fatalf("2^255·2 = %s, want 0", got)
	}
	half := One.Lsh(128)
	if got := half.Mul(half); !got.IsZero() {
		t.Fatalf("2^128² = %s, want 0", got)
	}
	// max·max mod 2^256 == 1.
	if got := max.Mul(max); got != One {
		t.Fatalf("max·max = %s, want 1", got)
	}
}

func TestDivModByZero(t *testing.T) {
	x := FromUint64(12345)
	if q := x.Div(Zero); !q.IsZero() {
		t.Fatalf("x/0 = %s, want 0", q)
	}
	if r := x.Mod(Zero); !r.IsZero() {
		t.Fatalf("x%%0 = %s, want 0", r)
	}
	q, r := maxWord().DivMod(Zero)
	if !q.IsZero() || !r.IsZero() {
		t.Fatalf("max divmod 0 = %s,%s", q, r)
	}
}

func TestSetBytesLengths(t *testing.T) {
	// Short input.
	if got := SetBytes([]byte{0x01, 0x02}); got != FromUint64(0x0102) {
		t.Fatalf("SetBytes short = %s", got)
	}
	// Empty and nil.
	if got := SetBytes(nil); !got.IsZero() {
		t.Fatalf("SetBytes(nil) = %s", got)
	}
	if got := SetBytes([]byte{}); !got.IsZero() {
		t.Fatalf("SetBytes(empty) = %s", got)
	}
	// Exactly 32 bytes round-trips.
	var b32 [32]byte
	for i := range b32 {
		b32[i] = byte(i + 1)
	}
	w := SetBytes(b32[:])
	if w.Bytes32() != b32 {
		t.Fatalf("32-byte round trip failed: %x", w.Bytes32())
	}
	// Longer than 32 bytes: low 32 bytes win (mod 2^256).
	long := append([]byte{0xde, 0xad}, b32[:]...)
	if got := SetBytes(long); got != w {
		t.Fatalf("SetBytes long = %s, want %s", got, w)
	}
}

func TestFromBigNegativeAndOverflow(t *testing.T) {
	// Negative: mod-2^256 representative.
	neg := big.NewInt(-1)
	if got := FromBig(neg); got != maxWord() {
		t.Fatalf("FromBig(-1) = %s, want 2^256-1", got)
	}
	// Over-range: reduced.
	over := new(big.Int).Add(two256, big.NewInt(5))
	if got := FromBig(over); got != FromUint64(5) {
		t.Fatalf("FromBig(2^256+5) = %s, want 5", got)
	}
	if got := FromBig(nil); !got.IsZero() {
		t.Fatalf("FromBig(nil) = %s", got)
	}
}

func TestShiftEdges(t *testing.T) {
	w := maxWord()
	if !w.Lsh(256).IsZero() || !w.Rsh(256).IsZero() {
		t.Fatal("shift by 256 must be zero")
	}
	if w.Lsh(0) != w || w.Rsh(0) != w {
		t.Fatal("shift by 0 must be identity")
	}
	if got := One.Lsh(64); got != (Word{0, 1, 0, 0}) {
		t.Fatalf("1<<64 = %v", got)
	}
	if got := (Word{0, 0, 0, 1}).Rsh(192); got != One {
		t.Fatalf("2^192>>192 = %v", got)
	}
}

// TestBigEquivalenceProperty pins every operation to math/big on random
// structured inputs — the executable spec of the package.
func TestBigEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mod := func(v *big.Int) *big.Int { return new(big.Int).Mod(v, two256) }
	for i := 0; i < 3000; i++ {
		x, y := randWord(rng), randWord(rng)
		bx, by := x.ToBig(), y.ToBig()

		check := func(op string, got Word, want *big.Int) {
			t.Helper()
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("iter %d: %s(%s, %s) = %s, want %s", i, op, bx, by, got, want)
			}
		}
		check("add", x.Add(y), mod(new(big.Int).Add(bx, by)))
		check("sub", x.Sub(y), mod(new(big.Int).Sub(bx, by)))
		check("mul", x.Mul(y), mod(new(big.Int).Mul(bx, by)))
		checkedOp := func(op string, got Word, overflow bool, want *big.Int) {
			t.Helper()
			check(op, got, mod(want))
			if overflow != (want.Cmp(two256) >= 0) {
				t.Fatalf("iter %d: %s(%s, %s) overflow = %v, true value %s", i, op, bx, by, overflow, want)
			}
		}
		sum, over := x.AddOverflow(y)
		checkedOp("addOverflow", sum, over, new(big.Int).Add(bx, by))
		prod, over := x.MulOverflow(y)
		checkedOp("mulOverflow", prod, over, new(big.Int).Mul(bx, by))
		if !y.IsZero() {
			check("div", x.Div(y), new(big.Int).Div(bx, by))
			check("mod", x.Mod(y), new(big.Int).Mod(bx, by))
		}
		check("and", x.And(y), new(big.Int).And(bx, by))
		check("or", x.Or(y), new(big.Int).Or(bx, by))
		check("not", x.Not(), new(big.Int).Sub(new(big.Int).Sub(two256, big.NewInt(1)), bx))

		sh := uint(rng.Intn(300))
		if sh >= 256 {
			if !x.Lsh(sh).IsZero() || !x.Rsh(sh).IsZero() {
				t.Fatalf("iter %d: shift %d must zero", i, sh)
			}
		} else {
			check("lsh", x.Lsh(sh), mod(new(big.Int).Lsh(bx, sh)))
			check("rsh", x.Rsh(sh), new(big.Int).Rsh(bx, sh))
		}

		// Comparisons.
		if x.Lt(y) != (bx.Cmp(by) < 0) || x.Gt(y) != (bx.Cmp(by) > 0) {
			t.Fatalf("iter %d: lt/gt mismatch", i)
		}
		if x.IsZero() != (bx.Sign() == 0) {
			t.Fatalf("iter %d: IsZero mismatch", i)
		}
		if x.BitLen() != bx.BitLen() {
			t.Fatalf("iter %d: BitLen = %d, want %d", i, x.BitLen(), bx.BitLen())
		}

		// Round trips.
		if FromBig(bx) != x {
			t.Fatalf("iter %d: FromBig(ToBig) not identity", i)
		}
		b := x.Bytes32()
		if SetBytes(b[:]) != x {
			t.Fatalf("iter %d: SetBytes(Bytes32) not identity", i)
		}
		if got := x.AppendBytes([]byte{0xee}); !bytes.Equal(got, append([]byte{0xee}, bx.Bytes()...)) {
			t.Fatalf("iter %d: AppendBytes = %x, want ee||%x", i, got, bx.Bytes())
		}
	}
}

// TestDivModMultiLimb targets the binary long-division path with divisors
// wider than one limb.
func TestDivModMultiLimb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		x := Word{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		y := Word{rng.Uint64(), rng.Uint64(), 0, 0}
		switch rng.Intn(3) {
		case 0:
			y[2] = rng.Uint64()
		case 1:
			y[2], y[3] = rng.Uint64(), rng.Uint64()
		}
		if y.IsUint64() {
			y[1] = 1 // force the multi-limb path
		}
		q, r := x.DivMod(y)
		bq, br := new(big.Int).DivMod(x.ToBig(), y.ToBig(), new(big.Int))
		if q.ToBig().Cmp(bq) != 0 || r.ToBig().Cmp(br) != 0 {
			t.Fatalf("iter %d: %s divmod %s = (%s, %s), want (%s, %s)", i, x, y, q, r, bq, br)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := maxWord(), FromUint64(12345)
	var acc Word
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc = acc.Add(x).Add(y)
	}
	sink = acc
}

func BenchmarkMul(b *testing.B) {
	x := Word{0x1234567890abcdef, 0xfedcba0987654321, 1, 2}
	acc := One
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc = acc.Mul(x)
	}
	sink = acc
}

func BenchmarkDivSingleLimb(b *testing.B) {
	x := maxWord()
	y := FromUint64(12347)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = x.Div(y)
	}
}

func BenchmarkDivMultiLimb(b *testing.B) {
	x := maxWord()
	y := Word{1, 2, 3, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = x.Div(y)
	}
}

var sink Word
