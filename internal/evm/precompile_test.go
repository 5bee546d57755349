package evm

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/precompile"
)

// Precompile interception tests (DESIGN.md §14): hand-assembled CALLs to the
// reserved addresses, every program run under both the u256 engine and the
// big.Int reference engine with resultsEqual (return data, logs, revert
// status AND gas — the engines must charge identically on the intercepted
// path).

// emitWrite stores data into memory at off (32-byte-aligned chunk writes;
// callers lay ranges out with a word of slack so the right-padding of the
// final chunk cannot clobber a neighbour).
func emitWrite(a *Assembler, off uint64, data []byte) {
	for i := 0; i < len(data); i += 32 {
		var chunk [32]byte
		copy(chunk[:], data[i:])
		a.PushBytes(chunk[:])
		a.PushUint(off + uint64(i))
		a.Op(MSTORE)
	}
}

// emitDescriptor writes k (offset, length) pairs at descOff.
func emitDescriptor(a *Assembler, descOff uint64, ranges [][2]uint64) {
	for i, r := range ranges {
		a.PushUint(r[0]).PushUint(descOff + uint64(i)*64).Op(MSTORE)
		a.PushUint(r[1]).PushUint(descOff + uint64(i)*64 + 32).Op(MSTORE)
	}
}

// emitCall CALLs precompile id with the descriptor at [descOff, descOff+
// 64·pairs) and a 32-byte output region at outOff, leaving the CALL's 1/0
// result on the stack.
func emitCall(a *Assembler, id byte, descOff uint64, pairs int, outOff uint64, value uint64) {
	a.PushUint(32).PushUint(outOff)
	a.PushUint(uint64(64 * pairs)).PushUint(descOff)
	a.PushUint(value)
	a.PushUint(uint64(id))
	a.PushUint(0) // gas operand is ignored on the intercepted path
	a.Op(CALL)
}

// runBoth executes code under both engines on fresh state and checks they
// agree bit-for-bit before returning the fast engine's result.
func runBoth(t *testing.T, code []byte, gasLimit uint64) Result {
	t.Helper()
	self := chain.AddressFromBytes([]byte("precompile-test"))
	mk := func() Context {
		return Context{
			State: NewMemState(), Address: self, Value: new(big.Int),
			GasLimit: gasLimit, BlockNumber: 1, Timestamp: 1,
		}
	}
	fast := Execute(mk(), code)
	ref := executeRef(mk(), code)
	if !resultsEqual(fast, ref) {
		t.Fatalf("engines disagree on precompile path:\nfast: %+v\nref:  %+v", fast, ref)
	}
	return fast
}

// returnOut appends RETURN of the 32-byte word at outOff (consuming the CALL
// result flag via the success check: revert when the CALL pushed 0).
func returnOut(a *Assembler, outOff uint64) {
	a.PushLabel("ok").Op(JUMPI)
	a.PushUint(0).PushUint(0).Op(REVERT)
	a.Label("ok").Op(JUMPDEST)
	a.PushUint(32).PushUint(outOff).Op(RETURN)
}

func TestPrecompileSha256Call(t *testing.T) {
	payload := []byte("proof-of-location")
	a := NewAssembler()
	emitWrite(a, 0x200, payload)
	emitDescriptor(a, 0x00, [][2]uint64{{0x200, uint64(len(payload))}})
	emitCall(a, precompile.IDSha256, 0x00, 1, 0x180, 0)
	returnOut(a, 0x180)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, code, 200_000)
	if res.Err != nil || res.Reverted {
		t.Fatalf("call failed: %+v", res)
	}
	want := sha256.Sum256(payload)
	if !bytes.Equal(res.ReturnData, want[:]) {
		t.Fatalf("digest = %x, want %x", res.ReturnData, want)
	}
}

func TestPrecompileMultiRangeFusion(t *testing.T) {
	// Three ranges hashed in one call must equal the digest of the
	// concatenation — the property the compiler's digest-over-concat fusion
	// relies on.
	parts := [][]byte{[]byte("loc:8FQFCXGV+XX"), []byte("nonce-1234"), []byte("bafybei-cid")}
	a := NewAssembler()
	var ranges [][2]uint64
	base := uint64(0x300)
	var concat []byte
	for _, p := range parts {
		emitWrite(a, base, p)
		ranges = append(ranges, [2]uint64{base, uint64(len(p))})
		concat = append(concat, p...)
		base += 0x60
	}
	emitDescriptor(a, 0x00, ranges)
	emitCall(a, precompile.IDSha256, 0x00, len(ranges), 0x180, 0)
	returnOut(a, 0x180)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, code, 200_000)
	if res.Err != nil || res.Reverted {
		t.Fatalf("call failed: %+v", res)
	}
	want := sha256.Sum256(concat)
	if !bytes.Equal(res.ReturnData, want[:]) {
		t.Fatalf("fused digest = %x, want %x", res.ReturnData, want)
	}
}

func TestPrecompileComparisons(t *testing.T) {
	cases := []struct {
		name string
		id   byte
		a, b string
		want byte
	}{
		{"bytes-equal-yes", precompile.IDBytesEqual, "same-bytes", "same-bytes", 1},
		{"bytes-equal-no", precompile.IDBytesEqual, "same-bytes", "other-bytes", 0},
		{"contains-yes", precompile.IDOLCContains, "8FQFCX", "8FQFCXGV+XX", 1},
		{"contains-no", precompile.IDOLCContains, "8FQFCX", "9FQFCXGV+XX", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewAssembler()
			emitWrite(a, 0x200, []byte(c.a))
			emitWrite(a, 0x280, []byte(c.b))
			emitDescriptor(a, 0x00, [][2]uint64{
				{0x200, uint64(len(c.a))}, {0x280, uint64(len(c.b))},
			})
			emitCall(a, c.id, 0x00, 2, 0x180, 0)
			returnOut(a, 0x180)
			code, err := a.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			res := runBoth(t, code, 200_000)
			if res.Err != nil || res.Reverted {
				t.Fatalf("call failed: %+v", res)
			}
			if len(res.ReturnData) != 32 || res.ReturnData[31] != c.want {
				t.Fatalf("result = %x, want low byte %d", res.ReturnData, c.want)
			}
		})
	}
}

func TestPrecompileEd25519Call(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := sha256.Sum256([]byte("signed check-in"))
	sig := ed25519.Sign(priv, msg[:])

	build := func(sig []byte) []byte {
		a := NewAssembler()
		emitWrite(a, 0x200, pub)
		emitWrite(a, 0x240, msg[:])
		emitWrite(a, 0x280, sig)
		emitDescriptor(a, 0x00, [][2]uint64{
			{0x200, uint64(len(pub))}, {0x240, 32}, {0x280, uint64(len(sig))},
		})
		emitCall(a, precompile.IDEd25519Verify, 0x00, 3, 0x180, 0)
		returnOut(a, 0x180)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return code
	}

	res := runBoth(t, build(sig), 200_000)
	if res.Err != nil || res.Reverted || res.ReturnData[31] != 1 {
		t.Fatalf("valid signature rejected: %+v", res)
	}
	bad := append([]byte(nil), sig...)
	bad[0] ^= 1
	res = runBoth(t, build(bad), 200_000)
	if res.Err != nil || res.Reverted || res.ReturnData[31] != 0 {
		t.Fatalf("corrupted signature accepted: %+v", res)
	}
}

// TestPrecompileMalformedDescriptors: every malformed CALL pushes 0 (the
// revert path in returnOut) while keeping the gas charged so far; both
// engines must agree.
func TestPrecompileMalformedDescriptors(t *testing.T) {
	cases := []struct {
		name  string
		build func(a *Assembler)
	}{
		{"nonzero-value", func(a *Assembler) {
			emitDescriptor(a, 0x00, [][2]uint64{{0x200, 4}})
			emitCall(a, precompile.IDSha256, 0x00, 1, 0x180, 7)
		}},
		{"unaligned-insize", func(a *Assembler) {
			// inSize 33 is not a multiple of 64.
			a.PushUint(32).PushUint(0x180).PushUint(33).PushUint(0)
			a.PushUint(0).PushUint(uint64(precompile.IDSha256)).PushUint(0)
			a.Op(CALL)
		}},
		{"arity-mismatch", func(a *Assembler) {
			// bytes_equal demands exactly two ranges.
			emitDescriptor(a, 0x00, [][2]uint64{{0x200, 4}})
			emitCall(a, precompile.IDBytesEqual, 0x00, 1, 0x180, 0)
		}},
		{"huge-descriptor-word", func(a *Assembler) {
			// Offset word with a bit above 2^64 must be rejected, not
			// truncated.
			a.Push(new(big.Int).Lsh(big.NewInt(1), 64)).PushUint(0).Op(MSTORE)
			a.PushUint(4).PushUint(32).Op(MSTORE)
			emitCall(a, precompile.IDSha256, 0x00, 1, 0x180, 0)
		}},
		{"too-many-ranges", func(a *Assembler) {
			var ranges [][2]uint64
			for i := 0; i < 17; i++ {
				ranges = append(ranges, [2]uint64{0x400, 1})
			}
			emitDescriptor(a, 0x00, ranges)
			emitCall(a, precompile.IDSha256, 0x00, len(ranges), 0x180, 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewAssembler()
			c.build(a)
			returnOut(a, 0x180)
			code, err := a.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			res := runBoth(t, code, 300_000)
			if res.Err != nil {
				t.Fatalf("malformed descriptor must not halt: %+v", res)
			}
			if !res.Reverted {
				t.Fatal("CALL must push 0 for a malformed descriptor")
			}
		})
	}
}

func TestPrecompileOutOfGas(t *testing.T) {
	// The ed25519 entry charges a flat 3000; a tighter limit halts
	// exceptionally, identically on both engines.
	a := NewAssembler()
	emitDescriptor(a, 0x00, [][2]uint64{{0x200, 32}, {0x240, 32}, {0x280, 64}})
	emitCall(a, precompile.IDEd25519Verify, 0x00, 3, 0x180, 0)
	returnOut(a, 0x180)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// Find the gas the healthy run needs, then rerun just below it.
	healthy := runBoth(t, code, 200_000)
	if healthy.Err != nil {
		t.Fatalf("healthy run failed: %+v", healthy)
	}
	res := runBoth(t, code, healthy.GasUsed-1)
	if res.Err == nil {
		t.Fatal("expected out-of-gas halt")
	}
	if res.GasUsed != healthy.GasUsed-1 {
		t.Fatalf("exceptional halt must consume the full limit: used %d of %d", res.GasUsed, healthy.GasUsed-1)
	}
}

// TestPrecompileGasScales: charged gas grows with the referenced bytes (the
// per-word component), and a larger input costs exactly GasWord more per
// extra word on both engines.
func TestPrecompileGasScales(t *testing.T) {
	gasFor := func(n uint64) uint64 {
		a := NewAssembler()
		// Pre-expand memory past every range so expansion gas is identical
		// and only the precompile's per-word term differs.
		a.PushUint(0).PushUint(0x400).Op(MSTORE)
		emitDescriptor(a, 0x00, [][2]uint64{{0x200, n}})
		emitCall(a, precompile.IDSha256, 0x00, 1, 0x180, 0)
		returnOut(a, 0x180)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		res := runBoth(t, code, 200_000)
		if res.Err != nil || res.Reverted {
			t.Fatalf("hash of %d zero bytes failed: %+v", n, res)
		}
		return res.GasUsed
	}
	p := precompile.ByID(precompile.IDSha256)
	if diff := gasFor(64) - gasFor(32); diff != p.GasWord {
		t.Fatalf("one extra word costs %d gas, want %d", diff, p.GasWord)
	}
}
