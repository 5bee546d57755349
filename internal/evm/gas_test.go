package evm

import (
	"math/big"
	"testing"
)

func TestKeccakGasScalesWithWords(t *testing.T) {
	gasFor := func(size uint64) uint64 {
		res := run2(t, func(a *Assembler) {
			a.PushUint(size).PushUint(0).Op(KECCAK256, POP, STOP)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.GasUsed
	}
	// 32 bytes = 1 word; 64 bytes = 2 words: +6 gas per word, plus one
	// extra memory word of expansion (3 gas + negligible quadratic term).
	g32, g64 := gasFor(32), gasFor(64)
	if g64-g32 != GasKeccak256Word+GasMemory {
		t.Fatalf("keccak word delta = %d, want %d", g64-g32, GasKeccak256Word+GasMemory)
	}
	// Zero-size hash still pays the flat 30: PUSH+PUSH+KECCAK+POP+STOP.
	if g0 := gasFor(0); g0 != 2*GasVeryLow+GasKeccak256+GasBase {
		t.Fatalf("empty keccak gas = %d", g0)
	}
}

func TestCopyGasScalesWithWords(t *testing.T) {
	gasFor := func(size uint64) uint64 {
		res := run2(t, func(a *Assembler) {
			a.PushUint(size).PushUint(0).PushUint(0).Op(CALLDATACOPY, STOP)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.GasUsed
	}
	// 33 bytes are two words, 32 bytes one: +3 gas per copied word, plus
	// one extra memory word of expansion.
	if d := gasFor(33) - gasFor(32); d != GasCopy+GasMemory {
		t.Fatalf("copy word delta = %d, want %d", d, GasCopy+GasMemory)
	}
	// A zero-size copy still pays the flat 3: three pushes, CALLDATACOPY.
	if g0 := gasFor(0); g0 != 4*GasVeryLow {
		t.Fatalf("empty copy gas = %d", g0)
	}
}

func TestCalldataLoadBeyondEndIsZeroPadded(t *testing.T) {
	res := run2(t, func(a *Assembler) {
		a.PushUint(100).Op(CALLDATALOAD)
		a.PushUint(0).Op(MSTORE)
		a.PushUint(32).PushUint(0).Op(RETURN)
	}, func(c *Context) { c.CallData = []byte{1, 2, 3} })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if new(big.Int).SetBytes(res.ReturnData).Sign() != 0 {
		t.Fatalf("out-of-range calldata = %x, want zeros", res.ReturnData)
	}
}

func TestLogGasIncludesTopicsAndData(t *testing.T) {
	gasFor := func(size uint64) uint64 {
		res := run2(t, func(a *Assembler) {
			a.PushUint(1).PushUint(size).PushUint(0).Op(LOG1, STOP)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.GasUsed
	}
	// Three pushes, then LOG1: the flat log cost and its one topic.
	if g0, want := gasFor(0), uint64(3*GasVeryLow+GasLog+GasLogTopic); g0 != want {
		t.Fatalf("empty LOG1 gas = %d, want %d", g0, want)
	}
	// Eight data bytes: 8 gas each, plus one memory word of expansion.
	if d := gasFor(8) - gasFor(0); d != 8*GasLogData+GasMemory {
		t.Fatalf("LOG1 data delta = %d, want %d", d, 8*GasLogData+GasMemory)
	}
}

// run2 is a local harness (vm_test.go has its own `run` with *testing.T
// assertions; this one is minimal).
func run2(t *testing.T, build func(a *Assembler), opts ...func(*Context)) Result {
	t.Helper()
	a := NewAssembler()
	build(a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{State: NewMemState(), GasLimit: 1_000_000}
	for _, o := range opts {
		o(&ctx)
	}
	return Execute(ctx, code)
}
