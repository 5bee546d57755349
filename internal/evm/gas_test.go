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

func TestExpGasScalesWithExponentBytes(t *testing.T) {
	gasFor := func(exp *big.Int) uint64 {
		res := run2(t, func(a *Assembler) {
			a.PushBytes(exp.Bytes()).PushUint(2).Op(EXP, POP, STOP)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.GasUsed
	}
	oneByte := gasFor(big.NewInt(0xff))
	twoBytes := gasFor(big.NewInt(0xffff))
	if twoBytes-oneByte != GasExpByte {
		t.Fatalf("exp byte delta = %d, want %d", twoBytes-oneByte, GasExpByte)
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
	log0 := run2(t, func(a *Assembler) {
		a.PushUint(8).PushUint(0).Op(LOG0, STOP)
	}).GasUsed
	log2 := run2(t, func(a *Assembler) {
		a.PushUint(1).PushUint(2).PushUint(8).PushUint(0).Op(LOG2, STOP)
	}).GasUsed
	wantDelta := 2*GasLogTopic + 2*GasVeryLow // two extra topics + their pushes
	if log2-log0 != uint64(wantDelta) {
		t.Fatalf("LOG2-LOG0 delta = %d, want %d", log2-log0, wantDelta)
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
