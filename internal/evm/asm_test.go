package evm

import (
	"math/big"
	"strings"
	"testing"

	"agnopol/internal/u256"
)

func TestAssemblerPushSizes(t *testing.T) {
	a := NewAssembler()
	a.PushUint(0)                                             // PUSH1 00
	a.PushUint(0xff)                                          // PUSH1
	a.PushUint(0x100)                                         // PUSH2
	a.PushUint(1 << 63)                                       // PUSH8
	a.PushBytes(new(big.Int).Lsh(big.NewInt(1), 248).Bytes()) // PUSH32
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(code)
	for _, want := range []string{"PUSH1 0x00", "PUSH1 0xff", "PUSH2 0x0100", "PUSH8 0x8000000000000000", "PUSH32"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("missing %q in:\n%s", want, dis)
		}
	}
}

func TestAssemblerRejectsBadPushes(t *testing.T) {
	c := NewAssembler()
	c.PushBytes(nil)
	if _, err := c.Assemble(); err == nil {
		t.Fatal("empty PushBytes accepted")
	}
	d := NewAssembler()
	d.PushBytes(make([]byte, 33))
	if _, err := d.Assemble(); err == nil {
		t.Fatal("oversized PushBytes accepted")
	}
}

func TestAssemblerCodeSizeLimit(t *testing.T) {
	a := NewAssembler()
	for i := 0; i < 0x8001; i++ {
		a.Op(STOP, STOP)
	}
	a.Label("x") // labels force the PUSH2 space check
	a.Jump("x")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("code beyond PUSH2 label space accepted")
	}
}

func TestOpcodeNames(t *testing.T) {
	cases := map[Opcode]string{
		ADD: "ADD", PUSH1: "PUSH1", PUSH32: "PUSH32",
		DUP1: "DUP1", DUP6: "DUP6", SWAP3: "SWAP3",
		Opcode(0xfe): "INVALID(0xfe)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%#x.String() = %q, want %q", byte(op), got, want)
		}
	}
	if n, ok := PUSH4ish(); !ok || n != 4 {
		t.Fatalf("IsPush(PUSH4) = %d,%v", n, ok)
	}
	if _, ok := ADD.IsPush(); ok {
		t.Fatal("ADD reported as push")
	}
}

func PUSH4ish() (int, bool) { return (PUSH1 + 3).IsPush() }

func TestMemStateAccounting(t *testing.T) {
	s := NewMemState()
	var a [20]byte
	a[0] = 1
	if s.AccountExists(a) {
		t.Fatal("fresh state has accounts")
	}
	s.AddBalance(a, u256.FromUint64(10))
	if !s.AccountExists(a) {
		t.Fatal("credited account missing")
	}
	s.SubBalance(a, u256.FromUint64(4))
	if got := s.GetBalance(a); got != u256.FromUint64(6) {
		t.Fatalf("balance %s", got)
	}
}
