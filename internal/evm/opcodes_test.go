package evm

import (
	"fmt"
	"testing"
)

// TestOpcodeStringNames pins the mnemonic of every byte — the names the
// opcode profiler exports as evm_opcode_*{op=...} labels, and INVALID for
// each byte Execute does not run — and that
// rendering one does not allocate: the profiler calls String once per
// executed opcode.
func TestOpcodeStringNames(t *testing.T) {
	named := map[byte]string{
		0x00: "STOP", 0x01: "ADD", 0x02: "MUL", 0x03: "SUB", 0x04: "DIV",
		0x06: "MOD", 0x10: "LT", 0x11: "GT", 0x14: "EQ", 0x15: "ISZERO",
		0x16: "AND", 0x17: "OR", 0x1b: "SHL", 0x1c: "SHR", 0x20: "KECCAK256",
		0x33: "CALLER", 0x34: "CALLVALUE", 0x35: "CALLDATALOAD",
		0x36: "CALLDATASIZE", 0x37: "CALLDATACOPY", 0x42: "TIMESTAMP",
		0x47: "SELFBALANCE", 0x50: "POP", 0x51: "MLOAD", 0x52: "MSTORE",
		0x54: "SLOAD", 0x55: "SSTORE", 0x56: "JUMP", 0x57: "JUMPI",
		0x5b: "JUMPDEST", 0xa1: "LOG1", 0xf1: "CALL", 0xf3: "RETURN",
		0xfd: "REVERT",
	}
	for i := 0; i < 256; i++ {
		var want string
		switch {
		case i >= 0x60 && i <= 0x7f:
			want = fmt.Sprint("PUSH", i-0x5f)
		case i >= 0x80 && i <= 0x85:
			want = fmt.Sprint("DUP", i-0x7f)
		case i >= 0x90 && i <= 0x94:
			want = fmt.Sprint("SWAP", i-0x8f)
		case named[byte(i)] != "":
			want = named[byte(i)]
		default:
			want = fmt.Sprintf("INVALID(0x%02x)", i)
		}
		if got := Opcode(i).String(); got != want {
			t.Errorf("Opcode(0x%02x).String() = %q, want %q", i, got, want)
		}
	}
	for op, want := range map[Opcode]string{
		PUSH1: "PUSH1", PUSH32: "PUSH32", DUP6: "DUP6", SWAP1: "SWAP1",
		KECCAK256: "KECCAK256", Opcode(0xfe): "INVALID(0xfe)",
	} {
		if got := op.String(); got != want {
			t.Errorf("%q.String() = %q", want, got)
		}
	}

	if raceEnabled {
		t.Skip("race instrumentation allocates; the 0 allocs/op contract is asserted in the non-race leg")
	}
	var sink string
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			sink = Opcode(i).String()
		}
	}); avg != 0 {
		t.Fatalf("String allocates %.1f objects per 256 opcodes, want 0", avg)
	}
	_ = sink
}
