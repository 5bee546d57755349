package evm

import (
	"testing"

	"agnopol/internal/chain"
)

// Benchmark programs: tight loops of one opcode family, bounded by gas so a
// single Execute runs thousands of operations. Each family is benchmarked
// on both engines; `go test -bench . -benchmem ./internal/evm/` shows the
// ns/op and allocs/op delta the u256 rewrite buys.

// loopProgram wraps body in a counted loop: i starts at n and decrements
// until zero. Layout: PUSH2 n JUMPDEST <body> PUSH1 1 SWAP1 SUB DUP1
// PUSH1 dest JUMPI STOP.
func loopProgram(n uint16, body []byte) []byte {
	p := []byte{byte(PUSH1) + 1, byte(n >> 8), byte(n)}
	dest := len(p)
	p = append(p, byte(JUMPDEST))
	p = append(p, body...)
	p = append(p, byte(PUSH1), 1, byte(SWAP1), byte(SUB), byte(DUP1))
	p = append(p, byte(PUSH1), byte(dest), byte(JUMPI), byte(STOP))
	return p
}

var benchPrograms = []struct {
	name string
	code []byte
}{
	{"arith", loopProgram(1000, []byte{
		byte(DUP1), byte(DUP1), byte(MUL), byte(DUP1), byte(ADD),
		byte(DUP1), byte(SUB), byte(POP),
	})},
	{"divmod", loopProgram(1000, []byte{
		byte(DUP1), byte(PUSH1), 0xff, byte(DUP1), byte(DIV),
		byte(DUP1), byte(PUSH1), 7, byte(MOD), byte(POP), byte(POP), byte(POP),
	})},
	{"bitops", loopProgram(1000, []byte{
		byte(DUP1), byte(DUP1), byte(OR), byte(DUP1), byte(AND), byte(PUSH1), 3,
		byte(SHL), byte(PUSH1), 2, byte(SHR), byte(POP),
	})},
	{"memory", loopProgram(500, []byte{
		byte(DUP1), byte(PUSH1), 64, byte(MSTORE),
		byte(PUSH1), 64, byte(MLOAD), byte(POP),
	})},
	{"keccak", loopProgram(200, []byte{
		byte(PUSH1), 32, byte(PUSH1), 0, byte(KECCAK256), byte(POP),
	})},
	{"storage", loopProgram(100, []byte{
		byte(DUP1), byte(PUSH1), 5, byte(SSTORE),
		byte(PUSH1), 5, byte(SLOAD), byte(POP),
	})},
}

func benchExecute(b *testing.B, code []byte, exec func(Context, []byte) Result) {
	b.Helper()
	st := NewMemState()
	ctx := Context{
		State:    st,
		Address:  chain.Address{0xaa},
		Caller:   chain.Address{0xbb},
		GasLimit: 10_000_000,
	}
	// Sanity: the program must halt normally before we measure it.
	if res := exec(ctx, code); res.Err != nil {
		b.Fatalf("bench program: %v", res.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(ctx, code)
	}
}

func BenchmarkOpcodes(b *testing.B) {
	for _, p := range benchPrograms {
		b.Run(p.name+"/u256", func(b *testing.B) { benchExecute(b, p.code, Execute) })
		b.Run(p.name+"/bigint", func(b *testing.B) { benchExecute(b, p.code, executeRef) })
	}
}

// TestKeccakLoopZeroAllocs pins the hot-loop allocation contract of the
// hashing path: the KECCAK256 handler must not allocate a hasher (or
// anything else) per op, so a whole Execute of the keccak loop program is
// allocation-free once the interpreter pool is warm.
func TestKeccakLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the 0 allocs/op contract is asserted in the non-race leg")
	}
	var code []byte
	for _, p := range benchPrograms {
		if p.name == "keccak" {
			code = p.code
		}
	}
	if code == nil {
		t.Fatal("keccak bench program missing")
	}
	ctx := Context{
		State:    NewMemState(),
		Address:  chain.Address{0xaa},
		Caller:   chain.Address{0xbb},
		GasLimit: 10_000_000,
	}
	if res := Execute(ctx, code); res.Err != nil {
		t.Fatalf("keccak program: %v", res.Err)
	}
	if avg := testing.AllocsPerRun(20, func() { Execute(ctx, code) }); avg != 0 {
		t.Fatalf("keccak loop allocates %.1f objects per Execute, want 0", avg)
	}
}
