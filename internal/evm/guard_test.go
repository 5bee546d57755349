package evm_test

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"agnopol/contracts"
	"agnopol/internal/evm"
	"agnopol/internal/lang"
)

// notEmitted is the one named set that Execute runs although the compiler
// emits none of it for the programs below:
//   - CALLDATASIZE: eth's golden workload (eth.TestGoldenDigest) deploys
//     hand-assembled CALLDATASIZE … JUMPI code, and rewriting it would move
//     that digest;
//   - every PUSH width: Assembler.PushBytes emits PUSH1–PUSH32;
//   - SWAP4: it keeps the SWAP1–SWAP5 dispatch one range compare.
func notEmitted() map[evm.Opcode]bool {
	set := map[evm.Opcode]bool{evm.CALLDATASIZE: true, evm.SWAP5 - 1: true}
	for op := evm.PUSH1; op <= evm.PUSH32; op++ {
		set[op] = true
	}
	return set
}

// TestExecutesWhatTheCompilerEmits: the opcodes Execute runs are exactly
// the opcodes the EVM backend emits for the shipped contracts and for the
// AVM guard's testdata/every-kind.pol, a program with every statement,
// expression and operator kind of the language, plus notEmitted. An opcode
// the compiler stops emitting fails here until the interpreter deletes it;
// one it starts emitting fails here until the interpreter runs it.
func TestExecutesWhatTheCompilerEmits(t *testing.T) {
	everyKind, err := os.ReadFile("../avm/testdata/every-kind.pol")
	if err != nil {
		t.Fatal(err)
	}
	want := notEmitted()
	for _, src := range []string{
		contracts.PoLReport, contracts.PoLReportV2, contracts.PoLVerify,
		contracts.AreaCheckin, string(everyKind),
	} {
		p, err := lang.ParseSource(src)
		if err == nil {
			err = lang.Check(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		code, err := lang.CompileEVM(p)
		if err != nil {
			t.Fatal(err)
		}
		for pc := 0; pc < len(code); pc++ {
			op := evm.Opcode(code[pc])
			want[op] = true
			if n, ok := op.IsPush(); ok {
				pc += n
			}
		}
	}
	// Run each byte after 17 words, the most any EVM opcode reads: only an
	// opcode the interpreter does not run halts as an invalid opcode.
	for b := 0; b < 256; b++ {
		op := evm.Opcode(b)
		code := append(bytes.Repeat([]byte{byte(evm.PUSH1), 1}, 17), byte(op))
		res := evm.Execute(evm.Context{State: evm.NewMemState(), GasLimit: 1_000_000}, code)
		if runs := !errors.Is(res.Err, evm.ErrInvalidOpcode); runs != want[op] {
			if runs {
				t.Errorf("Execute runs %s, which the compiler never emits", op)
			} else {
				t.Errorf("the compiler emits %s, which Execute does not run", op)
			}
		}
	}
}
