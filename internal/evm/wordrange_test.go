package evm

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/big"
	"testing"

	"agnopol/internal/polcrypto"
	"agnopol/internal/precompile"
)

// wordRangeRow is one opcode given an offset, size or jump word of 2^64 or
// more. The expected outcome is written from the Yellow Paper, not captured
// from either engine:
//   - memory offset or size: a size of zero touches nothing; otherwise the
//     range cannot be paid for, so execution halts out of gas;
//   - jump destination: no JUMPDEST lies there, so the jump is invalid;
//   - calldata read offset: past any calldata, so every byte read is zero.
type wordRangeRow struct {
	name     string
	calldata []byte
	build    func(a *Assembler)
	err      error  // the exceptional halt, or nil
	reverted bool   // REVERT rather than RETURN or STOP
	ret      []byte // return data when execution does not halt
	logs     int
}

func wordRangeRows() []wordRangeRow {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	plus := func(n int64) *big.Int { return new(big.Int).Add(two64, big.NewInt(n)) }
	ones := bytes.Repeat([]byte{0xff}, 32)
	zero32 := make([]byte, 32)
	// returnMem returns memory [0, 32).
	returnMem := func(a *Assembler) { a.PushUint(32).PushUint(0).Op(RETURN) }
	// returnTop returns the top of the stack as one word.
	returnTop := func(a *Assembler) { a.PushUint(0).Op(MSTORE); returnMem(a) }
	// pushAll pushes each value in its fewest bytes, zero as PUSH1 0x00.
	pushAll := func(a *Assembler, vs ...*big.Int) {
		for _, v := range vs {
			if v.Sign() == 0 {
				a.PushUint(0)
			} else {
				a.PushBytes(v.Bytes())
			}
		}
	}
	// sha256Call calls the sha256 precompile with the given input and
	// output ranges, then returns its success word. CALL pops gas, to,
	// value, in offset, in size, out offset, out size.
	sha256Call := func(inOff, inSize, outOff, outSize *big.Int) func(a *Assembler) {
		return func(a *Assembler) {
			pushAll(a, outSize, outOff, inSize, inOff)
			a.PushUint(0).PushUint(uint64(precompile.IDSha256)).PushUint(0).Op(CALL)
			returnTop(a)
		}
	}
	// transferCall moves no value to an ordinary account with the given
	// input and output ranges, then returns its success word.
	transferCall := func(inOff, inSize, outOff, outSize *big.Int) func(a *Assembler) {
		return func(a *Assembler) {
			pushAll(a, outSize, outOff, inSize, inOff)
			a.PushUint(0).PushUint(0xbeef).PushUint(0).Op(CALL)
			returnTop(a)
		}
	}
	one := big.NewInt(1)
	word := func(v uint64) []byte { return new(big.Int).SetUint64(v).FillBytes(make([]byte, 32)) }
	emptySHA := sha256.Sum256(nil)
	emptyHash := polcrypto.Hash1(nil)
	return []wordRangeRow{
		// PUSH9 2^64+11 is bytes 0–9, JUMP byte 10, JUMPDEST byte 11.
		{name: "JUMP 2^64+11 onto a JUMPDEST", build: func(a *Assembler) {
			a.PushBytes(plus(11).Bytes()).Op(JUMP, JUMPDEST)
			returnTop(a)
		}, err: ErrInvalidJump},
		// PUSH1 1 is bytes 0–1, PUSH9 bytes 2–11, JUMPI byte 12, JUMPDEST 13.
		{name: "JUMPI 2^64+13 onto a JUMPDEST", build: func(a *Assembler) {
			a.PushUint(1).PushBytes(plus(13).Bytes()).Op(JUMPI, JUMPDEST)
			a.PushUint(7)
			returnTop(a)
		}, err: ErrInvalidJump},
		{name: "JUMPI 2^64 not taken", build: func(a *Assembler) {
			a.PushUint(0).PushBytes(two64.Bytes()).Op(JUMPI)
			a.PushUint(7)
			returnTop(a)
		}, ret: word(7)},
		{name: "CALLDATALOAD 2^64", calldata: ones, build: func(a *Assembler) {
			a.PushBytes(two64.Bytes()).Op(CALLDATALOAD)
			returnTop(a)
		}, ret: zero32},
		{name: "CALLDATALOAD 2^64-1", calldata: ones, build: func(a *Assembler) {
			a.PushBytes(new(big.Int).Sub(two64, one).Bytes()).Op(CALLDATALOAD)
			returnTop(a)
		}, ret: zero32},
		// CALLDATACOPY pops destination, source, size.
		{name: "CALLDATACOPY source 2^64", calldata: ones, build: func(a *Assembler) {
			a.PushUint(32).PushBytes(two64.Bytes()).PushUint(0).Op(CALLDATACOPY)
			returnMem(a)
		}, ret: zero32},
		{name: "CALLDATACOPY destination 2^64", calldata: ones, build: func(a *Assembler) {
			a.PushUint(1).PushUint(0).PushBytes(two64.Bytes()).Op(CALLDATACOPY)
			returnMem(a)
		}, err: ErrOutOfGas},
		{name: "CALLDATACOPY size 2^64", calldata: ones, build: func(a *Assembler) {
			a.PushBytes(two64.Bytes()).PushUint(0).PushUint(0).Op(CALLDATACOPY)
			returnMem(a)
		}, err: ErrOutOfGas},
		{name: "CALLDATACOPY destination 2^64 size 0", calldata: ones, build: func(a *Assembler) {
			a.PushUint(0).PushUint(0).PushBytes(two64.Bytes()).Op(CALLDATACOPY)
			returnMem(a)
		}, ret: zero32},
		{name: "MLOAD 2^64+5", build: func(a *Assembler) {
			a.PushBytes(plus(5).Bytes()).Op(MLOAD)
			returnTop(a)
		}, err: ErrOutOfGas},
		{name: "MSTORE 2^64", build: func(a *Assembler) {
			a.PushUint(1).PushBytes(two64.Bytes()).Op(MSTORE)
			returnMem(a)
		}, err: ErrOutOfGas},
		// KECCAK256, LOG1, RETURN and REVERT pop offset, then size; LOG1
		// then its topic.
		{name: "KECCAK256 offset 2^64", build: func(a *Assembler) {
			a.PushUint(1).PushBytes(two64.Bytes()).Op(KECCAK256)
			returnTop(a)
		}, err: ErrOutOfGas},
		{name: "KECCAK256 size 2^64", build: func(a *Assembler) {
			a.PushBytes(two64.Bytes()).PushUint(0).Op(KECCAK256)
			returnTop(a)
		}, err: ErrOutOfGas},
		{name: "KECCAK256 offset 2^64 size 0", build: func(a *Assembler) {
			a.PushUint(0).PushBytes(two64.Bytes()).Op(KECCAK256)
			returnTop(a)
		}, ret: emptyHash[:]},
		{name: "LOG1 offset 2^64", build: func(a *Assembler) {
			a.PushUint(7).PushUint(1).PushBytes(two64.Bytes()).Op(LOG1, STOP)
		}, err: ErrOutOfGas},
		{name: "LOG1 offset 2^64 size 0", build: func(a *Assembler) {
			a.PushUint(7).PushUint(0).PushBytes(two64.Bytes()).Op(LOG1, STOP)
		}, logs: 1},
		{name: "RETURN offset 2^64", build: func(a *Assembler) {
			a.PushUint(1).PushBytes(two64.Bytes()).Op(RETURN)
		}, err: ErrOutOfGas},
		{name: "RETURN offset 2^64 size 0", build: func(a *Assembler) {
			a.PushUint(0).PushBytes(two64.Bytes()).Op(RETURN)
		}},
		{name: "REVERT size 2^64", build: func(a *Assembler) {
			a.PushBytes(two64.Bytes()).PushUint(0).Op(REVERT)
		}, err: ErrOutOfGas},
		{name: "REVERT offset 2^64 size 0", build: func(a *Assembler) {
			a.PushUint(0).PushBytes(two64.Bytes()).Op(REVERT)
		}, reverted: true},
		{name: "CALL sha256 input offset 2^64", build: sha256Call(two64, big.NewInt(64), new(big.Int), big.NewInt(32)),
			err: ErrOutOfGas},
		{name: "CALL sha256 output offset 2^64", build: sha256Call(new(big.Int), new(big.Int), two64, big.NewInt(32)),
			err: ErrOutOfGas},
		{name: "CALL sha256 output offset 2^64 size 0", build: sha256Call(new(big.Int), new(big.Int), two64, new(big.Int)),
			ret: word(1)},
		// No descriptor ranges: the digest of nothing, written at 0.
		{name: "CALL sha256 input offset 2^64 size 0", build: func(a *Assembler) {
			a.PushUint(32).PushUint(0).PushUint(0).PushBytes(two64.Bytes())
			a.PushUint(0).PushUint(uint64(precompile.IDSha256)).PushUint(0).Op(CALL, POP)
			returnMem(a)
		}, ret: emptySHA[:]},
		{name: "CALL transfer input offset 2^64", build: transferCall(two64, big.NewInt(32), new(big.Int), new(big.Int)),
			err: ErrOutOfGas},
		{name: "CALL transfer output offset 2^64", build: transferCall(new(big.Int), new(big.Int), two64, big.NewInt(32)),
			err: ErrOutOfGas},
		{name: "CALL transfer input offset 2^64 size 0", build: transferCall(two64, new(big.Int), new(big.Int), new(big.Int)),
			ret: word(1)},
	}
}

// TestWordsOf2To64AndAbove holds both engines to the Yellow Paper's reading
// of offset, size and jump words of 2^64 or more: neither may cut such a
// word to its low 64 bits.
func TestWordsOf2To64AndAbove(t *testing.T) {
	const gas = 1_000_000
	for _, row := range wordRangeRows() {
		t.Run(row.name, func(t *testing.T) {
			a := NewAssembler()
			row.build(a)
			code, err := a.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []struct {
				name string
				exec func(Context, []byte) Result
			}{{"u256", Execute}, {"reference", executeRef}} {
				res := e.exec(Context{State: NewMemState(), GasLimit: gas, CallData: row.calldata}, code)
				if row.err != nil {
					if !errors.Is(res.Err, row.err) || res.GasUsed != gas {
						t.Fatalf("%s: err %v with %d gas used, want %v using all %d", e.name, res.Err, res.GasUsed, row.err, gas)
					}
					continue
				}
				if res.Err != nil || res.Reverted != row.reverted {
					t.Fatalf("%s: err %v, reverted %v; want nil, %v", e.name, res.Err, res.Reverted, row.reverted)
				}
				if !bytes.Equal(res.ReturnData, row.ret) || len(res.Logs) != row.logs {
					t.Fatalf("%s: returned %x with %d logs, want %x with %d", e.name, res.ReturnData, len(res.Logs), row.ret, row.logs)
				}
			}
		})
	}
}
