package evm

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"agnopol/internal/chain"
	"agnopol/internal/u256"
)

func run(t *testing.T, build func(a *Assembler), opts ...func(*Context)) Result {
	t.Helper()
	a := NewAssembler()
	build(a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{
		State:    NewMemState(),
		GasLimit: 1_000_000,
	}
	for _, o := range opts {
		o(&ctx)
	}
	return Execute(ctx, code)
}

// returnTop makes a program return its stack top as 32 bytes.
func returnTop(a *Assembler) {
	a.PushUint(0).Op(MSTORE).PushUint(32).PushUint(0).Op(RETURN)
}

func wantReturn(t *testing.T, res Result, want uint64) {
	t.Helper()
	if res.Err != nil || res.Reverted {
		t.Fatalf("execution failed: %+v", res)
	}
	got := new(big.Int).SetBytes(res.ReturnData).Uint64()
	if got != want {
		t.Fatalf("returned %d, want %d", got, want)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name  string
		build func(a *Assembler)
		want  uint64
	}{
		// Noncommutative ops: top operand is the left-hand side.
		{"sub", func(a *Assembler) { a.PushUint(3).PushUint(10).Op(SUB); returnTop(a) }, 7},
		{"div", func(a *Assembler) { a.PushUint(4).PushUint(20).Op(DIV); returnTop(a) }, 5},
		{"mod", func(a *Assembler) { a.PushUint(7).PushUint(20).Op(MOD); returnTop(a) }, 6},
		{"div-by-zero", func(a *Assembler) { a.PushUint(0).PushUint(20).Op(DIV); returnTop(a) }, 0},
		{"mod-by-zero", func(a *Assembler) { a.PushUint(0).PushUint(20).Op(MOD); returnTop(a) }, 0},
		{"add", func(a *Assembler) { a.PushUint(2).PushUint(40).Op(ADD); returnTop(a) }, 42},
		{"mul", func(a *Assembler) { a.PushUint(6).PushUint(7).Op(MUL); returnTop(a) }, 42},
		{"lt-true", func(a *Assembler) { a.PushUint(9).PushUint(3).Op(LT); returnTop(a) }, 1},
		{"lt-false", func(a *Assembler) { a.PushUint(3).PushUint(9).Op(LT); returnTop(a) }, 0},
		{"gt", func(a *Assembler) { a.PushUint(3).PushUint(9).Op(GT); returnTop(a) }, 1},
		{"eq", func(a *Assembler) { a.PushUint(5).PushUint(5).Op(EQ); returnTop(a) }, 1},
		{"iszero", func(a *Assembler) { a.PushUint(0).Op(ISZERO); returnTop(a) }, 1},
		{"and", func(a *Assembler) { a.PushUint(0b1100).PushUint(0b1010).Op(AND); returnTop(a) }, 0b1000},
		{"or", func(a *Assembler) { a.PushUint(0b1100).PushUint(0b1010).Op(OR); returnTop(a) }, 0b1110},
		{"shl", func(a *Assembler) { a.PushUint(3).PushUint(4).Op(SHL); returnTop(a) }, 48},
		{"shr", func(a *Assembler) { a.PushUint(48).PushUint(4).Op(SHR); returnTop(a) }, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantReturn(t, run(t, c.build), c.want)
		})
	}
}

func TestArithmeticWrapsAt256Bits(t *testing.T) {
	maxWord := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	res := run(t, func(a *Assembler) {
		a.PushUint(1).PushBytes(maxWord.Bytes()).Op(ADD)
		returnTop(a)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if new(big.Int).SetBytes(res.ReturnData).Sign() != 0 {
		t.Fatalf("max+1 = %x, want 0 (wraparound)", res.ReturnData)
	}
	// SUB underflow wraps to max.
	res = run(t, func(a *Assembler) {
		a.PushUint(1).PushUint(0).Op(SUB)
		returnTop(a)
	})
	if got := new(big.Int).SetBytes(res.ReturnData); got.Cmp(maxWord) != 0 {
		t.Fatalf("0-1 = %x, want 2^256-1", got)
	}
}

// pushed is n PUSH1s followed by ops: with n at the stack limit, the
// smallest programs that overflow the stack.
func pushed(n int, ops ...Opcode) []byte {
	code := bytes.Repeat([]byte{byte(PUSH1), 1}, n)
	for _, op := range ops {
		code = append(code, byte(op))
	}
	return code
}

func TestStackErrors(t *testing.T) {
	const gas = 1_000_000
	for _, c := range []struct {
		name string
		code []byte
		err  error
	}{
		{"ADD on an empty stack", pushed(0, ADD), ErrStackUnderflow},
		{"1025 pushes", pushed(stackLimit + 1), ErrStackOverflow},
		{"DUP1 on a full stack", pushed(stackLimit, DUP1), ErrStackOverflow},
	} {
		for _, e := range []struct {
			name string
			exec func(Context, []byte) Result
		}{{"u256", Execute}, {"reference", executeRef}} {
			res := e.exec(Context{State: NewMemState(), GasLimit: gas}, c.code)
			if !errors.Is(res.Err, c.err) || res.GasUsed != gas {
				t.Fatalf("%s, %s: err %v with %d gas used, want %v using all %d", c.name, e.name, res.Err, res.GasUsed, c.err, gas)
			}
		}
	}
}

// TestDeletedOpcodesAreInvalid: the opcodes the interpreter ran before it
// was cut to what the compiler emits are invalid like any unknown byte.
// With operands enough for any EVM opcode on the stack, each halts with
// ErrInvalidOpcode using all gas, on both engines.
func TestDeletedOpcodesAreInvalid(t *testing.T) {
	const gas = 1_000_000
	type row struct {
		name string
		op   byte
	}
	rows := []row{
		{"EXP", 0x0a}, {"XOR", 0x18}, {"NOT", 0x19}, {"BYTE", 0x1a},
		{"ADDRESS", 0x30}, {"BALANCE", 0x31}, {"NUMBER", 0x43}, {"PC", 0x58},
		{"MSIZE", 0x59}, {"GAS", 0x5a}, {"LOG0", 0xa0}, {"LOG2", 0xa2},
	}
	for n := 7; n <= 16; n++ {
		rows = append(rows, row{fmt.Sprint("DUP", n), 0x7f + byte(n)})
	}
	for n := 6; n <= 16; n++ {
		rows = append(rows, row{fmt.Sprint("SWAP", n), 0x8f + byte(n)})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			code := pushed(17, Opcode(r.op), STOP)
			for _, e := range []struct {
				name string
				exec func(Context, []byte) Result
			}{{"u256", Execute}, {"reference", executeRef}} {
				res := e.exec(Context{State: NewMemState(), GasLimit: gas}, code)
				if !errors.Is(res.Err, ErrInvalidOpcode) || res.GasUsed != gas {
					t.Fatalf("%s: err %v with %d gas used, want %v using all %d", e.name, res.Err, res.GasUsed, ErrInvalidOpcode, gas)
				}
			}
		})
	}
}

// brokenState is a StateDB whose storage reads panic: a defect outside the
// program, which must not pass for an exceptional halt.
type brokenState struct{ *MemState }

var errStateBroken = errors.New("state backend failed")

func (brokenState) GetStorage(chain.Address, chain.Hash32) chain.Hash32 { panic(errStateBroken) }

// TestForeignPanicEscapes: run's recover turns only the interpreter's own
// faults into Result.Err and re-raises any other panic unchanged. A pooled
// interpreter still runs the next program correctly.
func TestForeignPanicEscapes(t *testing.T) {
	r := func() (r any) {
		defer func() { r = recover() }()
		Execute(Context{State: brokenState{NewMemState()}, GasLimit: 100_000}, []byte{byte(PUSH1), 0, byte(SLOAD)})
		return nil
	}()
	if r != errStateBroken {
		t.Fatalf("Execute panicked with %v, want the state's panic", r)
	}
	wantReturn(t, run(t, func(a *Assembler) {
		a.PushUint(6).PushUint(7).Op(MUL)
		returnTop(a)
	}), 42)
}

func TestInvalidJump(t *testing.T) {
	res := run(t, func(a *Assembler) { a.PushUint(1).Op(JUMP) })
	if !errors.Is(res.Err, ErrInvalidJump) {
		t.Fatalf("err = %v, want invalid jump", res.Err)
	}
	// Jumping into PUSH data is invalid even if the byte is 0x5b.
	a := NewAssembler()
	a.PushBytes([]byte{byte(JUMPDEST)}) // PUSH1 0x5b: data byte at offset 1
	a.Op(POP)
	a.PushUint(1).Op(JUMP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res = Execute(Context{State: NewMemState(), GasLimit: 100000}, code)
	if !errors.Is(res.Err, ErrInvalidJump) {
		t.Fatalf("jump into push data: err = %v", res.Err)
	}
}

func TestJumpFlow(t *testing.T) {
	res := run(t, func(a *Assembler) {
		a.PushUint(1).PushLabel("skip").Op(JUMPI)
		a.PushUint(111) // skipped
		returnTop(a)
		a.Label("skip")
		a.PushUint(222)
		returnTop(a)
	})
	wantReturn(t, res, 222)
}

func TestStorageAndRefunds(t *testing.T) {
	st := NewMemState()
	// Store then clear a slot: clearing earns the Rsclear refund, capped
	// at gasUsed/5 by the chain layer (here we check the raw counter).
	a := NewAssembler()
	a.PushUint(7).PushUint(1).Op(SSTORE) // slot1 = 7 (cold, set: 22100)
	a.PushUint(0).PushUint(1).Op(SSTORE) // slot1 = 0 (warm, clear: 2900 + refund)
	a.Op(STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(Context{State: st, GasLimit: 100000}, code)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Second write hits a *dirty* slot (already written this tx), which
	// EIP-2200/2929 charges at warm-access cost, not Gsreset.
	wantGas := uint64(3+3) + (GasColdSLoad + GasSSet) + (3 + 3) + GasWarmAccess
	if res.GasUsed != wantGas {
		t.Fatalf("gas = %d, want %d", res.GasUsed, wantGas)
	}
	if res.Refund != RefundSClear {
		t.Fatalf("refund = %d, want %d", res.Refund, RefundSClear)
	}
	if st.GetStorage(chain.Address{}, wordKey(1)) != (chain.Hash32{}) {
		t.Fatal("slot not cleared")
	}
}

func wordKey(v uint64) chain.Hash32 {
	var h chain.Hash32
	new(big.Int).SetUint64(v).FillBytes(h[:])
	return h
}

func TestWarmColdAccounting(t *testing.T) {
	// Two SLOADs of the same slot: cold then warm.
	res := run(t, func(a *Assembler) {
		a.PushUint(5).Op(SLOAD, POP)
		a.PushUint(5).Op(SLOAD, POP)
		a.Op(STOP)
	})
	want := uint64(3) + GasColdSLoad + 2 + 3 + GasWarmAccess + 2
	if res.GasUsed != want {
		t.Fatalf("gas = %d, want %d", res.GasUsed, want)
	}
}

func TestSStoreDirtyWriteCheap(t *testing.T) {
	// Writing the same slot twice in one tx: second write is dirty (100).
	res := run(t, func(a *Assembler) {
		a.PushUint(1).PushUint(9).Op(SSTORE)
		a.PushUint(2).PushUint(9).Op(SSTORE)
		a.Op(STOP)
	})
	want := uint64(6) + GasColdSLoad + GasSSet + 6 + GasWarmAccess
	if res.GasUsed != want {
		t.Fatalf("gas = %d, want %d", res.GasUsed, want)
	}
}

func TestRevertRestoresState(t *testing.T) {
	st := NewMemState()
	a := NewAssembler()
	a.PushUint(7).PushUint(1).Op(SSTORE)
	a.PushUint(0).PushUint(0).Op(REVERT)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(Context{State: st, GasLimit: 100000}, code)
	if !res.Reverted {
		t.Fatal("expected revert")
	}
	if st.GetStorage(chain.Address{}, wordKey(1)) != (chain.Hash32{}) {
		t.Fatal("reverted SSTORE persisted")
	}
	if res.Refund != 0 {
		t.Fatal("revert must zero the refund counter")
	}
}

func TestRevertMessage(t *testing.T) {
	res := run(t, func(a *Assembler) {
		msg := []byte("nope")
		padded := make([]byte, 32)
		copy(padded, msg)
		a.PushBytes(padded).PushUint(0).Op(MSTORE)
		a.PushUint(4).PushUint(0).Op(REVERT)
	})
	if !res.Reverted || res.RevertMsg != "nope" {
		t.Fatalf("revert msg = %q", res.RevertMsg)
	}
}

func TestCallTransfersValue(t *testing.T) {
	st := NewMemState()
	self := chain.AddressFromBytes([]byte("self"))
	to := chain.AddressFromBytes([]byte("to"))
	st.AddBalance(self, u256.FromUint64(100))
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0) // out/in
	a.PushUint(40)                                    // value
	a.PushBytes(new(big.Int).SetBytes(to[:]).Bytes()) // to
	a.PushUint(0).Op(CALL)                            // gas
	returnTop(a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(Context{State: st, Address: self, GasLimit: 100000}, code)
	wantReturn(t, res, 1)
	if st.GetBalance(to) != u256.FromUint64(40) {
		t.Fatalf("recipient balance %s", st.GetBalance(to))
	}
	if st.GetBalance(self) != u256.FromUint64(60) {
		t.Fatalf("sender balance %s", st.GetBalance(self))
	}
}

// TestCallTransferExpandsMemory: a value-transfer CALL pays memory
// expansion up to the end of its output range, as the Yellow Paper's
// μ_i′ for CALL requires: a 1 KiB output range costs the 32 memory words
// more than an empty one.
func TestCallTransferExpandsMemory(t *testing.T) {
	for _, exec := range []func(Context, []byte) Result{Execute, executeRef} {
		gasFor := func(outSize uint64) uint64 {
			a := NewAssembler()
			a.PushUint(outSize).PushUint(0).PushUint(0).PushUint(0) // out size, out offset, in size, in offset
			a.PushUint(0).PushUint(0xdead).PushUint(0).Op(CALL, POP, STOP)
			code, err := a.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			res := exec(Context{State: NewMemState(), GasLimit: 100_000}, code)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			return res.GasUsed
		}
		if d := gasFor(1024) - gasFor(0); d != memoryGas(32) {
			t.Fatalf("a 1 KiB output range costs %d gas more than none, want %d", d, memoryGas(32))
		}
	}
}

func TestCallInsufficientBalanceReturnsZero(t *testing.T) {
	st := NewMemState()
	self := chain.AddressFromBytes([]byte("poor"))
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.PushUint(40)
	a.PushUint(0xdead)
	a.PushUint(0).Op(CALL)
	returnTop(a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(Context{State: st, Address: self, GasLimit: 100000}, code)
	wantReturn(t, res, 0)
}

func TestOutOfGas(t *testing.T) {
	a := NewAssembler()
	a.PushUint(1).PushUint(1).Op(SSTORE).Op(STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(Context{State: NewMemState(), GasLimit: 1000}, code)
	if !errors.Is(res.Err, ErrOutOfGas) {
		t.Fatalf("err = %v, want out of gas", res.Err)
	}
	if res.GasUsed != 1000 {
		t.Fatal("OOG must consume the full limit")
	}
}

func TestMemoryExpansionGas(t *testing.T) {
	// MSTORE at offset 0 vs offset 4096: the latter pays quadratic
	// expansion.
	near := run(t, func(a *Assembler) {
		a.PushUint(1).PushUint(0).Op(MSTORE, STOP)
	})
	far := run(t, func(a *Assembler) {
		a.PushUint(1).PushUint(4096).Op(MSTORE, STOP)
	})
	words := uint64((4096 + 32 + 31) / 32)
	wantDelta := memoryGas(words) - memoryGas(1)
	if far.GasUsed-near.GasUsed != wantDelta {
		t.Fatalf("expansion delta = %d, want %d", far.GasUsed-near.GasUsed, wantDelta)
	}
}

func TestIntrinsicGas(t *testing.T) {
	if got := IntrinsicGas(nil, false); got != GasTransaction {
		t.Fatalf("empty tx intrinsic %d", got)
	}
	data := []byte{0, 0, 1, 2}
	want := uint64(GasTransaction + 2*GasTxDataZero + 2*GasTxDataNonZero)
	if got := IntrinsicGas(data, false); got != want {
		t.Fatalf("intrinsic %d, want %d", got, want)
	}
	if got := IntrinsicGas(nil, true); got != GasTransaction+GasTxCreate {
		t.Fatalf("create intrinsic %d", got)
	}
}

func TestCalldataAndEnvironment(t *testing.T) {
	caller := chain.AddressFromBytes([]byte("caller"))
	res := run(t, func(a *Assembler) {
		a.Op(CALLER)
		returnTop(a)
	}, func(c *Context) { c.Caller = caller })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var got chain.Address
	copy(got[:], res.ReturnData[12:])
	if got != caller {
		t.Fatalf("CALLER = %s", got)
	}

	res = run(t, func(a *Assembler) {
		a.PushUint(0).Op(CALLDATALOAD)
		returnTop(a)
	}, func(c *Context) {
		c.CallData = append(make([]byte, 24), 0, 0, 0, 0, 0, 0, 0, 99)
	})
	wantReturn(t, res, 99)

	res = run(t, func(a *Assembler) { a.Op(CALLDATASIZE); returnTop(a) },
		func(c *Context) { c.CallData = make([]byte, 77) })
	wantReturn(t, res, 77)

	res = run(t, func(a *Assembler) { a.Op(TIMESTAMP); returnTop(a) },
		func(c *Context) { c.Timestamp = 1234 })
	wantReturn(t, res, 1234)
}

func TestLogs(t *testing.T) {
	res := run(t, func(a *Assembler) {
		a.PushBytes(append([]byte("event!"), make([]byte, 26)...)).PushUint(0).Op(MSTORE)
		a.PushUint(0xfeed) // topic
		a.PushUint(6).PushUint(0)
		a.Op(LOG1, STOP)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Logs) != 1 {
		t.Fatalf("logs = %d", len(res.Logs))
	}
	if string(res.Logs[0].Data) != "event!" {
		t.Fatalf("log data %q", res.Logs[0].Data)
	}
	if len(res.Logs[0].Topics) != 1 || res.Logs[0].Topics[0] != wordKey(0xfeed) {
		t.Fatalf("topics %v", res.Logs[0].Topics)
	}
}

func TestDupSwap(t *testing.T) {
	res := run(t, func(a *Assembler) {
		a.PushUint(1).PushUint(2).PushUint(3)
		a.Op(SWAP2) // [3,2,1]
		a.Op(DUP3)  // [3,2,1,3]
		a.Op(ADD)   // [3,2,4]
		returnTop(a)
	})
	wantReturn(t, res, 4)
}

// TestGasMonotonicInDataSize: executing the same storage-writing loop with
// more iterations must cost strictly more gas.
func TestGasMonotonicInDataSize(t *testing.T) {
	gasFor := func(n uint64) uint64 {
		a := NewAssembler()
		a.PushUint(0)
		a.Label("loop")
		a.Op(DUP1).PushUint(n).Op(SWAP1, LT, ISZERO)
		a.PushLabel("end").Op(JUMPI)
		a.PushUint(1).Op(DUP2, SSTORE)
		a.PushUint(1).Op(ADD)
		a.Jump("loop")
		a.Label("end").Op(STOP)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		res := Execute(Context{State: NewMemState(), GasLimit: 10_000_000}, code)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.GasUsed
	}
	err := quick.Check(func(x uint8) bool {
		n := uint64(x)%20 + 1
		return gasFor(n+1) > gasFor(n)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDisassembleRoundTrips(t *testing.T) {
	a := NewAssembler()
	a.PushUint(5).PushUint(3).Op(ADD)
	a.Jump("end")
	a.Label("end").Op(STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(code)
	for _, want := range []string{"PUSH1 0x05", "ADD", "JUMPDEST", "STOP"} {
		if !contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAssembler()
	a.Jump("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("undefined label accepted")
	}
	b := NewAssembler()
	b.Label("x")
	b.Label("x")
	if _, err := b.Assemble(); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

// countingState is a MemState that counts the storage writes it receives.
type countingState struct {
	*MemState
	sets map[chain.Hash32]int
}

func (s *countingState) SetStorage(addr chain.Address, key, value chain.Hash32) {
	s.sets[key]++
	s.MemState.SetStorage(addr, key, value)
}

// TestStorageWrittenOncePerDirtySlot: SLOAD and SSTORE run on the
// interpreter's slot table, and the state sees the table's outcome only.
// A successful execution writes every slot whose value changed once, with
// its final value, and no other; a reverted, failed or out-of-gas one
// writes nothing.
func TestStorageWrittenOncePerDirtySlot(t *testing.T) {
	stores := func(a *Assembler) {
		a.PushUint(7).PushUint(1).Op(SSTORE) // slot 1: 0 → 7
		a.PushUint(8).PushUint(2).Op(SSTORE) // slot 2: 0 → 8
		a.PushUint(9).PushUint(1).Op(SSTORE) // slot 1 again: → 9
		a.PushUint(0).PushUint(3).Op(SSTORE) // slot 3: 0 → 0, unchanged
		a.PushUint(6).PushUint(4).Op(SSTORE) // slot 4: 4 → 6 …
		a.PushUint(4).PushUint(4).Op(SSTORE) // … → 4, back to its original
		a.PushUint(5).Op(SLOAD, POP)         // slot 5: read only
	}
	cases := []struct {
		name string
		end  func(a *Assembler)
		gas  uint64
		want map[chain.Hash32]int
	}{
		{"success", func(a *Assembler) { a.Op(STOP) }, 1_000_000, map[chain.Hash32]int{wordKey(1): 1, wordKey(2): 1}},
		{"revert", func(a *Assembler) { a.PushUint(0).PushUint(0).Op(REVERT) }, 1_000_000, map[chain.Hash32]int{}},
		{"failed", func(a *Assembler) { a.Op(POP) }, 1_000_000, map[chain.Hash32]int{}},
		{"out of gas", func(a *Assembler) { a.Op(STOP) }, 50_000, map[chain.Hash32]int{}},
	}
	for _, tc := range cases {
		a := NewAssembler()
		stores(a)
		tc.end(a)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		st := &countingState{MemState: NewMemState(), sets: map[chain.Hash32]int{}}
		st.MemState.SetStorage(chain.Address{}, wordKey(4), wordKey(4))
		res := Execute(Context{State: st, GasLimit: tc.gas}, code)
		if failed := res.Err != nil || res.Reverted; failed != (tc.name != "success") {
			t.Fatalf("%s: err %v, reverted %v", tc.name, res.Err, res.Reverted)
		}
		if len(st.sets) != len(tc.want) {
			t.Fatalf("%s: SetStorage per slot %v, want %v", tc.name, st.sets, tc.want)
		}
		for key, n := range tc.want {
			if st.sets[key] != n {
				t.Fatalf("%s: SetStorage per slot %v, want %v", tc.name, st.sets, tc.want)
			}
		}
		if tc.name == "success" && (st.GetStorage(chain.Address{}, wordKey(1)) != wordKey(9) ||
			st.GetStorage(chain.Address{}, wordKey(4)) != wordKey(4)) {
			t.Fatalf("%s: slot 1 or slot 4 does not hold its final value", tc.name)
		}
	}
}
