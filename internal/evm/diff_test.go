package evm

import (
	"bytes"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/precompile"
	"agnopol/internal/u256"
)

// cloneMemState deep-copies a MemState so the fast and reference
// interpreters each mutate an independent world.
func cloneMemState(s *MemState) *MemState {
	c := NewMemState()
	for a, b := range s.Balances {
		c.Balances[a] = b
	}
	for a, m := range s.Storage {
		cm := make(map[chain.Hash32]chain.Hash32, len(m))
		for k, v := range m {
			cm[k] = v
		}
		c.Storage[a] = cm
	}
	return c
}

// memStatesEqual compares balances and storage words. An absent and an
// empty per-address storage map hold the same words: the reference engine
// leaves an empty map behind when it undoes a reverted write, the fast
// engine never writes one.
func memStatesEqual(a, b *MemState) bool {
	if len(a.Balances) != len(b.Balances) {
		return false
	}
	for addr, ba := range a.Balances {
		bb, ok := b.Balances[addr]
		if !ok || ba != bb {
			return false
		}
	}
	return storageWithin(a, b) && storageWithin(b, a)
}

// storageWithin reports whether every storage word of a is in b.
func storageWithin(a, b *MemState) bool {
	for addr, ma := range a.Storage {
		mb := b.Storage[addr]
		if len(ma) != len(mb) {
			return false
		}
		for k, v := range ma {
			if mb[k] != v {
				return false
			}
		}
	}
	return true
}

func resultsEqual(a, b Result) bool {
	if a.GasUsed != b.GasUsed || a.Refund != b.Refund ||
		a.Reverted != b.Reverted || a.RevertMsg != b.RevertMsg {
		return false
	}
	if !bytes.Equal(a.ReturnData, b.ReturnData) {
		return false
	}
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil && a.Err.Error() != b.Err.Error() {
		return false
	}
	return reflect.DeepEqual(a.Logs, b.Logs)
}

// genProgram emits a random but mostly-well-formed bytecode sequence. The
// generator draws only opcodes Execute runs, biased toward those that
// exercise u256 arithmetic and the memory/storage paths; a tail fraction of
// programs also contains raw garbage bytes, among them the invalid opcodes,
// so exceptional-halt parity is covered too.
func genProgram(rng *rand.Rand) []byte {
	var p []byte
	pushRand := func() {
		n := 1 + rng.Intn(32)
		p = append(p, byte(PUSH1)+byte(n-1))
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				p = append(p, 0x00)
			case 1:
				p = append(p, 0xff)
			default:
				p = append(p, byte(rng.Intn(256)))
			}
		}
	}
	pushSmall := func(v byte) { p = append(p, byte(PUSH1), v) }

	steps := 4 + rng.Intn(40)
	for i := 0; i < steps; i++ {
		switch rng.Intn(20) {
		case 0, 1, 2, 3, 4:
			pushRand()
		case 5, 6:
			// Binary op on whatever is on the stack (may underflow — both
			// engines must agree on that too).
			ops := []Opcode{ADD, MUL, SUB, DIV, MOD, AND, OR, LT, GT, EQ, SHL, SHR}
			p = append(p, byte(ops[rng.Intn(len(ops))]))
		case 7:
			p = append(p, byte([]Opcode{ISZERO, POP}[rng.Intn(2)]))
		case 8:
			p = append(p, byte(DUP1)+byte(rng.Intn(int(DUP6-DUP1)+1)))
		case 9:
			p = append(p, byte(SWAP1)+byte(rng.Intn(int(SWAP5-SWAP1)+1)))
		case 10:
			// Bounded memory traffic.
			pushRand()
			pushSmall(byte(rng.Intn(200)))
			p = append(p, byte(MSTORE))
		case 11:
			pushSmall(byte(rng.Intn(200)))
			p = append(p, byte(MLOAD))
		case 12:
			pushRand()
			pushSmall(byte(rng.Intn(8)))
			p = append(p, byte(SSTORE))
		case 13:
			pushSmall(byte(rng.Intn(8)))
			p = append(p, byte(SLOAD))
		case 14:
			p = append(p, byte([]Opcode{CALLER, CALLVALUE, TIMESTAMP,
				CALLDATASIZE, SELFBALANCE, JUMPDEST}[rng.Intn(6)]))
		case 15:
			pushSmall(byte(rng.Intn(64)))
			p = append(p, byte(CALLDATALOAD))
		case 16:
			pushSmall(byte(rng.Intn(32)))
			pushSmall(byte(rng.Intn(64)))
			p = append(p, byte(KECCAK256))
		case 17:
			// Jump somewhere — occasionally valid, mostly an error; parity
			// on ErrInvalidJump is part of the contract.
			pushSmall(byte(rng.Intn(len(p) + 2)))
			p = append(p, byte([]Opcode{JUMP, JUMPI}[rng.Intn(2)]))
		case 18:
			pushRand()
			pushSmall(byte(rng.Intn(16)))
			pushSmall(byte(rng.Intn(32)))
			p = append(p, byte(LOG1))
		case 19:
			if rng.Intn(3) == 0 {
				p = append(p, byte(rng.Intn(256))) // raw garbage
			} else {
				pushSmall(byte(rng.Intn(32)))
				pushSmall(byte(rng.Intn(32)))
				p = append(p, byte([]Opcode{RETURN, REVERT, STOP}[rng.Intn(3)]))
			}
		}
	}
	return p
}

// TestDifferentialRandomPrograms runs thousands of generated programs
// through both interpreters and requires bit-identical results and final
// world state — the whole-VM extension of the u256 property tests.
func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	addr := chain.Address{0xaa}
	caller := chain.Address{0xbb}
	for i := 0; i < 4000; i++ {
		code := genProgram(rng)
		calldata := make([]byte, rng.Intn(96))
		rng.Read(calldata)

		base := NewMemState()
		base.Balances[addr] = u256.FromUint64(uint64(rng.Intn(1_000_000)))
		base.Balances[caller] = u256.FromUint64(1_000_000)
		if rng.Intn(2) == 0 {
			base.SetStorage(addr, chain.Hash32{1}, chain.Hash32{9})
		}
		stFast := cloneMemState(base)
		stRef := cloneMemState(base)

		value := u256.FromUint64(uint64(rng.Intn(1000)))
		gas := uint64(20_000 + rng.Intn(200_000))
		mk := func(st StateDB) Context {
			return Context{
				State:     st,
				Caller:    caller,
				Address:   addr,
				Value:     value,
				CallData:  calldata,
				GasLimit:  gas,
				Timestamp: 1234567,
			}
		}

		got := Execute(mk(stFast), code)
		want := executeRef(mk(stRef), code)

		if !resultsEqual(got, want) {
			t.Fatalf("iter %d: result mismatch\ncode=%x\nfast=%+v\nref=%+v", i, code, got, want)
		}
		if !memStatesEqual(stFast, stRef) {
			t.Fatalf("iter %d: state diverged\ncode=%x", i, code)
		}
	}
}

// TestDifferentialCallTransfer pins the CALL value-transfer path, which the
// random generator rarely assembles with seven well-formed arguments.
func TestDifferentialCallTransfer(t *testing.T) {
	addr := chain.Address{0xaa}
	caller := chain.Address{0xbb}
	dest := chain.Address{0xcc}

	// PUSH 0 (retSize, retOff, argSize, argOff) PUSH value PUSH to PUSH gas CALL STOP
	var code []byte
	for i := 0; i < 4; i++ {
		code = append(code, byte(PUSH1), 0)
	}
	code = append(code, byte(PUSH1)+1, 0x01, 0x00) // PUSH2 value 256
	code = append(code, byte(PUSH32))
	var toWord [32]byte
	copy(toWord[12:], dest[:])
	code = append(code, toWord[:]...)
	code = append(code, byte(PUSH1), 0, byte(CALL), byte(STOP))

	for _, bal := range []uint64{0, 255, 256, 100000} {
		base := NewMemState()
		base.Balances[addr] = u256.FromUint64(bal)
		stFast := cloneMemState(base)
		stRef := cloneMemState(base)
		mk := func(st StateDB) Context {
			return Context{State: st, Caller: caller, Address: addr, GasLimit: 100_000}
		}
		got := Execute(mk(stFast), code)
		want := executeRef(mk(stRef), code)
		if !resultsEqual(got, want) {
			t.Fatalf("bal %d: result mismatch fast=%+v ref=%+v", bal, got, want)
		}
		if !memStatesEqual(stFast, stRef) {
			t.Fatalf("bal %d: state diverged", bal)
		}
	}
}

// FuzzExecuteAgainstRef runs arbitrary bytecode and calldata through both
// engines: result, gas, refund, logs and final state must agree bit for
// bit, and neither may panic. The seeds aim at the memory paths' overflow
// handling — MLOAD, MSTORE, CALLDATACOPY and KECCAK256 at offsets and sizes
// near 2^64 (each engine applies its own reading of a word of 2^64 or more,
// and both refuse any range that wraps or passes 4 GiB), precompile
// descriptors naming ranges there, and every row of
// TestWordsOf2To64AndAbove (value-transfer CALL ranges among them) — where
// a fast-path shortcut would part from big.Int — then the two stack
// overflows of TestStackErrors.
// Run with -fuzzminimizetime 2s: minimising one long input otherwise eats
// the budget. Crashers land in testdata/fuzz/FuzzExecuteAgainstRef with
// their fix.
func FuzzExecuteAgainstRef(f *testing.F) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	near := []*big.Int{
		new(big.Int).Sub(two64, big.NewInt(32)), new(big.Int).Sub(two64, big.NewInt(1)),
		two64, new(big.Int).Add(two64, big.NewInt(5)),
	}
	seed := func(calldata []byte, build func(a *Assembler)) {
		a := NewAssembler()
		build(a)
		a.PushUint(32).PushUint(0).Op(RETURN)
		code, err := a.Assemble()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code, calldata)
	}
	for _, v := range near {
		seed(nil, func(a *Assembler) { a.PushBytes(v.Bytes()).Op(MLOAD, POP) })
		seed(nil, func(a *Assembler) { a.PushUint(1).PushBytes(v.Bytes()).Op(MSTORE) })
		// CALLDATACOPY pops dst, src, size; KECCAK256 pops offset, size.
		seed(nil, func(a *Assembler) { a.PushUint(32).PushUint(0).PushBytes(v.Bytes()).Op(CALLDATACOPY) })
		seed(nil, func(a *Assembler) { a.PushUint(32).PushBytes(v.Bytes()).PushUint(0).Op(CALLDATACOPY) })
		seed(nil, func(a *Assembler) { a.PushBytes(v.Bytes()).PushUint(0).PushUint(0).Op(CALLDATACOPY) })
		seed(nil, func(a *Assembler) { a.PushUint(32).PushBytes(v.Bytes()).Op(KECCAK256, POP) })
		seed(nil, func(a *Assembler) { a.PushBytes(v.Bytes()).PushUint(0).Op(KECCAK256, POP) })
		// A sha256 precompile CALL whose one descriptor range starts, or
		// runs, near 2^64, and one whose output region does.
		for _, r := range [][2]*big.Int{{v, big.NewInt(32)}, {big.NewInt(0x100), v}} {
			seed(nil, func(a *Assembler) {
				a.PushBytes(r[0].Bytes()).PushUint(0).Op(MSTORE)
				a.PushBytes(r[1].Bytes()).PushUint(32).Op(MSTORE)
				emitCall(a, precompile.IDSha256, 0, 1, 0x80, 0)
				a.Op(POP)
			})
		}
		seed(nil, func(a *Assembler) {
			a.PushUint(0x100).PushUint(0).Op(MSTORE)
			a.PushUint(32).PushUint(32).Op(MSTORE)
			a.PushUint(32).PushBytes(v.Bytes()).PushUint(64).PushUint(0)
			a.PushUint(0).PushUint(uint64(precompile.IDSha256)).PushUint(0).Op(CALL, POP)
		})
	}
	// Offsets read from calldata, so mutating the input moves them.
	word := make([]byte, 32)
	near[3].FillBytes(word)
	seed(word, func(a *Assembler) { a.PushUint(0).Op(CALLDATALOAD, MLOAD, POP) })
	seed(word, func(a *Assembler) { a.PushUint(32).PushUint(0).Op(CALLDATALOAD, KECCAK256, POP) })
	for _, row := range wordRangeRows() {
		a := NewAssembler()
		row.build(a)
		code, err := a.Assemble()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code, row.calldata)
	}
	// The stack limit, which random inputs never get near.
	f.Add(pushed(stackLimit+1), []byte(nil))
	f.Add(pushed(stackLimit, DUP1), []byte(nil))

	addr, caller := chain.Address{0xaa}, chain.Address{0xbb}
	f.Fuzz(func(t *testing.T, code, calldata []byte) {
		base := NewMemState()
		base.Balances[addr] = u256.FromUint64(1_000_000)
		base.Balances[caller] = u256.FromUint64(1_000_000)
		base.SetStorage(addr, chain.Hash32{1}, chain.Hash32{9})
		stFast, stRef := cloneMemState(base), cloneMemState(base)
		mk := func(st StateDB) Context {
			// 200 000 gas bounds memory expansion at ≈ 320 KiB.
			return Context{
				State: st, Caller: caller, Address: addr, Value: u256.FromUint64(7),
				CallData: calldata, GasLimit: 200_000, Timestamp: 1234567,
			}
		}
		// The fuzzing engine rewrites its input buffer in place between
		// calls, and Execute may reuse the jump destinations of code it has
		// run by the slice's identity: contract code never changes once
		// stored.
		code = bytes.Clone(code)
		got, want := Execute(mk(stFast), code), executeRef(mk(stRef), code)
		if !resultsEqual(got, want) {
			t.Fatalf("result mismatch\ncode=%x\ncalldata=%x\nfast=%+v\nref=%+v", code, calldata, got, want)
		}
		if !memStatesEqual(stFast, stRef) {
			t.Fatalf("state diverged\ncode=%x\ncalldata=%x", code, calldata)
		}
	})
}

// TestPooledInterpreterIsolation re-runs the same contract through the pool
// many times with different inputs; a leak of pooled state (stale memory,
// stale warm sets, stale jumpdests) would break run-to-run determinism.
func TestPooledInterpreterIsolation(t *testing.T) {
	addr := chain.Address{0x11}
	// MSTORE calldata word at 0, hash it, store it, return it.
	code := []byte{
		byte(PUSH1), 0, byte(CALLDATALOAD),
		byte(PUSH1), 0, byte(MSTORE),
		byte(PUSH1), 32, byte(PUSH1), 0, byte(KECCAK256),
		byte(PUSH1), 5, byte(SSTORE),
		byte(PUSH1), 32, byte(PUSH1), 0, byte(RETURN),
	}
	for round := 0; round < 50; round++ {
		calldata := make([]byte, 32)
		calldata[31] = byte(round)
		run := func() (Result, *MemState) {
			st := NewMemState()
			res := Execute(Context{State: st, Address: addr, CallData: calldata, GasLimit: 200_000}, code)
			return res, st
		}
		r1, s1 := run()
		r2, s2 := run()
		if r1.Err != nil {
			t.Fatalf("round %d: %v", round, r1.Err)
		}
		if !resultsEqual(r1, r2) || !memStatesEqual(s1, s2) {
			t.Fatalf("round %d: pooled run not deterministic", round)
		}
	}
}

// TestPooledInterpreterConcurrent exercises the pool under -race.
func TestPooledInterpreterConcurrent(t *testing.T) {
	code := []byte{
		byte(PUSH1), 7, byte(PUSH1), 9, byte(MUL),
		byte(PUSH1), 0, byte(MSTORE),
		byte(PUSH1), 32, byte(PUSH1), 0, byte(RETURN),
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				st := NewMemState()
				res := Execute(Context{State: st, GasLimit: 100_000, Address: chain.Address{byte(i)}}, code)
				if res.Err != nil || len(res.ReturnData) != 32 || res.ReturnData[31] != 63 {
					done <- res.Err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
