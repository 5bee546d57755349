package evm

import (
	"fmt"
	"math/big"

	"agnopol/internal/chain"
	"agnopol/internal/polcrypto"
	"agnopol/internal/precompile"
	"agnopol/internal/u256"
)

// This file preserves the original big.Int interpreter, verbatim, as
// executeRef: the semantic oracle of the tests that pin the u256 fast path
// (diff_test.go, precompile_test.go, FuzzExecuteAgainstRef, and through
// export_test.go the shipped-contract differential in contracts_test.go).
// Every opcode of the fast interpreter must agree bit-for-bit with this
// one. It is test code: no shipped binary links it.
//
// It allocates a *big.Int per opcode by design; do not optimize it.

var (
	two64  = new(big.Int).Lsh(big.NewInt(1), 64)
	two256 = new(big.Int).Lsh(big.NewInt(1), 256)
)

// refMemRange is the reference reading of a memory (offset, size) operand
// pair, in big.Int arithmetic: a zero size touches nothing, and any other
// range that ends at 2^64 or beyond cannot be paid for (ok = false: the
// caller halts out of gas).
func refMemRange(off, size *big.Int) (o, s uint64, ok bool) {
	if size.Sign() == 0 {
		return 0, 0, true
	}
	if new(big.Int).Add(off, size).Cmp(two64) >= 0 {
		return 0, 0, false
	}
	return off.Uint64(), size.Uint64(), true
}

// refCalldata is the calldata from offset off on: empty once off is at or
// past its end, whatever the width of off.
func refCalldata(data []byte, off *big.Int) []byte {
	if off.Cmp(big.NewInt(int64(len(data)))) >= 0 {
		return nil
	}
	return data[off.Int64():]
}

// refJumpDest is the jump destination a word names, if it names a JUMPDEST.
func (in *refInterpreter) refJumpDest(w *big.Int) (uint64, bool) {
	if w.Cmp(two64) >= 0 {
		return 0, false
	}
	return w.Uint64(), in.jumpdests[w.Uint64()]
}

// refState is the reference interpreter's state: the fast VM's balance
// journal plus a journal of every storage write, which the reference
// undoes on a revert where the fast VM's slot table simply never writes.
type refState struct {
	journaledState
}

func (s *refState) GetStorage(addr chain.Address, key chain.Hash32) chain.Hash32 {
	return s.inner.GetStorage(addr, key)
}

func (s *refState) SetStorage(addr chain.Address, key, value chain.Hash32) {
	prev := s.inner.GetStorage(addr, key)
	s.inner.SetStorage(addr, key, value)
	s.j.record(func() { s.inner.SetStorage(addr, key, prev) })
}

type refInterpreter struct {
	ctx   Context
	state *refState
	code  []byte

	stack  []*big.Int
	mem    []byte
	gas    uint64
	refund uint64
	logs   []Log

	warmAddrs map[chain.Address]bool
	warmSlots map[chain.Address]map[chain.Hash32]bool
	origSlots map[chain.Address]map[chain.Hash32]chain.Hash32

	jumpdests map[uint64]bool

	// pcArgs is the precompileHost scratch for resolved argument ranges.
	pcArgs [maxPrecompileRanges][]byte

	profOp    Opcode
	profStart uint64
	profArmed bool
}

func (in *refInterpreter) precompileArgs() *[maxPrecompileRanges][]byte {
	return &in.pcArgs
}

func (in *refInterpreter) profTick(op Opcode) {
	if in.profArmed {
		in.ctx.Profiler.Op(in.profOp.String(), in.profStart-in.gas)
	}
	in.profArmed = true
	in.profOp = op
	in.profStart = in.gas
}

func (in *refInterpreter) profFlush() {
	if in.profArmed {
		in.ctx.Profiler.Op(in.profOp.String(), in.profStart-in.gas)
		in.profArmed = false
	}
}

// executeRef runs code on the retained big.Int reference interpreter. Same
// contract as Execute.
func executeRef(ctx Context, code []byte) Result {
	in := &refInterpreter{
		ctx:       ctx,
		state:     &refState{journaledState{inner: ctx.State}},
		code:      code,
		gas:       ctx.GasLimit,
		warmAddrs: map[chain.Address]bool{ctx.Address: true, ctx.Caller: true},
		warmSlots: make(map[chain.Address]map[chain.Hash32]bool),
		origSlots: make(map[chain.Address]map[chain.Hash32]chain.Hash32),
		jumpdests: scanJumpdestMap(code),
	}
	res := in.run()
	if res.Err != nil || res.Reverted {
		in.state.j.revert()
	} else {
		res.Logs = in.logs
	}
	return res
}

func scanJumpdestMap(code []byte) map[uint64]bool {
	dests := make(map[uint64]bool)
	for pc := 0; pc < len(code); {
		op := Opcode(code[pc])
		if op == JUMPDEST {
			dests[uint64(pc)] = true
		}
		if n, ok := op.IsPush(); ok {
			pc += n
		}
		pc++
	}
	return dests
}

func (in *refInterpreter) useGas(amount uint64) bool {
	if in.gas < amount {
		in.gas = 0
		return false
	}
	in.gas -= amount
	return true
}

func (in *refInterpreter) push(v *big.Int) error {
	if len(in.stack) >= stackLimit {
		return ErrStackOverflow
	}
	in.stack = append(in.stack, v)
	return nil
}

func (in *refInterpreter) pop() (*big.Int, error) {
	if len(in.stack) == 0 {
		return nil, ErrStackUnderflow
	}
	v := in.stack[len(in.stack)-1]
	in.stack = in.stack[:len(in.stack)-1]
	return v, nil
}

func (in *refInterpreter) popN(n int) ([]*big.Int, error) {
	if len(in.stack) < n {
		return nil, ErrStackUnderflow
	}
	out := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		out[i] = in.stack[len(in.stack)-1-i]
	}
	in.stack = in.stack[:len(in.stack)-n]
	return out, nil
}

func (in *refInterpreter) expandMem(off, size uint64) bool {
	if size == 0 {
		return true
	}
	end := off + size
	if end < off || end > 1<<32 {
		in.gas = 0
		return false
	}
	curWords := uint64(len(in.mem)+31) / 32
	newWords := (end + 31) / 32
	if newWords > curWords {
		if !in.useGas(memoryGas(newWords) - memoryGas(curWords)) {
			return false
		}
		grown := make([]byte, newWords*32)
		copy(grown, in.mem)
		in.mem = grown
	}
	return true
}

func (in *refInterpreter) memSlice(off, size uint64) []byte {
	if size == 0 {
		return nil
	}
	return in.mem[off : off+size]
}

func refU256(v *big.Int) *big.Int {
	if v.Sign() < 0 || v.Cmp(two256) >= 0 {
		return new(big.Int).Mod(v, two256)
	}
	return v
}

func refBoolWord(b bool) *big.Int {
	if b {
		return big.NewInt(1)
	}
	return new(big.Int)
}

func refWordToHash(v *big.Int) chain.Hash32 {
	var h chain.Hash32
	v.FillBytes(h[:])
	return h
}

func refHashToWord(h chain.Hash32) *big.Int {
	return new(big.Int).SetBytes(h[:])
}

func refWordToAddress(v *big.Int) chain.Address {
	var buf [32]byte
	v.FillBytes(buf[:])
	var a chain.Address
	copy(a[:], buf[12:])
	return a
}

func (in *refInterpreter) slotWarm(addr chain.Address, key chain.Hash32) bool {
	m, ok := in.warmSlots[addr]
	if !ok {
		m = make(map[chain.Hash32]bool)
		in.warmSlots[addr] = m
	}
	if m[key] {
		return true
	}
	m[key] = true
	return false
}

func (in *refInterpreter) originalSlot(addr chain.Address, key chain.Hash32) chain.Hash32 {
	m, ok := in.origSlots[addr]
	if !ok {
		m = make(map[chain.Hash32]chain.Hash32)
		in.origSlots[addr] = m
	}
	if v, ok := m[key]; ok {
		return v
	}
	v := in.state.GetStorage(addr, key)
	m[key] = v
	return v
}

//nolint:gocyclo // a bytecode interpreter is one big dispatch by nature.
func (in *refInterpreter) run() Result {
	fail := func(err error) Result {
		// Exceptional halt: consume everything.
		in.profFlush()
		return Result{GasUsed: in.ctx.GasLimit, Err: err}
	}
	var pc uint64
	for pc < uint64(len(in.code)) {
		op := Opcode(in.code[pc])
		if in.ctx.Profiler != nil {
			in.profTick(op)
		}

		if g, ok := constGas[op]; ok {
			if !in.useGas(g) {
				return fail(ErrOutOfGas)
			}
		}

		switch {
		case op >= PUSH1 && op <= PUSH32:
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			n := uint64(op-PUSH1) + 1
			end := pc + 1 + n
			if end > uint64(len(in.code)) {
				end = uint64(len(in.code))
			}
			v := new(big.Int).SetBytes(in.code[pc+1 : end])
			if err := in.push(v); err != nil {
				return fail(err)
			}
			pc += n + 1
			continue

		case op >= DUP1 && op <= DUP6:
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			n := int(op-DUP1) + 1
			if len(in.stack) < n {
				return fail(ErrStackUnderflow)
			}
			if err := in.push(new(big.Int).Set(in.stack[len(in.stack)-n])); err != nil {
				return fail(err)
			}
			pc++
			continue

		case op >= SWAP1 && op <= SWAP5:
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			n := int(op-SWAP1) + 1
			if len(in.stack) < n+1 {
				return fail(ErrStackUnderflow)
			}
			top := len(in.stack) - 1
			in.stack[top], in.stack[top-n] = in.stack[top-n], in.stack[top]
			pc++
			continue
		}

		switch op {
		case STOP:
			in.profFlush()
			return Result{GasUsed: in.ctx.GasLimit - in.gas, Refund: in.refund}

		case ADD, MUL, SUB, DIV, MOD, AND, OR, LT, GT, EQ, SHL, SHR:
			args, err := in.popN(2)
			if err != nil {
				return fail(err)
			}
			a, b := args[0], args[1]
			var v *big.Int
			switch op {
			case ADD:
				v = refU256(new(big.Int).Add(a, b))
			case MUL:
				v = refU256(new(big.Int).Mul(a, b))
			case SUB:
				v = refU256(new(big.Int).Sub(a, b))
			case DIV:
				if b.Sign() == 0 {
					v = new(big.Int)
				} else {
					v = new(big.Int).Div(a, b)
				}
			case MOD:
				if b.Sign() == 0 {
					v = new(big.Int)
				} else {
					v = new(big.Int).Mod(a, b)
				}
			case AND:
				v = new(big.Int).And(a, b)
			case OR:
				v = new(big.Int).Or(a, b)
			case LT:
				v = refBoolWord(a.Cmp(b) < 0)
			case GT:
				v = refBoolWord(a.Cmp(b) > 0)
			case EQ:
				v = refBoolWord(a.Cmp(b) == 0)
			case SHL:
				if a.Cmp(big.NewInt(256)) >= 0 {
					v = new(big.Int)
				} else {
					v = refU256(new(big.Int).Lsh(b, uint(a.Uint64())))
				}
			case SHR:
				if a.Cmp(big.NewInt(256)) >= 0 {
					v = new(big.Int)
				} else {
					v = new(big.Int).Rsh(b, uint(a.Uint64()))
				}
			}
			if err := in.push(v); err != nil {
				return fail(err)
			}

		case ISZERO:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			if err := in.push(refBoolWord(a.Sign() == 0)); err != nil {
				return fail(err)
			}

		case KECCAK256:
			args, err := in.popN(2)
			if err != nil {
				return fail(err)
			}
			off, size, ok := refMemRange(args[0], args[1])
			if !ok {
				return fail(ErrOutOfGas)
			}
			words := (size + 31) / 32
			if !in.useGas(GasKeccak256 + GasKeccak256Word*words) {
				return fail(ErrOutOfGas)
			}
			if !in.expandMem(off, size) {
				return fail(ErrOutOfGas)
			}
			h := polcrypto.Hash1(in.memSlice(off, size))
			if err := in.push(new(big.Int).SetBytes(h[:])); err != nil {
				return fail(err)
			}

		case CALLER:
			if err := in.push(new(big.Int).SetBytes(in.ctx.Caller[:])); err != nil {
				return fail(err)
			}
		case CALLVALUE:
			if err := in.push(in.ctx.Value.ToBig()); err != nil {
				return fail(err)
			}
		case TIMESTAMP:
			if err := in.push(new(big.Int).SetUint64(in.ctx.Timestamp)); err != nil {
				return fail(err)
			}
		case SELFBALANCE:
			if err := in.push(in.state.GetBalance(in.ctx.Address).ToBig()); err != nil {
				return fail(err)
			}

		case CALLDATALOAD:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			var buf [32]byte
			copy(buf[:], refCalldata(in.ctx.CallData, a))
			if err := in.push(new(big.Int).SetBytes(buf[:])); err != nil {
				return fail(err)
			}
		case CALLDATASIZE:
			if err := in.push(big.NewInt(int64(len(in.ctx.CallData)))); err != nil {
				return fail(err)
			}
		case CALLDATACOPY:
			vals, err := in.popN(3)
			if err != nil {
				return fail(err)
			}
			dst, size, ok := refMemRange(vals[0], vals[2])
			if !ok {
				return fail(ErrOutOfGas)
			}
			words := (size + 31) / 32
			if !in.useGas(GasVeryLow + GasCopy*words) {
				return fail(ErrOutOfGas)
			}
			if !in.expandMem(dst, size) {
				return fail(ErrOutOfGas)
			}
			mem := in.memSlice(dst, size)
			clear(mem[copy(mem, refCalldata(in.ctx.CallData, vals[1])):])

		case POP:
			if _, err := in.pop(); err != nil {
				return fail(err)
			}

		case MLOAD:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			off, _, ok := refMemRange(a, big.NewInt(32))
			if !ok || !in.expandMem(off, 32) {
				return fail(ErrOutOfGas)
			}
			if err := in.push(new(big.Int).SetBytes(in.memSlice(off, 32))); err != nil {
				return fail(err)
			}
		case MSTORE:
			args, err := in.popN(2)
			if err != nil {
				return fail(err)
			}
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			off, _, ok := refMemRange(args[0], big.NewInt(32))
			if !ok || !in.expandMem(off, 32) {
				return fail(ErrOutOfGas)
			}
			args[1].FillBytes(in.mem[off : off+32])

		case SLOAD:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			key := refWordToHash(a)
			cost := uint64(GasColdSLoad)
			if in.slotWarm(in.ctx.Address, key) {
				cost = GasWarmAccess
			}
			if !in.useGas(cost) {
				return fail(ErrOutOfGas)
			}
			if err := in.push(refHashToWord(in.state.GetStorage(in.ctx.Address, key))); err != nil {
				return fail(err)
			}

		case SSTORE:
			args, err := in.popN(2)
			if err != nil {
				return fail(err)
			}
			key := refWordToHash(args[0])
			value := refWordToHash(args[1])
			cost := uint64(0)
			if !in.slotWarm(in.ctx.Address, key) {
				cost += GasColdSLoad
			}
			current := in.state.GetStorage(in.ctx.Address, key)
			original := in.originalSlot(in.ctx.Address, key)
			switch {
			case current == value:
				cost += GasWarmAccess
			case current == original && original == (chain.Hash32{}):
				cost += GasSSet
			case current == original:
				cost += GasSReset
			default:
				cost += GasWarmAccess
			}
			if current != value && value == (chain.Hash32{}) && current != (chain.Hash32{}) {
				in.refund += RefundSClear
			}
			if !in.useGas(cost) {
				return fail(ErrOutOfGas)
			}
			in.state.SetStorage(in.ctx.Address, key, value)

		case JUMP:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			dest, ok := in.refJumpDest(a)
			if !ok {
				return fail(ErrInvalidJump)
			}
			pc = dest
			continue
		case JUMPI:
			args, err := in.popN(2)
			if err != nil {
				return fail(err)
			}
			if args[1].Sign() != 0 {
				dest, ok := in.refJumpDest(args[0])
				if !ok {
					return fail(ErrInvalidJump)
				}
				pc = dest
				continue
			}

		case JUMPDEST:
			// cost charged via constGas; no effect.

		case LOG1:
			args, err := in.popN(3)
			if err != nil {
				return fail(err)
			}
			off, size, ok := refMemRange(args[0], args[1])
			if !ok {
				return fail(ErrOutOfGas)
			}
			if !in.useGas(GasLog + GasLogTopic + GasLogData*size) {
				return fail(ErrOutOfGas)
			}
			if !in.expandMem(off, size) {
				return fail(ErrOutOfGas)
			}
			in.logs = append(in.logs, Log{
				Address: in.ctx.Address,
				Topics:  []chain.Hash32{refWordToHash(args[2])},
				Data:    append([]byte(nil), in.memSlice(off, size)...),
			})

		case CALL:
			// Value-transfer call (the contract language only transfers to
			// externally-owned accounts; nested contract execution is not
			// part of the compiled programs). Either kind pays memory
			// expansion for its input and output ranges.
			args, err := in.popN(7)
			if err != nil {
				return fail(err)
			}
			to := refWordToAddress(args[1])
			inOff, inSize, inOK := refMemRange(args[3], args[4])
			outOff, outSize, outOK := refMemRange(args[5], args[6])
			if !inOK || !outOK {
				return fail(ErrOutOfGas)
			}
			if p := precompile.ByAddress(to); p != nil {
				ok, oog := runPrecompile(in, p, args[2].Sign() == 0, inOff, inSize, outOff, outSize)
				if oog {
					return fail(ErrOutOfGas)
				}
				result := new(big.Int)
				if ok {
					result.SetUint64(1)
				}
				if err := in.push(result); err != nil {
					return fail(err)
				}
				pc++
				continue
			}
			value := args[2]
			cost := uint64(GasColdAccount)
			if in.warmAddrs[to] {
				cost = GasWarmAccess
			}
			in.warmAddrs[to] = true
			if value.Sign() > 0 {
				cost += GasCallValue
				if !in.state.AccountExists(to) {
					cost += GasNewAccount
				}
			}
			if !in.useGas(cost) {
				return fail(ErrOutOfGas)
			}
			if !in.expandMem(inOff, inSize) || !in.expandMem(outOff, outSize) {
				return fail(ErrOutOfGas)
			}
			// The balances are words: the oracle converts at its own
			// StateDB boundary.
			if in.state.GetBalance(in.ctx.Address).ToBig().Cmp(value) < 0 {
				if err := in.push(new(big.Int)); err != nil {
					return fail(err)
				}
			} else {
				in.state.SubBalance(in.ctx.Address, u256.FromBig(value))
				in.state.AddBalance(to, u256.FromBig(value))
				if err := in.push(big.NewInt(1)); err != nil {
					return fail(err)
				}
			}

		case RETURN, REVERT:
			args, err := in.popN(2)
			if err != nil {
				return fail(err)
			}
			off, size, ok := refMemRange(args[0], args[1])
			if !ok || !in.expandMem(off, size) {
				return fail(ErrOutOfGas)
			}
			data := append([]byte(nil), in.memSlice(off, size)...)
			in.profFlush()
			res := Result{
				GasUsed:    in.ctx.GasLimit - in.gas,
				Refund:     in.refund,
				ReturnData: data,
			}
			if op == REVERT {
				res.Reverted = true
				res.RevertMsg = string(data)
				res.Refund = 0
			}
			return res

		default:
			return fail(fmt.Errorf("%w: %s at pc=%d", ErrInvalidOpcode, op, pc))
		}
		pc++
	}
	in.profFlush()
	return Result{GasUsed: in.ctx.GasLimit - in.gas, Refund: in.refund}
}
