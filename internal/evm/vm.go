package evm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"agnopol/internal/chain"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
	"agnopol/internal/precompile"
	"agnopol/internal/u256"
)

// Execution errors. Any of them consumes all remaining gas and reverts state
// changes, exactly as on Ethereum.
var (
	ErrOutOfGas       = errors.New("evm: out of gas")
	ErrStackUnderflow = errors.New("evm: stack underflow")
	ErrStackOverflow  = errors.New("evm: stack overflow")
	ErrInvalidJump    = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode  = errors.New("evm: invalid opcode")
)

const stackLimit = 1024

// Log is an emitted event.
type Log struct {
	Address chain.Address
	Topics  []chain.Hash32
	Data    []byte
}

// Context carries everything one contract execution needs.
type Context struct {
	State    StateDB
	Caller   chain.Address
	Address  chain.Address
	Value    u256.Word
	CallData []byte
	GasLimit uint64
	// Timestamp is the block timestamp in seconds.
	Timestamp uint64
	// Profiler, when non-nil, receives every executed opcode with the
	// gas it consumed (per-opcode gas attribution). The hot path pays a
	// single nil check when unset.
	Profiler obs.Profiler
}

// Result is the outcome of an execution.
type Result struct {
	GasUsed    uint64
	Refund     uint64
	Reverted   bool
	RevertMsg  string
	ReturnData []byte
	// Logs are the events of a successful execution; a reverted or
	// failed one emits none.
	Logs []Log
	// Err is non-nil for exceptional halts (out of gas, bad jump…); those
	// consume the full gas limit.
	Err error
}

// Constant opcode gas as flat tables so the dispatch loop pays an array
// index instead of a map lookup. Populated from constGas (gas.go) at init.
var (
	constGasTab [256]uint64
	hasConstGas [256]bool
)

func init() {
	for op, g := range constGas {
		constGasTab[op] = g
		hasConstGas[op] = true
	}
}

// slot is one storage slot of the executing contract that the execution
// has touched: its value when the execution began (orig) and now (cur) —
// the two values the EIP-2200/2929 SSTORE rules price a write by, geth's
// committed and current state. A slot is warm from its first touch, so the
// table of touched slots is also the warm set.
type slot struct {
	key       chain.Hash32
	orig, cur chain.Hash32
}

// interpreter is the pooled per-execution state of the fast VM: a fixed
// value-typed u256 stack, reusable byte memory, the warm address map, the
// slot table and a jumpdest bitmap. Everything that does not escape into
// the Result is recycled through interpPool, so a warm Execute allocates
// only what the program itself materializes (logs, return data, journal
// entries).
type interpreter struct {
	ctx   Context
	state journaledState
	code  []byte

	stack  [stackLimit]u256.Word
	sp     int
	mem    []byte
	gas    uint64
	refund uint64
	logs   []Log

	warmAddrs map[chain.Address]bool
	// slots is the slot table in first-touch order and slotIdx its index.
	// SLOAD and SSTORE run on it alone: the state sees one GetStorage per
	// touched slot, and one SetStorage per slot whose value changed, once
	// the execution has succeeded.
	slots   []slot
	slotIdx map[chain.Hash32]int

	// jumpdests is the valid-destination bitmap for code. scannedPtr/
	// scannedLen identify the code slice it was built from, so repeated
	// executions of the same (immutable) contract code on one pooled
	// interpreter skip the O(len(code)) rescan.
	jumpdests  []bool
	scannedPtr *byte
	scannedLen int

	// pcArgs is the precompileHost scratch for resolved argument ranges.
	pcArgs [maxPrecompileRanges][]byte

	// Opcode profiling state: the opcode whose gas consumption is being
	// accumulated, and the gas level when it started executing. Only
	// touched when ctx.Profiler != nil.
	profOp    Opcode
	profStart uint64
	profArmed bool
}

var interpPool = sync.Pool{New: func() any { return new(interpreter) }}

// profTick attributes the previous opcode's gas (its full consumption is
// known only once the next opcode is reached) and arms accounting for op.
func (in *interpreter) profTick(op Opcode) {
	if in.profArmed {
		in.ctx.Profiler.Op(in.profOp.String(), in.profStart-in.gas)
	}
	in.profArmed = true
	in.profOp = op
	in.profStart = in.gas
}

// profFlush attributes the final opcode before execution returns.
func (in *interpreter) profFlush() {
	if in.profArmed {
		in.ctx.Profiler.Op(in.profOp.String(), in.profStart-in.gas)
		in.profArmed = false
	}
}

// Execute runs code in the given context and returns the result. Gas
// accounting covers opcode execution only; the chain layer adds intrinsic
// transaction gas (IntrinsicGas) and code-deposit gas for deployments.
// code must not change once run: a later Execute of the same slice may
// reuse the jump destinations found in it.
//
// Semantics are bit-identical to the retained big.Int reference interpreter
// (ref_test.go); the differential tests and FuzzExecuteAgainstRef enforce
// this.
func Execute(ctx Context, code []byte) Result {
	in := interpPool.Get().(*interpreter)
	in.reset(ctx, code)
	res := in.run()
	if res.Err != nil || res.Reverted {
		in.state.j.revert()
	} else {
		for i := range in.slots {
			if s := &in.slots[i]; s.cur != s.orig {
				ctx.State.SetStorage(ctx.Address, s.key, s.cur)
			}
		}
		res.Logs = in.logs
	}
	in.release()
	interpPool.Put(in)
	return res
}

// reset prepares a pooled interpreter for one execution.
func (in *interpreter) reset(ctx Context, code []byte) {
	in.ctx = ctx
	in.state = journaledState{inner: ctx.State}
	in.code = code
	in.sp = 0
	in.mem = in.mem[:0]
	in.gas = ctx.GasLimit
	in.refund = 0
	in.logs = nil // escapes into Result, never pooled
	if in.warmAddrs == nil {
		in.warmAddrs = make(map[chain.Address]bool, 8)
		in.slotIdx = make(map[chain.Hash32]int, 16)
	}
	in.warmAddrs[ctx.Address] = true
	in.warmAddrs[ctx.Caller] = true
	in.scanJumpdests(code)
	in.profArmed = false
}

// release drops every reference that must not survive in the pool. The logs
// slice escaped into the Result, so only the pointer is cleared; the maps
// keep their buckets (clear preserves capacity) for the next run.
func (in *interpreter) release() {
	in.ctx = Context{}
	in.state = journaledState{}
	in.code = nil
	in.logs = nil
	clear(in.pcArgs[:]) // may reference superseded memory backing arrays
	clear(in.warmAddrs)
	in.slots = in.slots[:0]
	clear(in.slotIdx)
}

// scanJumpdests rebuilds the valid-destination bitmap over code, reusing the
// pooled slice when it is large enough. The bitmap is memoized by code
// identity (data pointer + length): contract code is immutable once stored,
// so a pooled interpreter re-running the same code — the hot pattern under
// block execution — skips the rescan entirely.
func (in *interpreter) scanJumpdests(code []byte) {
	if len(code) > 0 && in.scannedPtr == &code[0] && in.scannedLen == len(code) {
		return
	}
	if cap(in.jumpdests) >= len(code) {
		in.jumpdests = in.jumpdests[:len(code)]
		clear(in.jumpdests)
	} else {
		in.jumpdests = make([]bool, len(code))
	}
	for pc := 0; pc < len(code); {
		op := Opcode(code[pc])
		if op == JUMPDEST {
			in.jumpdests[pc] = true
		}
		if n, ok := op.IsPush(); ok {
			pc += n
		}
		pc++
	}
	if len(code) > 0 {
		in.scannedPtr = &code[0]
	} else {
		in.scannedPtr = nil
	}
	in.scannedLen = len(code)
}

func (in *interpreter) precompileArgs() *[maxPrecompileRanges][]byte {
	return &in.pcArgs
}

func (in *interpreter) useGas(amount uint64) bool {
	if in.gas < amount {
		in.gas = 0
		return false
	}
	in.gas -= amount
	return true
}

// fault carries an exceptional halt from in.fail to run's recover.
type fault struct{ err error }

// fail halts the execution with err. It unwinds to run's recover, which
// consumes all gas and returns err, so each opcode reads straight through;
// the AVM faults the same way.
func (in *interpreter) fail(err error) { panic(fault{err}) }

// charge takes amount gas, halting out of gas when too little is left.
func (in *interpreter) charge(amount uint64) {
	if !in.useGas(amount) {
		in.fail(ErrOutOfGas)
	}
}

func (in *interpreter) push(v u256.Word) {
	if in.sp >= stackLimit {
		in.fail(ErrStackOverflow)
	}
	in.stack[in.sp] = v
	in.sp++
}

func (in *interpreter) pop() u256.Word {
	if in.sp == 0 {
		in.fail(ErrStackUnderflow)
	}
	in.sp--
	return in.stack[in.sp]
}

// pop2 removes the two topmost words; a was the top of the stack.
func (in *interpreter) pop2() (a, b u256.Word) {
	if in.sp < 2 {
		in.fail(ErrStackUnderflow)
	}
	in.sp -= 2
	return in.stack[in.sp+1], in.stack[in.sp]
}

// popN copies the topmost len(dst) words into dst in pop order (dst[0] was
// the top). Callers pass a fixed-size local array slice, so nothing heap-
// allocates.
func (in *interpreter) popN(dst []u256.Word) {
	n := len(dst)
	if in.sp < n {
		in.fail(ErrStackUnderflow)
	}
	for i := 0; i < n; i++ {
		dst[i] = in.stack[in.sp-1-i]
	}
	in.sp -= n
}

// expandMem charges and grows memory to cover [off, off+size). Pooled memory
// is reused by capacity; bytes exposed beyond the previous length are zeroed
// so a recycled buffer behaves exactly like a fresh one.
func (in *interpreter) expandMem(off, size uint64) bool {
	if size == 0 {
		return true
	}
	end := off + size
	if end < off || end > 1<<32 { // overflow or absurd size: treat as OOG
		in.gas = 0
		return false
	}
	curWords := uint64(len(in.mem)+31) / 32
	newWords := (end + 31) / 32
	if newWords > curWords {
		if !in.useGas(memoryGas(newWords) - memoryGas(curWords)) {
			return false
		}
		newLen := int(newWords * 32)
		if newLen <= cap(in.mem) {
			prev := len(in.mem)
			in.mem = in.mem[:newLen]
			clear(in.mem[prev:])
		} else {
			grown := make([]byte, newLen)
			copy(grown, in.mem)
			in.mem = grown
		}
	}
	return true
}

func (in *interpreter) memSlice(off, size uint64) []byte {
	if size == 0 {
		return nil
	}
	return in.mem[off : off+size]
}

func wordToHash32(v u256.Word) chain.Hash32 {
	return chain.Hash32(v.Bytes32())
}

func hash32ToWord(h chain.Hash32) u256.Word {
	return u256.SetBytes(h[:])
}

func wordToAddr(v u256.Word) chain.Address {
	buf := v.Bytes32()
	var a chain.Address
	copy(a[:], buf[12:])
	return a
}

// slot returns the executing contract's slot key from the slot table,
// reading it from the state on its first touch, which cold reports. The
// pointer is valid until the next call.
func (in *interpreter) slot(key chain.Hash32) (s *slot, cold bool) {
	if i, ok := in.slotIdx[key]; ok {
		return &in.slots[i], false
	}
	v := in.ctx.State.GetStorage(in.ctx.Address, key)
	in.slotIdx[key] = len(in.slots)
	in.slots = append(in.slots, slot{key: key, orig: v, cur: v})
	return &in.slots[len(in.slots)-1], true
}

// Operand words that name a place become indices by one rule per class
// (Yellow Paper, §9.4 and Appendix H); a word of 2^64 or more is never cut
// to its low 64 bits.

// memRange reads a memory (offset, size) operand pair. A size of zero
// touches nothing, whatever the offset. Otherwise an offset or size of 2^64
// or more cannot be paid for, so execution halts with ErrOutOfGas, as grow
// does for a range whose end overflows.
func (in *interpreter) memRange(off, size u256.Word) (o, s uint64) {
	if size.IsZero() {
		return 0, 0
	}
	if !off.IsUint64() || !size.IsUint64() {
		in.fail(ErrOutOfGas)
	}
	return off.Uint64(), size.Uint64()
}

// grow expands memory over [off, off+size), halting out of gas when the
// expansion cannot be paid for.
func (in *interpreter) grow(off, size uint64) {
	if !in.expandMem(off, size) {
		in.fail(ErrOutOfGas)
	}
}

// word32 is the size of an MLOAD or MSTORE range.
var word32 = u256.FromUint64(32)

// dataOffset reads a calldata offset. An offset of 2^64 or more lies past
// any calldata, so it saturates there and every byte read from it is zero.
func dataOffset(w u256.Word) uint64 {
	if !w.IsUint64() {
		return math.MaxUint64
	}
	return w.Uint64()
}

// jumpDest returns the destination a jump word names, halting with
// ErrInvalidJump unless it names a JUMPDEST; a destination of 2^64 or more
// names none.
func (in *interpreter) jumpDest(dest u256.Word) uint64 {
	if !dest.IsUint64() || dest.Uint64() >= uint64(len(in.jumpdests)) || !in.jumpdests[dest.Uint64()] {
		in.fail(ErrInvalidJump)
	}
	return dest.Uint64()
}

// run interprets the code. A failing opcode calls in.fail; the deferred
// recover turns that into an exceptional halt that consumes all gas, and
// re-raises any other panic.
//
//nolint:gocyclo // a bytecode interpreter is one big dispatch by nature.
func (in *interpreter) run() (res Result) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(fault)
			if !ok {
				panic(r)
			}
			in.profFlush()
			res = Result{GasUsed: in.ctx.GasLimit, Err: f.err}
		}
	}()
	var pc uint64
	for pc < uint64(len(in.code)) {
		op := Opcode(in.code[pc])
		if in.ctx.Profiler != nil {
			in.profTick(op)
		}

		if hasConstGas[op] {
			in.charge(constGasTab[op])
		}

		switch {
		case op >= PUSH1 && op <= PUSH32:
			in.charge(GasVeryLow)
			n := uint64(op-PUSH1) + 1
			end := pc + 1 + n
			if end > uint64(len(in.code)) {
				end = uint64(len(in.code))
			}
			in.push(u256.SetBytes(in.code[pc+1 : end]))
			pc += n + 1
			continue

		case op >= DUP1 && op <= DUP6:
			in.charge(GasVeryLow)
			n := int(op-DUP1) + 1
			if in.sp < n {
				in.fail(ErrStackUnderflow)
			}
			in.push(in.stack[in.sp-n])
			pc++
			continue

		case op >= SWAP1 && op <= SWAP5:
			in.charge(GasVeryLow)
			n := int(op-SWAP1) + 1
			if in.sp < n+1 {
				in.fail(ErrStackUnderflow)
			}
			top := in.sp - 1
			in.stack[top], in.stack[top-n] = in.stack[top-n], in.stack[top]
			pc++
			continue
		}

		switch op {
		case STOP:
			in.profFlush()
			return Result{GasUsed: in.ctx.GasLimit - in.gas, Refund: in.refund}

		case ADD, MUL, SUB, DIV, MOD, AND, OR, LT, GT, EQ, SHL, SHR:
			a, b := in.pop2()
			var v u256.Word
			switch op {
			case ADD:
				v = a.Add(b)
			case MUL:
				v = a.Mul(b)
			case SUB:
				v = a.Sub(b)
			case DIV:
				v = a.Div(b)
			case MOD:
				v = a.Mod(b)
			case AND:
				v = a.And(b)
			case OR:
				v = a.Or(b)
			case LT:
				v = u256.FromBool(a.Lt(b))
			case GT:
				v = u256.FromBool(a.Gt(b))
			case EQ:
				v = u256.FromBool(a == b)
			case SHL:
				if a.IsUint64() && a.Uint64() < 256 {
					v = b.Lsh(uint(a.Uint64()))
				}
			case SHR:
				if a.IsUint64() && a.Uint64() < 256 {
					v = b.Rsh(uint(a.Uint64()))
				}
			}
			in.push(v)

		case ISZERO:
			in.push(u256.FromBool(in.pop().IsZero()))

		case KECCAK256:
			off, size := in.memRange(in.pop2())
			in.charge(GasKeccak256 + GasKeccak256Word*((size+31)/32))
			in.grow(off, size)
			h := polcrypto.Hash1(in.memSlice(off, size))
			in.push(u256.SetBytes(h[:]))

		case CALLER:
			in.push(u256.SetBytes(in.ctx.Caller[:]))
		case CALLVALUE:
			in.push(in.ctx.Value)
		case TIMESTAMP:
			in.push(u256.FromUint64(in.ctx.Timestamp))
		case SELFBALANCE:
			in.push(in.state.GetBalance(in.ctx.Address))

		case CALLDATALOAD:
			off := dataOffset(in.pop())
			var buf [32]byte
			for i := uint64(0); i < 32; i++ {
				if src := off + i; src >= off && src < uint64(len(in.ctx.CallData)) {
					buf[i] = in.ctx.CallData[src]
				}
			}
			in.push(u256.SetBytes(buf[:]))
		case CALLDATASIZE:
			in.push(u256.FromUint64(uint64(len(in.ctx.CallData))))
		case CALLDATACOPY:
			var args [3]u256.Word
			in.popN(args[:])
			dst, size := in.memRange(args[0], args[2])
			off := dataOffset(args[1])
			in.charge(GasVeryLow + GasCopy*((size+31)/32))
			in.grow(dst, size)
			mem := in.memSlice(dst, size)
			data := in.ctx.CallData
			for i := uint64(0); i < size; i++ {
				if src := off + i; src >= off && src < uint64(len(data)) {
					mem[i] = data[src]
				} else {
					mem[i] = 0
				}
			}

		case POP:
			in.pop()

		case MLOAD:
			a := in.pop()
			in.charge(GasVeryLow)
			off, _ := in.memRange(a, word32)
			in.grow(off, 32)
			in.push(u256.SetBytes(in.memSlice(off, 32)))
		case MSTORE:
			a, b := in.pop2()
			in.charge(GasVeryLow)
			off, _ := in.memRange(a, word32)
			in.grow(off, 32)
			b.PutBytes32(in.mem[off : off+32])

		case SLOAD:
			s, cold := in.slot(wordToHash32(in.pop()))
			cost := uint64(GasWarmAccess)
			if cold {
				cost = GasColdSLoad
			}
			in.charge(cost)
			in.push(hash32ToWord(s.cur))

		case SSTORE:
			a, b := in.pop2()
			value := wordToHash32(b)
			s, cold := in.slot(wordToHash32(a))
			cost := uint64(0)
			if cold {
				cost += GasColdSLoad
			}
			current, original := s.cur, s.orig
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
			in.charge(cost)
			s.cur = value

		case JUMP:
			pc = in.jumpDest(in.pop())
			continue
		case JUMPI:
			a, b := in.pop2()
			if !b.IsZero() {
				pc = in.jumpDest(a)
				continue
			}

		case JUMPDEST:
			// cost charged via constGas; no effect.

		case LOG1:
			var args [3]u256.Word
			in.popN(args[:])
			off, size := in.memRange(args[0], args[1])
			in.charge(GasLog + GasLogTopic + GasLogData*size)
			in.grow(off, size)
			in.logs = append(in.logs, Log{
				Address: in.ctx.Address,
				Topics:  []chain.Hash32{wordToHash32(args[2])},
				Data:    append([]byte(nil), in.memSlice(off, size)...),
			})

		case CALL:
			// Value-transfer call (the contract language only transfers to
			// externally-owned accounts; nested contract execution is not
			// part of the compiled programs). Either kind pays memory
			// expansion for its input and output ranges.
			var args [7]u256.Word
			in.popN(args[:])
			to := wordToAddr(args[1])
			inOff, inSize := in.memRange(args[3], args[4])
			outOff, outSize := in.memRange(args[5], args[6])
			if p := precompile.ByAddress(to); p != nil {
				ok, oog := runPrecompile(in, p, args[2].IsZero(), inOff, inSize, outOff, outSize)
				if oog {
					in.fail(ErrOutOfGas)
				}
				in.push(u256.FromBool(ok))
				pc++
				continue
			}
			value := args[2]
			cost := uint64(GasColdAccount)
			if in.warmAddrs[to] {
				cost = GasWarmAccess
			}
			in.warmAddrs[to] = true
			if !value.IsZero() {
				cost += GasCallValue
				if !in.state.AccountExists(to) {
					cost += GasNewAccount
				}
			}
			in.charge(cost)
			in.grow(inOff, inSize)
			in.grow(outOff, outSize)
			if in.state.GetBalance(in.ctx.Address).Lt(value) {
				in.push(u256.Zero)
			} else {
				in.state.SubBalance(in.ctx.Address, value)
				in.state.AddBalance(to, value)
				in.push(u256.One)
			}

		case RETURN, REVERT:
			off, size := in.memRange(in.pop2())
			in.grow(off, size)
			data := append([]byte(nil), in.memSlice(off, size)...)
			in.profFlush()
			res = Result{
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
			in.fail(fmt.Errorf("%w: %s at pc=%d", ErrInvalidOpcode, op, pc))
		}
		pc++
	}
	in.profFlush()
	return Result{GasUsed: in.ctx.GasLimit - in.gas, Refund: in.refund}
}
