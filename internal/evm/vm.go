package evm

import (
	"errors"
	"fmt"
	"math/big"
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
	ErrWriteProtect   = errors.New("evm: balance underflow")
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
	State       StateDB
	Caller      chain.Address
	Address     chain.Address
	Value       *big.Int
	CallData    []byte
	GasLimit    uint64
	BlockNumber uint64
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
	Logs       []Log
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

// slotRef keys the flat warm/original-value storage maps. The interpreter
// only ever touches slots of the executing contract plus value-transfer
// targets, so one flat map replaces the per-address nested maps of the
// reference implementation.
type slotRef struct {
	addr chain.Address
	key  chain.Hash32
}

// interpreter is the pooled per-execution state of the fast VM: a fixed
// value-typed u256 stack, reusable byte memory, flat access-list maps and a
// jumpdest bitmap. Everything that does not escape into the Result is
// recycled through interpPool, so a warm Execute allocates only what the
// program itself materializes (logs, return data, journal entries).
type interpreter struct {
	ctx       Context
	state     journaledState
	code      []byte
	callValue u256.Word

	stack  [stackLimit]u256.Word
	sp     int
	mem    []byte
	gas    uint64
	refund uint64
	logs   []Log

	warmAddrs map[chain.Address]bool
	warmSlots map[slotRef]bool
	origSlots map[slotRef]chain.Hash32

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
	}
	res.Logs = in.logs
	in.release()
	interpPool.Put(in)
	return res
}

// reset prepares a pooled interpreter for one execution.
func (in *interpreter) reset(ctx Context, code []byte) {
	in.ctx = ctx
	in.state = journaledState{inner: ctx.State}
	in.code = code
	in.callValue = u256.FromBig(ctx.Value)
	in.sp = 0
	in.mem = in.mem[:0]
	in.gas = ctx.GasLimit
	in.refund = 0
	in.logs = nil // escapes into Result, never pooled
	if in.warmAddrs == nil {
		in.warmAddrs = make(map[chain.Address]bool, 8)
		in.warmSlots = make(map[slotRef]bool, 16)
		in.origSlots = make(map[slotRef]chain.Hash32, 16)
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
	clear(in.warmSlots)
	clear(in.origSlots)
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

func (in *interpreter) push(v u256.Word) error {
	if in.sp >= stackLimit {
		return ErrStackOverflow
	}
	in.stack[in.sp] = v
	in.sp++
	return nil
}

func (in *interpreter) pop() (u256.Word, error) {
	if in.sp == 0 {
		return u256.Word{}, ErrStackUnderflow
	}
	in.sp--
	return in.stack[in.sp], nil
}

// pop2 removes the two topmost words; a was the top of the stack.
func (in *interpreter) pop2() (a, b u256.Word, err error) {
	if in.sp < 2 {
		return a, b, ErrStackUnderflow
	}
	in.sp -= 2
	return in.stack[in.sp+1], in.stack[in.sp], nil
}

// popN copies the topmost len(dst) words into dst in pop order (dst[0] was
// the top). Callers pass a fixed-size local array slice, so nothing heap-
// allocates.
func (in *interpreter) popN(dst []u256.Word) error {
	n := len(dst)
	if in.sp < n {
		return ErrStackUnderflow
	}
	for i := 0; i < n; i++ {
		dst[i] = in.stack[in.sp-1-i]
	}
	in.sp -= n
	return nil
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

func (in *interpreter) slotWarm(addr chain.Address, key chain.Hash32) bool {
	ref := slotRef{addr, key}
	if in.warmSlots[ref] {
		return true
	}
	in.warmSlots[ref] = true
	return false
}

func (in *interpreter) originalSlot(addr chain.Address, key chain.Hash32) chain.Hash32 {
	ref := slotRef{addr, key}
	if v, ok := in.origSlots[ref]; ok {
		return v
	}
	v := in.state.GetStorage(addr, key)
	in.origSlots[ref] = v
	return v
}

// validJump reports whether dest is a JUMPDEST (64-bit truncated, matching
// big.Int.Uint64 in the reference interpreter).
func (in *interpreter) validJump(dest uint64) bool {
	return dest < uint64(len(in.jumpdests)) && in.jumpdests[dest]
}

//nolint:gocyclo // a bytecode interpreter is one big dispatch by nature.
func (in *interpreter) run() Result {
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

		if hasConstGas[op] {
			if !in.useGas(constGasTab[op]) {
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
			if err := in.push(u256.SetBytes(in.code[pc+1 : end])); err != nil {
				return fail(err)
			}
			pc += n + 1
			continue

		case op >= DUP1 && op <= DUP16:
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			n := int(op-DUP1) + 1
			if in.sp < n {
				return fail(ErrStackUnderflow)
			}
			if err := in.push(in.stack[in.sp-n]); err != nil {
				return fail(err)
			}
			pc++
			continue

		case op >= SWAP1 && op <= SWAP16:
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			n := int(op-SWAP1) + 1
			if in.sp < n+1 {
				return fail(ErrStackUnderflow)
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

		case ADD, MUL, SUB, DIV, MOD, AND, OR, XOR, LT, GT, EQ, SHL, SHR, BYTE:
			a, b, err := in.pop2()
			if err != nil {
				return fail(err)
			}
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
			case XOR:
				v = a.Xor(b)
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
			case BYTE:
				if a.IsUint64() {
					v = b.Byte(a.Uint64())
				}
			}
			if err := in.push(v); err != nil {
				return fail(err)
			}

		case EXP:
			base, exp, err := in.pop2()
			if err != nil {
				return fail(err)
			}
			if !in.useGas(GasExp + GasExpByte*uint64(exp.ByteLen())) {
				return fail(ErrOutOfGas)
			}
			if err := in.push(base.Exp(exp)); err != nil {
				return fail(err)
			}

		case ISZERO, NOT:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			var v u256.Word
			if op == ISZERO {
				v = u256.FromBool(a.IsZero())
			} else {
				v = a.Not()
			}
			if err := in.push(v); err != nil {
				return fail(err)
			}

		case KECCAK256:
			a, b, err := in.pop2()
			if err != nil {
				return fail(err)
			}
			off, size := a.Uint64(), b.Uint64()
			words := (size + 31) / 32
			if !in.useGas(GasKeccak256 + GasKeccak256Word*words) {
				return fail(ErrOutOfGas)
			}
			if !in.expandMem(off, size) {
				return fail(ErrOutOfGas)
			}
			h := polcrypto.Hash1(in.memSlice(off, size))
			if err := in.push(u256.SetBytes(h[:])); err != nil {
				return fail(err)
			}

		case ADDRESS:
			if err := in.push(u256.SetBytes(in.ctx.Address[:])); err != nil {
				return fail(err)
			}
		case CALLER:
			if err := in.push(u256.SetBytes(in.ctx.Caller[:])); err != nil {
				return fail(err)
			}
		case CALLVALUE:
			if err := in.push(in.callValue); err != nil {
				return fail(err)
			}
		case TIMESTAMP:
			if err := in.push(u256.FromUint64(in.ctx.Timestamp)); err != nil {
				return fail(err)
			}
		case NUMBER:
			if err := in.push(u256.FromUint64(in.ctx.BlockNumber)); err != nil {
				return fail(err)
			}
		case SELFBALANCE:
			if err := in.push(u256.FromBig(in.state.GetBalance(in.ctx.Address))); err != nil {
				return fail(err)
			}

		case BALANCE:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			addr := wordToAddr(a)
			cost := uint64(GasColdAccount)
			if in.warmAddrs[addr] {
				cost = GasWarmAccess
			}
			in.warmAddrs[addr] = true
			if !in.useGas(cost) {
				return fail(ErrOutOfGas)
			}
			if err := in.push(u256.FromBig(in.state.GetBalance(addr))); err != nil {
				return fail(err)
			}

		case CALLDATALOAD:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			off := a.Uint64()
			var buf [32]byte
			for i := uint64(0); i < 32; i++ {
				if off+i < uint64(len(in.ctx.CallData)) {
					buf[i] = in.ctx.CallData[off+i]
				}
			}
			if err := in.push(u256.SetBytes(buf[:])); err != nil {
				return fail(err)
			}
		case CALLDATASIZE:
			if err := in.push(u256.FromUint64(uint64(len(in.ctx.CallData)))); err != nil {
				return fail(err)
			}
		case CALLDATACOPY:
			a, b, err := in.pop2()
			if err != nil {
				return fail(err)
			}
			c, err := in.pop()
			if err != nil {
				return fail(err)
			}
			dst, off, size := a.Uint64(), b.Uint64(), c.Uint64()
			words := (size + 31) / 32
			if !in.useGas(GasVeryLow + GasCopy*words) {
				return fail(ErrOutOfGas)
			}
			if !in.expandMem(dst, size) {
				return fail(ErrOutOfGas)
			}
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
			off := a.Uint64()
			if !in.expandMem(off, 32) {
				return fail(ErrOutOfGas)
			}
			if err := in.push(u256.SetBytes(in.memSlice(off, 32))); err != nil {
				return fail(err)
			}
		case MSTORE:
			a, b, err := in.pop2()
			if err != nil {
				return fail(err)
			}
			if !in.useGas(GasVeryLow) {
				return fail(ErrOutOfGas)
			}
			off := a.Uint64()
			if !in.expandMem(off, 32) {
				return fail(ErrOutOfGas)
			}
			b.PutBytes32(in.mem[off : off+32])

		case SLOAD:
			a, err := in.pop()
			if err != nil {
				return fail(err)
			}
			key := wordToHash32(a)
			cost := uint64(GasColdSLoad)
			if in.slotWarm(in.ctx.Address, key) {
				cost = GasWarmAccess
			}
			if !in.useGas(cost) {
				return fail(ErrOutOfGas)
			}
			if err := in.push(hash32ToWord(in.state.GetStorage(in.ctx.Address, key))); err != nil {
				return fail(err)
			}

		case SSTORE:
			a, b, err := in.pop2()
			if err != nil {
				return fail(err)
			}
			key := wordToHash32(a)
			value := wordToHash32(b)
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
			dest := a.Uint64()
			if !in.validJump(dest) {
				return fail(ErrInvalidJump)
			}
			pc = dest
			continue
		case JUMPI:
			a, b, err := in.pop2()
			if err != nil {
				return fail(err)
			}
			if !b.IsZero() {
				dest := a.Uint64()
				if !in.validJump(dest) {
					return fail(ErrInvalidJump)
				}
				pc = dest
				continue
			}

		case PC:
			if err := in.push(u256.FromUint64(pc)); err != nil {
				return fail(err)
			}
		case MSIZE:
			if err := in.push(u256.FromUint64(uint64(len(in.mem)))); err != nil {
				return fail(err)
			}
		case GAS:
			if err := in.push(u256.FromUint64(in.gas)); err != nil {
				return fail(err)
			}
		case JUMPDEST:
			// cost charged via constGas; no effect.

		case LOG0, LOG1, LOG2:
			topicCount := int(op - LOG0)
			var argbuf [4]u256.Word
			args := argbuf[:2+topicCount]
			if err := in.popN(args); err != nil {
				return fail(err)
			}
			off, size := args[0].Uint64(), args[1].Uint64()
			if !in.useGas(GasLog + GasLogTopic*uint64(topicCount) + GasLogData*size) {
				return fail(ErrOutOfGas)
			}
			if !in.expandMem(off, size) {
				return fail(ErrOutOfGas)
			}
			log := Log{Address: in.ctx.Address, Data: append([]byte(nil), in.memSlice(off, size)...)}
			for i := 0; i < topicCount; i++ {
				log.Topics = append(log.Topics, wordToHash32(args[2+i]))
			}
			in.logs = append(in.logs, log)

		case CALL:
			// Value-transfer call (the contract language only transfers to
			// externally-owned accounts; nested contract execution is not
			// part of the compiled programs).
			var argbuf [7]u256.Word
			if err := in.popN(argbuf[:]); err != nil {
				return fail(err)
			}
			to := wordToAddr(argbuf[1])
			if p := precompile.ByAddress(to); p != nil {
				ok, oog := runPrecompile(in, p, argbuf[2].IsZero(),
					argbuf[3].Uint64(), argbuf[4].Uint64(), argbuf[5].Uint64(), argbuf[6].Uint64())
				if oog {
					return fail(ErrOutOfGas)
				}
				if err := in.push(u256.FromBool(ok)); err != nil {
					return fail(err)
				}
				pc++
				continue
			}
			value := argbuf[2]
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
			if !in.useGas(cost) {
				return fail(ErrOutOfGas)
			}
			// Balance movement stays on big.Int: the StateDB boundary.
			valueBig := value.ToBig()
			if in.state.GetBalance(in.ctx.Address).Cmp(valueBig) < 0 {
				if err := in.push(u256.Zero); err != nil {
					return fail(err)
				}
			} else {
				in.state.SubBalance(in.ctx.Address, valueBig)
				in.state.AddBalance(to, valueBig)
				if err := in.push(u256.One); err != nil {
					return fail(err)
				}
			}

		case RETURN, REVERT:
			a, b, err := in.pop2()
			if err != nil {
				return fail(err)
			}
			off, size := a.Uint64(), b.Uint64()
			if !in.expandMem(off, size) {
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
