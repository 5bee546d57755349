package avm

import (
	"errors"
	"fmt"
	"sync"

	"agnopol/internal/chain"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
	"agnopol/internal/precompile"
)

// DefaultBudget is the opcode-cost budget of a single application call.
const DefaultBudget = 700

// MinBalanceValue is the µAlgo minimum balance every account must keep
// (surfaced by `global MinBalance`).
const MinBalanceValue = 100_000

// ReturnPrefix starts the log line through which a method returns its
// value: the contract-language ABI's convention, which Result.Return reads.
const ReturnPrefix = "return:"

// TxContext is the transaction an application call executes under.
type TxContext struct {
	Sender chain.Address
	// AppID is the application whose state the call mutates. During
	// creation the ledger has already allocated it, but the program sees
	// ApplicationID == 0 (set CreateMode), as on the real AVM.
	AppID      uint64
	CreateMode bool
	Args       [][]byte
	// PayAmount is the µAlgo amount of the payment transaction grouped in
	// front of this application call (0 when the group has no payment).
	// The program reads it with `gtxn 0 Amount`.
	PayAmount uint64
	// BudgetTxns is the number of grouped transactions pooling their
	// budget (≥1); the effective budget is BudgetTxns·DefaultBudget.
	BudgetTxns int
	// Profiler, when non-nil, receives every executed opcode with its
	// budget cost (nil-checked on the hot path).
	Profiler obs.Profiler
}

// Result reports the outcome of an application call.
type Result struct {
	Approved bool
	Cost     uint64
	Logs     []string
	// Return carries the bytes of the last `log` prefixed with
	// ReturnPrefix.
	Return []byte
	Err    error
}

// Execution errors.
var (
	ErrBudgetExceeded = errors.New("avm: opcode budget exceeded")
	ErrStack          = errors.New("avm: stack error")
	ErrRejected       = errors.New("avm: program rejected")
	ErrBadProgram     = errors.New("avm: bad program")
)

// opCost gives non-unit opcode costs; everything else costs 1. Parse bakes
// these into Instr.Cost, so the interpreter never consults the map.
// Precompile pseudo-ops (ed25519verify, sha256_parts, olc_contains)
// register their fixed costs from the shared registry at init so the two
// stay in lockstep.
var opCost = map[string]uint64{
	"sha256": 35,
}

func init() {
	for _, p := range precompile.All() {
		if p.AVMOp != "" {
			opCost[p.AVMOp] = p.AVMCost
		}
	}
}

// Pre-resolved precompile entries so the dispatch loop never consults the
// registry map.
var (
	preEd25519     = precompile.ByAVMOp("ed25519verify")
	preSha256Parts = precompile.ByAVMOp("sha256_parts")
	preOLCContains = precompile.ByAVMOp("olc_contains")
)

// machine is the pooled per-call interpreter state. The AVM already
// computes on uint64 values, so the analogue of the EVM's u256 rewrite is
// recycling the machine itself: its stack keeps its capacity from call to
// call.
type machine struct {
	prog   *Program
	ledger Ledger
	tx     TxContext

	stack  []Value
	cost   uint64
	budget uint64
	logs   []string
	ret    []byte

	itxnOpen     bool
	itxnReceiver chain.Address
	itxnAmount   uint64
}

var machinePool = sync.Pool{New: func() any { return new(machine) }}

// reset prepares a pooled machine for one call.
func (m *machine) reset(prog *Program, ledger Ledger, tx TxContext) {
	m.prog = prog
	m.ledger = ledger
	m.tx = tx
	m.stack = m.stack[:0]
	m.cost = 0
	m.budget = uint64(tx.BudgetTxns) * DefaultBudget
	m.logs = nil // escapes into Result, never pooled
	m.ret = nil
	m.itxnOpen = false
	m.itxnReceiver = chain.Address{}
	m.itxnAmount = 0
}

// release drops every reference before the machine returns to the pool:
// any values left on the stack's backing array, and the borrowed
// program/ledger.
func (m *machine) release() {
	m.prog = nil
	m.ledger = nil
	m.tx = TxContext{}
	full := m.stack[:cap(m.stack)]
	for i := range full {
		full[i] = Value{}
	}
	m.stack = m.stack[:0]
	m.logs = nil
	m.ret = nil
}

// Execute runs a parsed program as an application call. State mutations go
// straight to the ledger; the chain simulator is responsible for snapshot/
// rollback when a call is rejected. Every fault of a program Parse built is
// returned in Result.Err; Execute itself does not panic.
func Execute(prog *Program, ledger Ledger, tx TxContext) Result {
	if tx.BudgetTxns < 1 {
		tx.BudgetTxns = 1
	}
	m := machinePool.Get().(*machine)
	m.reset(prog, ledger, tx)
	approved, err := m.run()
	res := Result{
		Approved: approved && err == nil,
		Cost:     m.cost,
		Logs:     m.logs,
		Return:   m.ret,
		Err:      err,
	}
	m.release()
	machinePool.Put(m)
	return res
}

// fault carries an instruction's error from m.fail to run's recover.
type fault struct{ err error }

// fail aborts the running instruction with err. It unwinds to run, which
// returns err tagged with the instruction's line: the bailout go/parser
// uses, so the dispatch code reads straight through.
func (m *machine) fail(err error) { panic(fault{err}) }

func (m *machine) push(v Value) { m.stack = append(m.stack, v) }

// errEmptyStack is built once so pop stays inlinable.
var errEmptyStack = fmt.Errorf("%w: pop on empty stack", ErrStack)

func (m *machine) pop() Value {
	if len(m.stack) == 0 {
		m.fail(errEmptyStack)
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

// pop2 pops b then a and returns them in push order.
func (m *machine) pop2() (Value, Value) {
	b := m.pop()
	return m.pop(), b
}

func (m *machine) asUint(v Value) uint64 {
	x, err := v.AsUint()
	if err != nil {
		m.fail(err)
	}
	return x
}

func (m *machine) asBytes(v Value) []byte {
	b, err := v.AsBytes()
	if err != nil {
		m.fail(err)
	}
	return b
}

func (m *machine) popUint() uint64 { return m.asUint(m.pop()) }

func (m *machine) popBytes() []byte { return m.asBytes(m.pop()) }

// run interprets the program. An instruction that fails calls m.fail; the
// deferred recover turns that into the returned error, and re-raises any
// other panic.
//
//nolint:gocyclo // the interpreter is a single large dispatch by design.
func (m *machine) run() (approved bool, err error) {
	instrs := m.prog.Instrs
	pc := 0
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(fault)
			if !ok {
				panic(r)
			}
			approved, err = false, fmt.Errorf("line %d (%s): %w", instrs[pc].Line, instrs[pc].Op, f.err)
		}
	}()
	for pc < len(instrs) {
		ins := &instrs[pc]
		m.cost += ins.Cost
		if m.tx.Profiler != nil {
			m.tx.Profiler.Op(ins.Op, ins.Cost)
		}
		if m.cost > m.budget {
			return false, fmt.Errorf("%w: %d > %d at line %d", ErrBudgetExceeded, m.cost, m.budget, ins.Line)
		}

		switch ins.code {
		case opInt:
			m.push(Uint64Value(ins.arg))
		case opBytes:
			m.push(BytesValue(ins.data))

		case opTxnSender:
			// Copy out of the machine struct: the pushed value can escape
			// into the ledger (e.g. a stored creator address), and a slice
			// aliasing the pooled machine's tx field would be rewritten by
			// the next call that reuses the machine.
			sender := m.tx.Sender
			m.push(BytesValue(sender[:]))
		case opTxnApplicationID:
			if m.tx.CreateMode {
				m.push(Uint64Value(0))
			} else {
				m.push(Uint64Value(m.tx.AppID))
			}
		case opTxnaArg:
			if ins.arg >= uint64(len(m.tx.Args)) {
				m.fail(fmt.Errorf("%w: ApplicationArgs index %d of %d", ErrBadProgram, ins.arg, len(m.tx.Args)))
			}
			m.push(BytesValue(m.tx.Args[ins.arg]))
		case opGtxnAmount:
			m.push(Uint64Value(m.tx.PayAmount))

		case opGlobalLatestTimestamp:
			m.push(Uint64Value(m.ledger.LatestTimestamp()))
		case opGlobalCurrentApplicationAddress:
			a := m.ledger.AppAddress(m.tx.AppID)
			m.push(BytesValue(a[:]))
		case opGlobalMinBalance:
			m.push(Uint64Value(MinBalanceValue))

		case opAdd, opSub, opMul, opDiv, opMod, opLt, opGt, opLe, opGe, opAnd, opOr:
			a, b := m.pop2()
			x, y := m.asUint(a), m.asUint(b)
			var out uint64
			switch ins.code {
			case opAdd:
				out = x + y
				if out < x {
					m.fail(fmt.Errorf("%w: + overflow", ErrBadProgram))
				}
			case opSub:
				if y > x {
					m.fail(fmt.Errorf("%w: - underflow", ErrBadProgram))
				}
				out = x - y
			case opMul:
				if x != 0 && (x*y)/x != y {
					m.fail(fmt.Errorf("%w: * overflow", ErrBadProgram))
				}
				out = x * y
			case opDiv:
				if y == 0 {
					m.fail(fmt.Errorf("%w: divide by zero", ErrBadProgram))
				}
				out = x / y
			case opMod:
				if y == 0 {
					m.fail(fmt.Errorf("%w: modulo by zero", ErrBadProgram))
				}
				out = x % y
			case opLt:
				out = b2u(x < y)
			case opGt:
				out = b2u(x > y)
			case opLe:
				out = b2u(x <= y)
			case opGe:
				out = b2u(x >= y)
			case opAnd:
				out = b2u(x != 0 && y != 0)
			case opOr:
				out = b2u(x != 0 || y != 0)
			}
			m.push(Uint64Value(out))

		case opEq, opNe:
			a, b := m.pop2()
			if a.IsBytes != b.IsBytes {
				m.fail(ErrTypeMismatch)
			}
			eq := a.Uint == b.Uint
			if a.IsBytes {
				eq = string(a.Bytes) == string(b.Bytes)
			}
			m.push(Uint64Value(b2u(eq == (ins.code == opEq))))

		case opNot:
			m.push(Uint64Value(b2u(m.popUint() == 0)))
		case opItob:
			m.push(BytesValue(Itob(m.popUint())))
		case opBtoi:
			v, err := Btoi(m.popBytes())
			if err != nil {
				m.fail(err)
			}
			m.push(Uint64Value(v))
		case opConcat:
			a, b := m.pop2()
			x, y := m.asBytes(a), m.asBytes(b)
			m.push(BytesValue(append(append([]byte(nil), x...), y...)))
		case opSha256:
			h := polcrypto.Hash1(m.popBytes())
			m.push(BytesValue(h[:]))

		case opSha256Parts:
			// Precompile pseudo-op: sha256 over the concatenation of the
			// top N stack values without materializing the concatenation.
			parts := make([][]byte, ins.arg)
			for i := len(parts) - 1; i >= 0; i-- {
				parts[i] = m.popBytes()
			}
			h, _ := preSha256Parts.Native(parts...)
			m.push(BytesValue(h[:]))

		case opEd25519Verify:
			// Precompile pseudo-op: pops pubkey, signature, data (TEAL
			// argument order data/sig/pubkey) and pushes the verdict of
			// polcrypto.Verify.
			pub := m.popBytes()
			sig := m.popBytes()
			data := m.popBytes()
			w, ok := preEd25519.Native(pub, data, sig)
			if !ok {
				m.fail(fmt.Errorf("%w: ed25519verify", ErrBadProgram))
			}
			m.push(Uint64Value(uint64(w[31])))

		case opOLCContains:
			// Precompile pseudo-op: pops code, cell and pushes whether the
			// open-location code lies in the (stripped-prefix) area cell.
			code := m.popBytes()
			cell := m.popBytes()
			w, ok := preOLCContains.Native(cell, code)
			if !ok {
				m.fail(fmt.Errorf("%w: olc_contains", ErrBadProgram))
			}
			m.push(Uint64Value(uint64(w[31])))

		case opPop:
			m.pop()
		case opSwap:
			a, b := m.pop2()
			m.push(b)
			m.push(a)

		case opB, opBnz, opBz:
			if ins.code == opB || (ins.code == opBnz) == (m.popUint() != 0) {
				pc = int(ins.arg)
				continue
			}

		case opAssert:
			if m.popUint() == 0 {
				m.fail(fmt.Errorf("%w: assert failed", ErrRejected))
			}
		case opErr:
			m.fail(ErrRejected)
		case opReturn:
			return m.popUint() != 0, nil

		case opLog:
			b := m.popBytes()
			m.logs = append(m.logs, string(b))
			if len(b) >= len(ReturnPrefix) && string(b[:len(ReturnPrefix)]) == ReturnPrefix {
				m.ret = append([]byte(nil), b[len(ReturnPrefix):]...)
			}

		case opAppGlobalGet:
			v, ok := m.ledger.GlobalGet(m.tx.AppID, string(m.popBytes()))
			if !ok {
				v = Uint64Value(0)
			}
			m.push(v)
		case opAppGlobalGetEx:
			// Pops key then app id (0 = current app); pushes value and a
			// did-exist flag, as on the real AVM.
			key := m.popBytes()
			app := m.popUint()
			if app == 0 {
				app = m.tx.AppID
			}
			v, ok := m.ledger.GlobalGet(app, string(key))
			if !ok {
				v = Uint64Value(0)
			}
			m.push(v)
			m.push(Uint64Value(b2u(ok)))
		case opAppGlobalPut:
			v := m.pop()
			m.ledger.GlobalPut(m.tx.AppID, string(m.popBytes()), v)
		case opAppGlobalDel:
			m.ledger.GlobalDel(m.tx.AppID, string(m.popBytes()))

		case opBalance:
			m.push(Uint64Value(m.ledger.Balance(chain.AddressFromBytes(m.popBytes()))))

		case opItxnBegin:
			if m.itxnOpen {
				m.fail(fmt.Errorf("%w: nested itxn_begin", ErrBadProgram))
			}
			m.itxnOpen = true
			m.itxnReceiver = chain.Address{}
			m.itxnAmount = 0
		case opItxnReceiver, opItxnAmount, opItxnTypeEnum:
			if !m.itxnOpen {
				m.fail(fmt.Errorf("%w: itxn_field outside group", ErrBadProgram))
			}
			switch ins.code {
			case opItxnReceiver:
				m.itxnReceiver = chain.AddressFromBytes(m.popBytes())
			case opItxnAmount:
				m.itxnAmount = m.popUint()
			default:
				// Only pay (1) exists here: any other type would still move
				// ALGO at itxn_submit.
				if t := m.popUint(); t != 1 {
					m.fail(fmt.Errorf("%w: itxn TypeEnum %d, only 1 (pay) is supported", ErrBadProgram, t))
				}
			}
		case opItxnSubmit:
			if !m.itxnOpen {
				m.fail(fmt.Errorf("%w: itxn_submit outside group", ErrBadProgram))
			}
			m.itxnOpen = false
			if err := m.ledger.Pay(m.ledger.AppAddress(m.tx.AppID), m.itxnReceiver, m.itxnAmount); err != nil {
				m.fail(err)
			}

		default:
			// Only an Instr that Parse did not decode gets here.
			m.fail(fmt.Errorf("%w: unknown opcode %q", ErrBadProgram, ins.Op))
		}
		pc++
	}
	// Falling off the end without `return` rejects, as on the real AVM
	// (which requires a final stack value; our compiler always emits an
	// explicit return).
	return false, fmt.Errorf("%w: program ended without return", ErrBadProgram)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
