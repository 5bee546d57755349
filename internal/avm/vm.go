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

// OnCompletion values of an application call.
const (
	OnNoOp      uint64 = 0
	OnOptIn     uint64 = 1
	OnCloseOut  uint64 = 2
	OnDeleteApp uint64 = 5
)

// TxContext is the transaction an application call executes under.
type TxContext struct {
	Sender chain.Address
	// AppID is the application whose state the call mutates. During
	// creation the ledger has already allocated it, but the program sees
	// ApplicationID == 0 (set CreateMode), as on the real AVM.
	AppID        uint64
	CreateMode   bool
	Args         [][]byte
	Accounts     []chain.Address
	OnCompletion uint64
	Fee          uint64
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
	// Return carries the bytes of the last `log` prefixed with "return:",
	// the convention the contract-language ABI uses for API return values.
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
// these into Instr.Cost so the interpreter loop never consults the map.
// Precompile pseudo-ops (ed25519verify, keccak256, sha256_parts,
// olc_contains) register their fixed costs from the shared registry at init
// so the two stay in lockstep.
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
	preKeccak256   = precompile.ByAVMOp("keccak256")
	preSha256Parts = precompile.ByAVMOp("sha256_parts")
	preOLCContains = precompile.ByAVMOp("olc_contains")
)

// instrCost is the budget cost of op (≥ 1).
func instrCost(op string) uint64 {
	if c := opCost[op]; c != 0 {
		return c
	}
	return 1
}

// instrCostArgs is instrCost made argument-aware: sha256_parts charges its
// base cost plus one per hashed part, mirroring how the EVM precompile
// charges per referenced range.
func instrCostArgs(op string, args []string) uint64 {
	c := instrCost(op)
	if op == "sha256_parts" && len(args) == 1 {
		if n, err := argUint(args[0]); err == nil {
			c += n
		}
	}
	return c
}

// machine is the pooled per-call interpreter state. The AVM already
// computes on uint64 values, so the analogue of the EVM's u256 rewrite is
// recycling the machine itself: the 256-slot scratch space (~10 KB) and the
// stack/call-stack slices dominate per-Execute allocation. Scratch slots
// are cleared lazily via a dirty list — a call that writes three slots pays
// for three, not 256.
type machine struct {
	prog   *Program
	ledger Ledger
	tx     TxContext

	stack        []Value
	scratch      [256]Value
	scratchDirty []uint16
	callers      []int
	cost         uint64
	budget       uint64
	logs         []string
	ret          []byte

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
	m.callers = m.callers[:0]
	m.cost = 0
	m.budget = uint64(tx.BudgetTxns) * DefaultBudget
	m.logs = nil // escapes into Result, never pooled
	m.ret = nil
	m.itxnOpen = false
	m.itxnReceiver = chain.Address{}
	m.itxnAmount = 0
}

// release drops every reference before the machine returns to the pool:
// dirty scratch slots, any values left on the stack's backing array, and
// the borrowed program/ledger.
func (m *machine) release() {
	m.prog = nil
	m.ledger = nil
	m.tx = TxContext{}
	for _, i := range m.scratchDirty {
		m.scratch[i] = Value{}
	}
	m.scratchDirty = m.scratchDirty[:0]
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
// rollback when a call is rejected.
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

func (m *machine) push(v Value) { m.stack = append(m.stack, v) }

func (m *machine) pop() (Value, error) {
	if len(m.stack) == 0 {
		return Value{}, fmt.Errorf("%w: pop on empty stack", ErrStack)
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v, nil
}

func (m *machine) pop2() (Value, Value, error) {
	b, err := m.pop()
	if err != nil {
		return Value{}, Value{}, err
	}
	a, err := m.pop()
	if err != nil {
		return Value{}, Value{}, err
	}
	return a, b, nil
}

func (m *machine) popUint() (uint64, error) {
	v, err := m.pop()
	if err != nil {
		return 0, err
	}
	return v.AsUint()
}

func (m *machine) popBytes() ([]byte, error) {
	v, err := m.pop()
	if err != nil {
		return nil, err
	}
	return v.AsBytes()
}

//nolint:gocyclo // the interpreter is a single large dispatch by design.
func (m *machine) run() (bool, error) {
	pc := 0
	for pc < len(m.prog.Instrs) {
		ins := m.prog.Instrs[pc]
		c := ins.Cost
		if c == 0 { // program not built by Parse
			c = instrCostArgs(ins.Op, ins.Args)
		}
		m.cost += c
		if m.tx.Profiler != nil {
			m.tx.Profiler.Op(ins.Op, c)
		}
		if m.cost > m.budget {
			return false, fmt.Errorf("%w: %d > %d at line %d", ErrBudgetExceeded, m.cost, m.budget, ins.Line)
		}

		errAt := func(err error) error {
			return fmt.Errorf("line %d (%s): %w", ins.Line, ins.Op, err)
		}

		switch ins.Op {
		case "int", "pushint":
			v, err := argUint(ins.Args[0])
			if err != nil {
				return false, errAt(err)
			}
			m.push(Uint64Value(v))

		case "byte", "pushbytes":
			m.push(BytesValue([]byte(argString(ins.Args[0]))))

		case "addr":
			// The assembler writes raw 20-byte addresses as hex with 0x.
			s := argString(ins.Args[0])
			m.push(BytesValue([]byte(s)))

		case "txn":
			switch ins.Args[0] {
			case "Sender":
				// Copy out of the machine struct: the pushed value can
				// escape into the ledger (e.g. a stored creator address),
				// and a slice aliasing the pooled machine's tx field would
				// be rewritten by the next call that reuses the machine.
				sender := m.tx.Sender
				m.push(BytesValue(sender[:]))
			case "ApplicationID":
				if m.tx.CreateMode {
					m.push(Uint64Value(0))
				} else {
					m.push(Uint64Value(m.tx.AppID))
				}
			case "NumAppArgs":
				m.push(Uint64Value(uint64(len(m.tx.Args))))
			case "OnCompletion":
				m.push(Uint64Value(m.tx.OnCompletion))
			case "Fee":
				m.push(Uint64Value(m.tx.Fee))
			default:
				return false, errAt(fmt.Errorf("%w: txn field %q", ErrBadProgram, ins.Args[0]))
			}

		case "txna":
			if ins.Args[0] != "ApplicationArgs" {
				return false, errAt(fmt.Errorf("%w: txna field %q", ErrBadProgram, ins.Args[0]))
			}
			i, err := argUint(ins.Args[1])
			if err != nil {
				return false, errAt(err)
			}
			if i >= uint64(len(m.tx.Args)) {
				return false, errAt(fmt.Errorf("%w: ApplicationArgs index %d of %d", ErrBadProgram, i, len(m.tx.Args)))
			}
			m.push(BytesValue(m.tx.Args[i]))

		case "gtxn":
			// Group index 0 is by convention the payment transaction the
			// connector groups in front of a paying API call.
			if argString(ins.Args[0]) != "0" || ins.Args[1] != "Amount" {
				return false, errAt(fmt.Errorf("%w: gtxn %v", ErrBadProgram, ins.Args))
			}
			m.push(Uint64Value(m.tx.PayAmount))

		case "global":
			switch ins.Args[0] {
			case "LatestTimestamp":
				m.push(Uint64Value(m.ledger.LatestTimestamp()))
			case "Round":
				m.push(Uint64Value(m.ledger.Round()))
			case "CurrentApplicationID":
				m.push(Uint64Value(m.tx.AppID))
			case "CurrentApplicationAddress":
				a := m.ledger.AppAddress(m.tx.AppID)
				m.push(BytesValue(a[:]))
			case "ZeroAddress":
				var z chain.Address
				m.push(BytesValue(z[:]))
			case "MinTxnFee":
				m.push(Uint64Value(1000))
			case "MinBalance":
				m.push(Uint64Value(MinBalanceValue))
			default:
				return false, errAt(fmt.Errorf("%w: global field %q", ErrBadProgram, ins.Args[0]))
			}

		case "+", "-", "*", "/", "%", "<", ">", "<=", ">=", "&&", "||":
			a, b, err := m.pop2()
			if err != nil {
				return false, errAt(err)
			}
			x, err := a.AsUint()
			if err != nil {
				return false, errAt(err)
			}
			y, err := b.AsUint()
			if err != nil {
				return false, errAt(err)
			}
			var out uint64
			switch ins.Op {
			case "+":
				out = x + y
				if out < x {
					return false, errAt(fmt.Errorf("%w: + overflow", ErrBadProgram))
				}
			case "-":
				if y > x {
					return false, errAt(fmt.Errorf("%w: - underflow", ErrBadProgram))
				}
				out = x - y
			case "*":
				if x != 0 && (x*y)/x != y {
					return false, errAt(fmt.Errorf("%w: * overflow", ErrBadProgram))
				}
				out = x * y
			case "/":
				if y == 0 {
					return false, errAt(fmt.Errorf("%w: divide by zero", ErrBadProgram))
				}
				out = x / y
			case "%":
				if y == 0 {
					return false, errAt(fmt.Errorf("%w: modulo by zero", ErrBadProgram))
				}
				out = x % y
			case "<":
				out = b2u(x < y)
			case ">":
				out = b2u(x > y)
			case "<=":
				out = b2u(x <= y)
			case ">=":
				out = b2u(x >= y)
			case "&&":
				out = b2u(x != 0 && y != 0)
			case "||":
				out = b2u(x != 0 || y != 0)
			}
			m.push(Uint64Value(out))

		case "==", "!=":
			a, b, err := m.pop2()
			if err != nil {
				return false, errAt(err)
			}
			if a.IsBytes != b.IsBytes {
				return false, errAt(ErrTypeMismatch)
			}
			eq := false
			if a.IsBytes {
				eq = string(a.Bytes) == string(b.Bytes)
			} else {
				eq = a.Uint == b.Uint
			}
			if ins.Op == "!=" {
				eq = !eq
			}
			m.push(Uint64Value(b2u(eq)))

		case "!":
			x, err := m.popUint()
			if err != nil {
				return false, errAt(err)
			}
			m.push(Uint64Value(b2u(x == 0)))

		case "itob":
			x, err := m.popUint()
			if err != nil {
				return false, errAt(err)
			}
			m.push(BytesValue(Itob(x)))

		case "btoi":
			b, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			v, err := Btoi(b)
			if err != nil {
				return false, errAt(err)
			}
			m.push(Uint64Value(v))

		case "concat":
			a, b, err := m.pop2()
			if err != nil {
				return false, errAt(err)
			}
			x, err := a.AsBytes()
			if err != nil {
				return false, errAt(err)
			}
			y, err := b.AsBytes()
			if err != nil {
				return false, errAt(err)
			}
			m.push(BytesValue(append(append([]byte(nil), x...), y...)))

		case "len":
			b, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			m.push(Uint64Value(uint64(len(b))))

		case "sha256":
			b, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			h := polcrypto.Hash1(b)
			m.push(BytesValue(h[:]))

		case "sha256_parts":
			// Precompile pseudo-op: sha256 over the concatenation of the
			// top N stack values without materializing the concatenation.
			n, err := argUint(ins.Args[0])
			if err != nil || n < 1 || n > 16 {
				return false, errAt(fmt.Errorf("%w: sha256_parts count", ErrBadProgram))
			}
			parts := make([][]byte, n)
			for i := int(n) - 1; i >= 0; i-- {
				if parts[i], err = m.popBytes(); err != nil {
					return false, errAt(err)
				}
			}
			h, _ := preSha256Parts.Native(parts...)
			m.push(BytesValue(h[:]))

		case "keccak256":
			// Precompile pseudo-op; the system hash is SHA-256 throughout
			// (DESIGN.md §14), so this is sha256 at keccak's op cost.
			b, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			h, _ := preKeccak256.Native(b)
			m.push(BytesValue(h[:]))

		case "ed25519verify":
			// Precompile pseudo-op: pops pubkey, signature, data (TEAL
			// argument order data/sig/pubkey) and pushes the verdict. Routed
			// through the shared LRU signature cache.
			pub, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			sig, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			data, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			w, ok := preEd25519.Native(pub, data, sig)
			if !ok {
				return false, errAt(fmt.Errorf("%w: ed25519verify", ErrBadProgram))
			}
			m.push(Uint64Value(uint64(w[31])))

		case "olc_contains":
			// Precompile pseudo-op: pops code, cell and pushes whether the
			// open-location code lies in the (stripped-prefix) area cell.
			code, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			cell, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			w, ok := preOLCContains.Native(cell, code)
			if !ok {
				return false, errAt(fmt.Errorf("%w: olc_contains", ErrBadProgram))
			}
			m.push(Uint64Value(uint64(w[31])))

		case "dup":
			v, err := m.pop()
			if err != nil {
				return false, errAt(err)
			}
			m.push(v)
			m.push(v)

		case "pop":
			if _, err := m.pop(); err != nil {
				return false, errAt(err)
			}

		case "swap":
			a, b, err := m.pop2()
			if err != nil {
				return false, errAt(err)
			}
			m.push(b)
			m.push(a)

		case "select":
			// select: A B C -> (C != 0 ? B : A)
			c, err := m.popUint()
			if err != nil {
				return false, errAt(err)
			}
			a, b, err := m.pop2()
			if err != nil {
				return false, errAt(err)
			}
			if c != 0 {
				m.push(b)
			} else {
				m.push(a)
			}

		case "store":
			i, err := argUint(ins.Args[0])
			if err != nil || i >= 256 {
				return false, errAt(fmt.Errorf("%w: scratch slot", ErrBadProgram))
			}
			v, err := m.pop()
			if err != nil {
				return false, errAt(err)
			}
			m.scratch[i] = v
			m.scratchDirty = append(m.scratchDirty, uint16(i))

		case "load":
			i, err := argUint(ins.Args[0])
			if err != nil || i >= 256 {
				return false, errAt(fmt.Errorf("%w: scratch slot", ErrBadProgram))
			}
			m.push(m.scratch[i])

		case "b", "bnz", "bz":
			target, ok := m.prog.Labels[ins.Args[0]]
			if !ok {
				return false, errAt(fmt.Errorf("%w: undefined label %q", ErrBadProgram, ins.Args[0]))
			}
			take := true
			if ins.Op != "b" {
				x, err := m.popUint()
				if err != nil {
					return false, errAt(err)
				}
				take = (ins.Op == "bnz") == (x != 0)
			}
			if take {
				pc = target
				continue
			}

		case "callsub":
			target, ok := m.prog.Labels[ins.Args[0]]
			if !ok {
				return false, errAt(fmt.Errorf("%w: undefined label %q", ErrBadProgram, ins.Args[0]))
			}
			m.callers = append(m.callers, pc+1)
			pc = target
			continue

		case "retsub":
			if len(m.callers) == 0 {
				return false, errAt(fmt.Errorf("%w: retsub without callsub", ErrBadProgram))
			}
			pc = m.callers[len(m.callers)-1]
			m.callers = m.callers[:len(m.callers)-1]
			continue

		case "assert":
			x, err := m.popUint()
			if err != nil {
				return false, errAt(err)
			}
			if x == 0 {
				return false, errAt(fmt.Errorf("%w: assert failed", ErrRejected))
			}

		case "err":
			return false, errAt(ErrRejected)

		case "return":
			x, err := m.popUint()
			if err != nil {
				return false, errAt(err)
			}
			return x != 0, nil

		case "log":
			b, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			m.logs = append(m.logs, string(b))
			const retPrefix = "return:"
			if len(b) >= len(retPrefix) && string(b[:len(retPrefix)]) == retPrefix {
				m.ret = append([]byte(nil), b[len(retPrefix):]...)
			}

		case "app_global_get":
			key, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			v, ok := m.ledger.GlobalGet(m.tx.AppID, string(key))
			if !ok {
				v = Uint64Value(0)
			}
			m.push(v)

		case "app_global_get_ex":
			// Pops key then app id (0 = current app); pushes value and a
			// did-exist flag, as on the real AVM.
			key, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			app, err := m.popUint()
			if err != nil {
				return false, errAt(err)
			}
			if app == 0 {
				app = m.tx.AppID
			}
			v, ok := m.ledger.GlobalGet(app, string(key))
			if !ok {
				v = Uint64Value(0)
			}
			m.push(v)
			m.push(Uint64Value(b2u(ok)))

		case "app_global_put":
			v, err := m.pop()
			if err != nil {
				return false, errAt(err)
			}
			key, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			m.ledger.GlobalPut(m.tx.AppID, string(key), v)

		case "app_global_del":
			key, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			m.ledger.GlobalDel(m.tx.AppID, string(key))

		case "app_local_get":
			key, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			acct, err := m.popAccount()
			if err != nil {
				return false, errAt(err)
			}
			v, ok := m.ledger.LocalGet(m.tx.AppID, acct, string(key))
			if !ok {
				v = Uint64Value(0)
			}
			m.push(v)

		case "app_local_put":
			v, err := m.pop()
			if err != nil {
				return false, errAt(err)
			}
			key, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			acct, err := m.popAccount()
			if err != nil {
				return false, errAt(err)
			}
			m.ledger.LocalPut(m.tx.AppID, acct, string(key), v)

		case "app_local_del":
			key, err := m.popBytes()
			if err != nil {
				return false, errAt(err)
			}
			acct, err := m.popAccount()
			if err != nil {
				return false, errAt(err)
			}
			m.ledger.LocalDel(m.tx.AppID, acct, string(key))

		case "balance":
			acct, err := m.popAccount()
			if err != nil {
				return false, errAt(err)
			}
			m.push(Uint64Value(m.ledger.Balance(acct)))

		case "itxn_begin":
			if m.itxnOpen {
				return false, errAt(fmt.Errorf("%w: nested itxn_begin", ErrBadProgram))
			}
			m.itxnOpen = true
			m.itxnReceiver = chain.Address{}
			m.itxnAmount = 0

		case "itxn_field":
			if !m.itxnOpen {
				return false, errAt(fmt.Errorf("%w: itxn_field outside group", ErrBadProgram))
			}
			switch ins.Args[0] {
			case "Receiver":
				b, err := m.popBytes()
				if err != nil {
					return false, errAt(err)
				}
				m.itxnReceiver = chain.AddressFromBytes(b)
			case "Amount":
				v, err := m.popUint()
				if err != nil {
					return false, errAt(err)
				}
				m.itxnAmount = v
			case "TypeEnum":
				if _, err := m.pop(); err != nil { // only "pay" supported
					return false, errAt(err)
				}
			default:
				return false, errAt(fmt.Errorf("%w: itxn field %q", ErrBadProgram, ins.Args[0]))
			}

		case "itxn_submit":
			if !m.itxnOpen {
				return false, errAt(fmt.Errorf("%w: itxn_submit outside group", ErrBadProgram))
			}
			m.itxnOpen = false
			from := m.ledger.AppAddress(m.tx.AppID)
			if err := m.ledger.Pay(from, m.itxnReceiver, m.itxnAmount); err != nil {
				return false, errAt(err)
			}

		default:
			return false, errAt(fmt.Errorf("%w: unknown opcode %q", ErrBadProgram, ins.Op))
		}
		pc++
	}
	// Falling off the end without `return` rejects, as on the real AVM
	// (which requires a final stack value; our compiler always emits an
	// explicit return).
	return false, fmt.Errorf("%w: program ended without return", ErrBadProgram)
}

// popAccount pops an account reference: bytes are a raw address.
func (m *machine) popAccount() (chain.Address, error) {
	v, err := m.pop()
	if err != nil {
		return chain.Address{}, err
	}
	if v.IsBytes {
		return chain.AddressFromBytes(v.Bytes), nil
	}
	// Numeric account references index the Accounts array; 0 is the sender.
	if v.Uint == 0 {
		return m.tx.Sender, nil
	}
	i := v.Uint - 1
	if i >= uint64(len(m.tx.Accounts)) {
		return chain.Address{}, fmt.Errorf("%w: account index %d", ErrBadProgram, v.Uint)
	}
	return m.tx.Accounts[i], nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
