package lang

import (
	"fmt"
	"strings"

	"agnopol/internal/evm"
)

// Analysis is the compiler's conservative (worst-case) resource analysis,
// the counterpart of the Reach output shown in Fig. 5.1 of the thesis. The
// estimates are upper bounds under the stated assumption on byte-string
// sizes; a property test checks they dominate the gas actually measured on
// the simulated chains.
type Analysis struct {
	Program string
	// MaxBytesLen is the assumed upper bound on every Bytes value
	// (mirrors Reach's Bytes(N) annotations; the thesis contract uses
	// Bytes(128) for positions and Bytes(512) for the concatenated data).
	MaxBytesLen int

	// EVM deployment: code size drives the Gcodedeposit term.
	EVMCodeBytes  int
	EVMDeployGas  uint64 // intrinsic create + code deposit + worst ctor execution
	TEALSourceLen int

	Methods []MethodCost
}

// MethodCost is the per-method worst case.
type MethodCost struct {
	Name         string
	Kind         string // "constructor", "api", "view"
	EVMGas       uint64 // execution gas, excluding intrinsic
	EVMIntrinsic uint64 // 21000 + worst-case calldata
	AVMCost      uint64 // opcode budget
	AVMBudget    int    // grouped transactions needed (ceil cost/700)
	StorageSlots int    // worst-case storage slots written
}

// TotalEVMGas is the number the paper quotes per operation (e.g. attach =
// 82,437 gas): intrinsic plus execution.
func (m MethodCost) TotalEVMGas() uint64 { return m.EVMGas + m.EVMIntrinsic }

// String renders the analysis in the style of Fig. 5.1.
func (a *Analysis) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Conservative analysis of %q (Bytes ≤ %d)\n", a.Program, a.MaxBytesLen)
	fmt.Fprintf(&sb, "  EVM code size: %d bytes; worst-case deploy gas: %d\n", a.EVMCodeBytes, a.EVMDeployGas)
	fmt.Fprintf(&sb, "  TEAL source: %d bytes\n", a.TEALSourceLen)
	fmt.Fprintf(&sb, "  %-16s %-12s %12s %12s %10s %8s\n", "method", "kind", "EVM gas", "intrinsic", "AVM cost", "slots")
	for _, m := range a.Methods {
		fmt.Fprintf(&sb, "  %-16s %-12s %12d %12d %10d %8d\n",
			m.Name, m.Kind, m.EVMGas, m.EVMIntrinsic, m.AVMCost, m.StorageSlots)
	}
	return sb.String()
}

type analyzer struct {
	p        *Program
	maxBytes uint64
	params   []Param
}

// Analyze computes the conservative analysis of a checked program.
// evmCode is the compiled EVM bytecode (for the code-deposit term);
// tealSrc the TEAL source.
func Analyze(p *Program, evmCode []byte, tealSrc string, maxBytesLen int) *Analysis {
	if maxBytesLen <= 0 {
		maxBytesLen = 512
	}
	an := &analyzer{p: p, maxBytes: uint64(maxBytesLen)}
	a := &Analysis{
		Program:       p.Name,
		MaxBytesLen:   maxBytesLen,
		EVMCodeBytes:  len(evmCode),
		TEALSourceLen: len(tealSrc),
	}

	ctorGas, ctorCost, ctorSlots := an.method(p.Ctor.Params, p.Ctor.Body, nil)
	// The constructor additionally writes the deploy-once flag (one cold
	// zero→non-zero SSTORE).
	ctorGas += evm.GasColdSLoad + evm.GasSSet + 30
	ctorIntrinsic := an.intrinsic(p.Ctor.Params, true)
	a.Methods = append(a.Methods, MethodCost{
		Name: "ctor", Kind: "constructor",
		EVMGas: ctorGas, EVMIntrinsic: ctorIntrinsic,
		AVMCost: ctorCost, AVMBudget: budgetTxns(ctorCost), StorageSlots: ctorSlots + 1,
	})
	// Deployment: intrinsic (with create surcharge), the calldata cost of
	// shipping the runtime code itself, the per-byte code deposit, and
	// the constructor execution.
	a.EVMDeployGas = ctorIntrinsic +
		uint64(len(evmCode)+8)*evm.GasTxDataNonZero +
		uint64(len(evmCode))*evm.GasCodeDeposit +
		ctorGas

	for _, api := range p.APIs {
		gas, cost, slots := an.method(api.Params, api.Body, api.Pay)
		a.Methods = append(a.Methods, MethodCost{
			Name: api.Name, Kind: "api",
			EVMGas: gas, EVMIntrinsic: an.intrinsic(api.Params, false),
			AVMCost: cost, AVMBudget: budgetTxns(cost), StorageSlots: slots,
		})
	}
	for _, v := range p.Views {
		gas := an.dispatchGas() + an.exprGas(v.Expr) + 20
		cost := an.dispatchCost() + an.exprCost(v.Expr) + 8
		a.Methods = append(a.Methods, MethodCost{
			Name: v.Name, Kind: "view",
			EVMGas: gas, EVMIntrinsic: 0, // views are free (§4.1.2)
			AVMCost: cost, AVMBudget: budgetTxns(cost),
		})
	}
	return a
}

func budgetTxns(cost uint64) int {
	n := int((cost + 699) / 700)
	if n < 1 {
		n = 1
	}
	return n
}

// intrinsic is the worst-case intrinsic transaction gas: base cost plus
// all-non-zero calldata.
func (an *analyzer) intrinsic(params []Param, create bool) uint64 {
	bytes := uint64(4) // selector
	for _, p := range params {
		bytes += 32
		if p.Type == TBytes {
			bytes += 32 + roundUp32(an.maxBytes)
		}
	}
	gas := uint64(evm.GasTransaction) + bytes*evm.GasTxDataNonZero
	if create {
		gas += evm.GasTxCreate
	}
	return gas
}

func roundUp32(n uint64) uint64 { return (n + 31) / 32 * 32 }

func (an *analyzer) chunks() uint64 { return (an.maxBytes + 31) / 32 }

// dispatchGas is the selector-dispatch and deploy-guard overhead.
func (an *analyzer) dispatchGas() uint64 {
	// free-pointer init, selector load/shift, one comparison per method,
	// cold SLOAD of the deployed flag, value check.
	return 30 + uint64(len(an.p.APIs)+len(an.p.Views)+1)*15 + evm.GasColdSLoad + 30
}

func (an *analyzer) dispatchCost() uint64 {
	return 3 + uint64(len(an.p.APIs)+len(an.p.Views))*4 + 4
}

func (an *analyzer) method(params []Param, body []Stmt, pay Expr) (evmGas, avmCost uint64, slots int) {
	an.params = params
	evmGas = an.dispatchGas()
	avmCost = an.dispatchCost()
	if pay != nil {
		evmGas += an.exprGas(pay) + 10
		avmCost += an.exprCost(pay) + 3
	} else {
		evmGas += 15
		avmCost += 3
	}
	g, c, s := an.stmtsGas(body)
	return evmGas + g, avmCost + c, s
}

// stmtsGas returns worst-case (EVM gas, AVM cost, storage slots) of a body,
// taking the max over If branches.
func (an *analyzer) stmtsGas(body []Stmt) (uint64, uint64, int) {
	var gas, cost uint64
	slots := 0
	for _, s := range body {
		g, c, sl := an.stmtGas(s)
		gas += g
		cost += c
		slots += sl
	}
	return gas, cost, slots
}

//nolint:gocyclo // cost model mirrors the statement forms.
func (an *analyzer) stmtGas(s Stmt) (uint64, uint64, int) {
	const sstoreWorst = evm.GasColdSLoad + evm.GasSSet // cold + zero→non-zero
	switch s := s.(type) {
	case *Assume:
		return an.exprGas(s.Cond) + 15, an.exprCost(s.Cond) + 1, 0
	case *Require:
		return an.exprGas(s.Cond) + 15, an.exprCost(s.Cond) + 1, 0
	case *SetGlobal:
		gi, _ := an.p.globalIndex(s.Name)
		if an.p.Globals[gi].Type == TBytes {
			g := an.exprGas(s.Value) + 60 + sstoreWorst + an.chunks()*(sstoreWorst+70)
			return g, an.exprCost(s.Value) + 3, 1 + int(an.chunks())
		}
		return an.exprGas(s.Value) + 6 + sstoreWorst, an.exprCost(s.Value) + 3, 1
	case *MapSet:
		mi, _ := an.p.mapIndex(s.Map)
		base := an.exprGas(s.Key) + 60 + 36 // key + keccak
		if an.p.Maps[mi].Value == TBytes {
			g := base + an.exprGas(s.Value) + 60 + sstoreWorst + an.chunks()*(sstoreWorst+70)
			return g, an.exprCost(s.Key) + an.exprCost(s.Value) + 6, 1 + int(an.chunks())
		}
		return base + an.exprGas(s.Value) + 15 + sstoreWorst, an.exprCost(s.Key) + an.exprCost(s.Value) + 6, 1
	case *MapDel:
		mi, _ := an.p.mapIndex(s.Map)
		base := an.exprGas(s.Key) + 60 + 36
		if an.p.Maps[mi].Value == TBytes {
			// Deleting reads the length then zeroes marker and chunks
			// (refunds accrue separately).
			g := base + evm.GasColdSLoad + 100 + (an.chunks()+1)*(evm.GasSReset+70)
			return g, an.exprCost(s.Key) + 5, 0
		}
		return base + evm.GasSReset + 10, an.exprCost(s.Key) + 5, 0
	case *Transfer:
		g := an.exprGas(s.Amount) + an.exprGas(s.To) + 30 +
			evm.GasColdAccount + evm.GasCallValue + evm.GasNewAccount
		return g, an.exprCost(s.Amount) + an.exprCost(s.To) + 7, 0
	case *If:
		tg, tc, ts := an.stmtsGas(s.Then)
		eg, ec, es := an.stmtsGas(s.Else)
		g := an.exprGas(s.Cond) + 25 + maxU64(tg, eg)
		c := an.exprCost(s.Cond) + 2 + maxU64(tc, ec)
		return g, c, maxInt(ts, es)
	case *Emit:
		g := an.exprGas(s.Value) + evm.GasLog + evm.GasLogTopic + evm.GasLogData*an.maxBytes + 20
		return g, an.exprCost(s.Value) + 4, 0
	case *Return:
		return an.exprGas(s.Value) + 20, an.exprCost(s.Value) + 8, 0
	default:
		return 0, 0, 0
	}
}

//nolint:gocyclo // cost model mirrors the expression forms.
func (an *analyzer) exprGas(e Expr) uint64 {
	switch e := e.(type) {
	case *Const:
		if e.Type == TBytes {
			return 45 + uint64((len(e.Bytes)+31)/32)*9
		}
		return 3
	case *Arg:
		if e.Index >= 0 && e.Index < len(an.params) && an.params[e.Index].Type == TBytes {
			return 80 + an.chunks()*70
		}
		return 6
	case *GlobalRef:
		gi, _ := an.p.globalIndex(e.Name)
		if an.p.Globals[gi].Type == TBytes {
			return 80 + evm.GasColdSLoad + an.chunks()*(evm.GasColdSLoad+70)
		}
		return 3 + evm.GasColdSLoad
	case *MapGet:
		mi, _ := an.p.mapIndex(e.Map)
		base := an.exprGas(e.Key) + 60 + 36
		if an.p.Maps[mi].Value == TBytes {
			return base + 80 + evm.GasColdSLoad + an.chunks()*(evm.GasColdSLoad+70)
		}
		return base + evm.GasColdSLoad + 6
	case *MapHas:
		return an.exprGas(e.Key) + 60 + 36 + evm.GasColdSLoad + 6
	case *Bin:
		g := an.exprGas(e.A) + an.exprGas(e.B)
		switch e.Op {
		case OpConcat:
			return g + 100 + 2*an.chunks()*70
		case OpEq, OpNe:
			// Bytes equality is bounded by hashing both sides (the
			// hash-compare lowering the bytes_equal precompile replaced,
			// kept so published analyses do not move); uint equality is
			// cheap.
			return g + 2*(evm.GasKeccak256+evm.GasKeccak256Word*an.chunks()) + 10
		default:
			return g + 10
		}
	case *Not:
		return an.exprGas(e.A) + 3
	case *Balance:
		return evm.GasLow
	case *Caller, *Paid, *Now:
		return evm.GasBase
	case *Digest:
		return an.exprGas(e.A) + evm.GasKeccak256 + evm.GasKeccak256Word*an.chunks() + 60
	case *SigVerify:
		// Precompiled ed25519 verification: flat base plus the CALL's warm
		// access and descriptor plumbing.
		return an.exprGas(e.Pub) + an.exprGas(e.Msg) + an.exprGas(e.Sig) + 3000 + evm.GasWarmAccess + 200
	case *CellContains:
		// Bounded like a bytes equality: both operands hashed, as the
		// hash-compare lowering the olc_contains precompile replaced did.
		return an.exprGas(e.Cell) + an.exprGas(e.Code) + 2*(evm.GasKeccak256+evm.GasKeccak256Word*an.chunks()) + 30
	default:
		return 0
	}
}

//nolint:gocyclo // cost model mirrors the expression forms.
func (an *analyzer) exprCost(e Expr) uint64 {
	switch e := e.(type) {
	case *Const:
		return 1
	case *Arg:
		return 2
	case *GlobalRef:
		return 2
	case *MapGet:
		return an.exprCost(e.Key) + 5
	case *MapHas:
		return an.exprCost(e.Key) + 8
	case *Bin:
		return an.exprCost(e.A) + an.exprCost(e.B) + 1
	case *Not:
		return an.exprCost(e.A) + 1
	case *Balance:
		return 2
	case *Caller, *Paid, *Now:
		return 1
	case *Digest:
		return an.exprCost(e.A) + 36
	case *SigVerify:
		return an.exprCost(e.Pub) + an.exprCost(e.Msg) + an.exprCost(e.Sig) + 1900
	case *CellContains:
		return an.exprCost(e.Cell) + an.exprCost(e.Code) + 25
	default:
		return 0
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
