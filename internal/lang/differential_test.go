package lang

import (
	"fmt"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

// intn is a uniform int in [0, n) from r.
func intn(r *chain.Rand, n int) int { return int(r.Uint64n(uint64(n))) }

// Differential testing of the two backends: randomly generated expression
// trees are compiled to EVM and TEAL and must either fail identically
// (division by zero, uint64 overflow semantics differ — see below) or
// produce the same value. This is the strongest check that "blockchain
// agnostic" means agnostic.
//
// One semantic divergence is real and excluded by construction: the EVM
// computes modulo 2^256 while the AVM faults on uint64 overflow. The
// generator therefore keeps intermediate values small, mirroring the type
// checker's implicit UInt contract. Nothing else guards it: the verifier's
// arithmetic theorems are `sub-underflow` and `div-nonzero`, and none is
// about overflow.

type exprGen struct {
	rng  *chain.Rand
	args []uint64
}

// gen produces a random TUInt expression with values bounded to avoid the
// overflow divergence; depth limits recursion.
func (g *exprGen) gen(depth int) Expr {
	if depth <= 0 || intn(g.rng, 4) == 0 {
		switch intn(g.rng, 3) {
		case 0:
			return U(uint64(intn(g.rng, 1000)))
		case 1:
			return A(intn(g.rng, len(g.args)))
		default:
			return U(uint64(intn(g.rng, 7))) // small constants hit div/mod paths
		}
	}
	a, b := g.gen(depth-1), g.gen(depth-1)
	switch intn(g.rng, 8) {
	case 0:
		return Add(a, b)
	case 1:
		// Subtraction guarded to stay non-negative: max(a,b) - min via
		// conditional is unavailable; instead (a+b) - b which is safe.
		return Sub(Add(a, b), b)
	case 2:
		return Mul(&Bin{Op: OpMod, A: a, B: U(97)}, &Bin{Op: OpMod, A: b, B: U(89)})
	case 3:
		return Div(a, Add(b, U(1)))
	case 4:
		return Mod(a, Add(b, U(1)))
	case 5:
		return &condExpr{cond: Lt(a, b), then: a, els: b}
	case 6:
		return Add(Mul(boolToUint(Ge(a, b)), U(10)), Mod(b, U(13)))
	default:
		return Add(a, Mod(b, U(31)))
	}
}

// condExpr and boolToUint do not exist in the language; lower them into
// statements at program build time instead.
type condExpr struct {
	cond, then, els Expr
}

func (*condExpr) exprNode() {}

func boolToUint(cond Expr) Expr { return &b2uExpr{cond} }

type b2uExpr struct{ cond Expr }

func (*b2uExpr) exprNode() {}

// lower rewrites the pseudo-expressions into pure language constructs:
// cond ? x : y and bool→uint both become arithmetic over a 0/1 value
// computed via If statements feeding temporaries. To stay expression-only,
// rewrite them algebraically instead: b2u(c) and select aren't directly
// expressible, so we lower by substituting the equivalent program shape.
func lower(e Expr, p *Program, body *[]Stmt, tmpSeq *int) Expr {
	switch e := e.(type) {
	case *condExpr:
		cond := lower(e.cond, p, body, tmpSeq)
		then := lower(e.then, p, body, tmpSeq)
		els := lower(e.els, p, body, tmpSeq)
		*tmpSeq++
		name := fmt.Sprintf("tmp%d", *tmpSeq)
		p.DeclareGlobal(name, TUInt)
		*body = append(*body, &If{
			Cond: cond,
			Then: []Stmt{&SetGlobal{Name: name, Value: then}},
			Else: []Stmt{&SetGlobal{Name: name, Value: els}},
		})
		return G(name)
	case *b2uExpr:
		cond := lower(e.cond, p, body, tmpSeq)
		*tmpSeq++
		name := fmt.Sprintf("tmp%d", *tmpSeq)
		p.DeclareGlobal(name, TUInt)
		*body = append(*body, &If{
			Cond: cond,
			Then: []Stmt{&SetGlobal{Name: name, Value: U(1)}},
			Else: []Stmt{&SetGlobal{Name: name, Value: U(0)}},
		})
		return G(name)
	case *Bin:
		return &Bin{Op: e.Op, A: lower(e.A, p, body, tmpSeq), B: lower(e.B, p, body, tmpSeq)}
	case *Not:
		return &Not{A: lower(e.A, p, body, tmpSeq)}
	default:
		return e
	}
}

func TestBackendsAgreeOnRandomPrograms(t *testing.T) {
	rng := chain.NewRand(0xd1ff)
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		g := &exprGen{rng: rng.Fork(fmt.Sprintf("t%d", trial)), args: []uint64{
			uint64(intn(rng, 500)), uint64(intn(rng, 500)), uint64(intn(rng, 10)),
		}}
		p := NewProgram(fmt.Sprintf("diff%d", trial))
		p.SetConstructor(nil)
		var body []Stmt
		tmp := 0
		expr := lower(g.gen(4), p, &body, &tmp)
		body = append(body, &Return{Value: expr})
		p.AddAPI(&API{
			Name: "f",
			Params: []Param{
				{Name: "a", Type: TUInt}, {Name: "b", Type: TUInt}, {Name: "c", Type: TUInt},
			},
			Returns: TUInt,
			Body:    body,
		})
		if err := Check(p); err != nil {
			t.Fatalf("trial %d: generated program does not check: %v", trial, err)
		}
		// Division theorems may legitimately fail verification (divisors
		// are Add(x,1) so they are actually safe, but the verifier cannot
		// see that) — lower with the backends directly, skipping Verify;
		// the comparison below is the oracle.
		evmCode, err := CompileEVM(p)
		if err != nil {
			t.Fatalf("trial %d: compile EVM: %v", trial, err)
		}
		_, tealProg, err := CompileTEAL(p)
		if err != nil {
			t.Fatalf("trial %d: compile TEAL: %v", trial, err)
		}

		args := []Value{Uint64Value(g.args[0]), Uint64Value(g.args[1]), Uint64Value(g.args[2])}

		// EVM run.
		st := evm.NewMemState()
		self := chain.AddressFromBytes([]byte("c"))
		ctorData, err := EncodeArgsEVM(CtorMethodName, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := evm.Execute(evm.Context{State: st, Address: self, CallData: ctorData, GasLimit: 5_000_000}, evmCode)
		if res.Err != nil || res.Reverted {
			t.Fatalf("trial %d: EVM ctor failed: %+v", trial, res)
		}
		callData, err := EncodeArgsEVM("f", p.APIs[0].Params, args)
		if err != nil {
			t.Fatal(err)
		}
		evmRes := evm.Execute(evm.Context{State: st, Address: self, CallData: callData, GasLimit: 5_000_000}, evmCode)
		evmFailed := evmRes.Err != nil || evmRes.Reverted
		var evmVal uint64
		if !evmFailed {
			v, err := DecodeReturnEVM(TUInt, evmRes.ReturnData)
			if err != nil {
				t.Fatalf("trial %d: decode EVM return: %v", trial, err)
			}
			evmVal = v.Uint
		}

		// TEAL run.
		led := avm.NewMemLedger()
		sender := chain.AddressFromBytes([]byte("s"))
		ctorArgs, err := EncodeArgsTEAL("", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tres := avm.Execute(tealProg, led, avm.TxContext{Sender: sender, AppID: 3, CreateMode: true, Args: ctorArgs, BudgetTxns: 8})
		if !tres.Approved {
			t.Fatalf("trial %d: TEAL ctor rejected: %v", trial, tres.Err)
		}
		tealArgs, err := EncodeArgsTEAL("f", p.APIs[0].Params, args)
		if err != nil {
			t.Fatal(err)
		}
		tealRes := avm.Execute(tealProg, led, avm.TxContext{Sender: sender, AppID: 3, Args: tealArgs, BudgetTxns: 8})
		tealFailed := !tealRes.Approved
		var tealVal uint64
		if !tealFailed {
			v, err := DecodeReturnTEAL(TUInt, tealRes.Return)
			if err != nil {
				t.Fatalf("trial %d: decode TEAL return: %v", trial, err)
			}
			tealVal = v.Uint
		}

		if evmFailed != tealFailed {
			t.Fatalf("trial %d: EVM failed=%v but TEAL failed=%v (args %v)",
				trial, evmFailed, tealFailed, g.args)
		}
		if !evmFailed && evmVal != tealVal {
			t.Fatalf("trial %d: EVM=%d TEAL=%d (args %v)", trial, evmVal, tealVal, g.args)
		}
	}
}
