package lang

import (
	"fmt"
	"strings"
)

// Theorem is one verification condition the static verifier discharges (or
// fails to). The language mirrors Reach's compile-time verification
// (Fig. 2.11): balance sufficiency before transfers, map-access safety,
// arithmetic safety, and token linearity.
type Theorem struct {
	Kind  string // "transfer-funded", "map-get-guarded", "sub-underflow", "div-nonzero", "token-linearity", "assume-enforced"
	Where string // "API verify", "constructor", …
	Desc  string
	OK    bool
	Note  string
}

// Report lists the theorems of one verification walk.
type Report struct {
	Theorems []Theorem
	Checked  int
	Failures int
}

// Failed returns every failed theorem.
func (r *Report) Failed() []Theorem {
	var out []Theorem
	for _, t := range r.Theorems {
		if !t.OK {
			out = append(out, t)
		}
	}
	return out
}

// String renders the report in the Reach compiler's output style. The
// header keeps Reach's three pass lines, but the program is walked once:
// Checked counts each theorem once.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString("Verifying knowledge assertions\n")
	sb.WriteString("Verifying for generic connector\n")
	sb.WriteString("  Verifying when ALL participants are honest\n")
	sb.WriteString("  Verifying when NO participants are honest\n")
	if r.Failures == 0 {
		fmt.Fprintf(&sb, "Checked %d theorems; No failures!\n", r.Checked)
	} else {
		fmt.Fprintf(&sb, "Checked %d theorems; %d FAILURES:\n", r.Checked, r.Failures)
		for _, t := range r.Failed() {
			fmt.Fprintf(&sb, "  FAIL [%s] %s: %s (%s)\n", t.Kind, t.Where, t.Desc, t.Note)
		}
	}
	return sb.String()
}

// Verify runs the static verifier over a type-correct program.
func Verify(p *Program) *Report {
	v := &verifier{p: p}
	v.program()
	r := &Report{Theorems: v.theorems, Checked: len(v.theorems)}
	r.Failures = len(r.Failed())
	return r
}

type verifier struct {
	p        *Program
	theorems []Theorem
}

func (v *verifier) add(t Theorem) { v.theorems = append(v.theorems, t) }

func (v *verifier) program() {
	v.walk(v.p.Ctor.Body, nil, "constructor")
	receivesFunds := false
	sweeps := false
	for _, a := range v.p.APIs {
		where := "API " + a.Name
		var facts []Expr
		if a.Pay != nil {
			receivesFunds = true
			// The attached payment is credited before the body runs, so
			// balance() >= pay holds on entry.
			facts = append(facts, Ge(&Balance{}, a.Pay))
			if _, isPaid := a.Pay.(*Paid); !isPaid {
				facts = append(facts, Eq(&Paid{}, a.Pay))
			}
		}
		v.walk(a.Body, facts, where)
		if apiSweeps(a.Body) {
			sweeps = true
		}
	}
	// Token linearity: a contract that can receive funds must have a path
	// that empties its balance, otherwise tokens are stranded forever —
	// the property Reach's "token linearity" theorem enforces at program
	// exit (§2.9.3).
	if receivesFunds {
		v.add(Theorem{
			Kind:  "token-linearity",
			Where: "program",
			Desc:  "a full-balance sweep path exists",
			OK:    sweeps,
			Note:  "an API must transfer balance() so the contract can exit empty",
		})
	}
}

// apiSweeps reports whether some path transfers the full balance.
func apiSweeps(body []Stmt) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *Transfer:
			if _, ok := s.Amount.(*Balance); ok {
				return true
			}
		case *If:
			if apiSweeps(s.Then) || apiSweeps(s.Else) {
				return true
			}
		}
	}
	return false
}

//nolint:gocyclo // path-sensitive walk over every statement kind.
func (v *verifier) walk(body []Stmt, facts []Expr, where string) {
	for _, s := range body {
		switch s := s.(type) {
		case *Assume:
			// Assumes compile to on-chain checks in every backend, so the
			// condition holds downstream even against dishonest frontends.
			v.add(Theorem{
				Kind: "assume-enforced", Where: where,
				Desc: "assume(" + exprString(s.Cond) + ") is enforced on-chain",
				OK:   true,
			})
			facts = append(facts, s.Cond)
		case *Require:
			facts = append(facts, s.Cond)
		case *SetGlobal:
			v.exprTheorems(s.Value, facts, where)
			facts = dropFacts(facts, readsGlobal(s.Name))
		case *MapSet:
			v.exprTheorems(s.Key, facts, where)
			v.exprTheorems(s.Value, facts, where)
			facts = dropFacts(facts, readsMap(s.Map))
		case *MapDel:
			v.exprTheorems(s.Key, facts, where)
			facts = dropFacts(facts, readsMap(s.Map))
		case *Transfer:
			v.exprTheorems(s.Amount, facts, where)
			v.exprTheorems(s.To, facts, where)
			ok, note := transferFunded(s.Amount, facts)
			v.add(Theorem{
				Kind: "transfer-funded", Where: where,
				Desc: "balance() covers transfer of " + exprString(s.Amount),
				OK:   ok, Note: note,
			})
			// The transfer changes the balance: facts about balance() no
			// longer hold.
			facts = dropFacts(facts, isBalance)
		case *If:
			v.exprTheorems(s.Cond, facts, where)
			v.walk(s.Then, append(append([]Expr{}, facts...), s.Cond), where)
			v.walk(s.Else, append(append([]Expr{}, facts...), negate(s.Cond)), where)
		case *Emit:
			v.exprTheorems(s.Value, facts, where)
		case *Return:
			v.exprTheorems(s.Value, facts, where)
		}
	}
}

// exprTheorems emits verification conditions for the sub-expressions of e:
// map gets must be guarded, subtraction must not underflow, division must
// not divide by zero.
func (v *verifier) exprTheorems(e Expr, facts []Expr, where string) {
	switch e := e.(type) {
	case *MapGet:
		v.exprTheorems(e.Key, facts, where)
		ok := implied(&MapHas{Map: e.Map, Key: e.Key}, facts)
		v.add(Theorem{
			Kind: "map-get-guarded", Where: where,
			Desc: "Map " + e.Map + "[" + exprString(e.Key) + "] is present",
			OK:   ok, Note: noteUnless(ok, "guard the read with a MapHas check"),
		})
	case *MapHas:
		v.exprTheorems(e.Key, facts, where)
	case *Bin:
		v.exprTheorems(e.A, facts, where)
		v.exprTheorems(e.B, facts, where)
		switch e.Op {
		case OpSub:
			ok := subSafe(e.A, e.B, facts)
			v.add(Theorem{
				Kind: "sub-underflow", Where: where,
				Desc: exprString(e.A) + " - " + exprString(e.B) + " does not underflow",
				OK:   ok, Note: noteUnless(ok, "dominate the subtraction with a >= comparison"),
			})
		case OpDiv, OpMod:
			ok := nonZero(e.B, facts)
			v.add(Theorem{
				Kind: "div-nonzero", Where: where,
				Desc: "divisor " + exprString(e.B) + " is non-zero",
				OK:   ok, Note: noteUnless(ok, "guard the division against a zero divisor"),
			})
		}
	case *Not:
		v.exprTheorems(e.A, facts, where)
	case *Digest:
		v.exprTheorems(e.A, facts, where)
	case *SigVerify:
		v.exprTheorems(e.Pub, facts, where)
		v.exprTheorems(e.Msg, facts, where)
		v.exprTheorems(e.Sig, facts, where)
	case *CellContains:
		v.exprTheorems(e.Cell, facts, where)
		v.exprTheorems(e.Code, facts, where)
	}
}

func noteUnless(ok bool, note string) string {
	if ok {
		return ""
	}
	return note
}

// transferFunded checks that the facts imply balance() >= amount.
func transferFunded(amount Expr, facts []Expr) (bool, string) {
	if c, ok := amount.(*Const); ok && c.Uint == 0 {
		return true, "zero transfer"
	}
	if _, ok := amount.(*Balance); ok {
		return true, "full-balance sweep"
	}
	if _, ok := amount.(*Paid); ok {
		return true, "refunding the attached payment"
	}
	if implied(Ge(&Balance{}, amount), facts) {
		return true, ""
	}
	return false, "no dominating balance() >= " + exprString(amount) + " check"
}

// subSafe checks that the facts imply a >= b.
func subSafe(a, b Expr, facts []Expr) bool {
	if ca, ok := a.(*Const); ok {
		if cb, ok := b.(*Const); ok {
			return ca.Uint >= cb.Uint
		}
	}
	// balance() - x is safe when balance() >= x is implied (same rule as
	// transfers).
	if implied(Ge(a, b), facts) {
		return true
	}
	// a - 1 is safe when a > 0 is implied.
	if cb, ok := b.(*Const); ok && cb.Uint == 1 && implied(Gt(a, U(0)), facts) {
		return true
	}
	return false
}

func nonZero(e Expr, facts []Expr) bool {
	if c, ok := e.(*Const); ok {
		return c.Uint != 0
	}
	return implied(Gt(e, U(0)), facts) || implied(Ne(e, U(0)), facts)
}

// implied reports whether goal follows from the fact set by the verifier's
// (deliberately simple, structural) entailment: a fact implies the goal if
// it is structurally equal, or by a small set of ordering rules
// (a > b ⇒ a >= b; a >= c ⇒ a >= b for constants c >= b; symmetry of =).
func implied(goal Expr, facts []Expr) bool {
	for _, f := range facts {
		if entails(f, goal) {
			return true
		}
	}
	return false
}

//nolint:gocyclo // rule-by-rule entailment table.
func entails(fact, goal Expr) bool {
	if exprEqual(fact, goal) {
		return true
	}
	fb, fok := fact.(*Bin)
	gb, gok := goal.(*Bin)
	if fok && gok {
		// a > b ⇒ a >= b, a != b; a >= b+? constants.
		if exprEqual(fb.A, gb.A) && exprEqual(fb.B, gb.B) {
			switch {
			case fb.Op == OpGt && (gb.Op == OpGe || gb.Op == OpNe):
				return true
			case fb.Op == OpLt && (gb.Op == OpLe || gb.Op == OpNe):
				return true
			case fb.Op == OpEq && (gb.Op == OpGe || gb.Op == OpLe):
				return true
			}
		}
		// Swapped comparisons: a > b ⇔ b < a, etc.
		if exprEqual(fb.A, gb.B) && exprEqual(fb.B, gb.A) {
			switch {
			case fb.Op == OpGt && (gb.Op == OpLt || gb.Op == OpLe || gb.Op == OpNe):
				return true
			case fb.Op == OpLt && (gb.Op == OpGt || gb.Op == OpGe || gb.Op == OpNe):
				return true
			case fb.Op == OpGe && gb.Op == OpLe:
				return true
			case fb.Op == OpLe && gb.Op == OpGe:
				return true
			case (fb.Op == OpEq || fb.Op == OpNe) && fb.Op == gb.Op:
				return true
			}
		}
		// Constant strengthening: fact a >= c, goal a >= b with consts
		// c >= b.
		if exprEqual(fb.A, gb.A) && (fb.Op == OpGe || fb.Op == OpGt) && (gb.Op == OpGe || gb.Op == OpGt) {
			fc, fcOK := fb.B.(*Const)
			gc, gcOK := gb.B.(*Const)
			if fcOK && gcOK && fc.Uint >= gc.Uint {
				if !(fb.Op == OpGe && gb.Op == OpGt && fc.Uint == gc.Uint) {
					return true
				}
			}
		}
		// Conjunction: (x && y) entails what either conjunct entails.
		if fb.Op == OpAnd {
			return entails(fb.A, goal) || entails(fb.B, goal)
		}
	}
	if fok && fb.Op == OpAnd {
		return entails(fb.A, goal) || entails(fb.B, goal)
	}
	return false
}

// negate returns the logical negation of a condition in normalized form.
func negate(e Expr) Expr {
	if n, ok := e.(*Not); ok {
		return n.A
	}
	if b, ok := e.(*Bin); ok {
		switch b.Op {
		case OpLt:
			return Ge(b.A, b.B)
		case OpGt:
			return Le(b.A, b.B)
		case OpLe:
			return Gt(b.A, b.B)
		case OpGe:
			return Lt(b.A, b.B)
		case OpEq:
			return Ne(b.A, b.B)
		case OpNe:
			return Eq(b.A, b.B)
		}
	}
	return &Not{A: e}
}

//nolint:gocyclo // structural equality over every node kind.
func exprEqual(a, b Expr) bool {
	switch a := a.(type) {
	case *Const:
		bb, ok := b.(*Const)
		return ok && a.Type == bb.Type && a.Uint == bb.Uint && a.Bool == bb.Bool && string(a.Bytes) == string(bb.Bytes)
	case *Arg:
		bb, ok := b.(*Arg)
		return ok && a.Index == bb.Index
	case *GlobalRef:
		bb, ok := b.(*GlobalRef)
		return ok && a.Name == bb.Name
	case *MapGet:
		bb, ok := b.(*MapGet)
		return ok && a.Map == bb.Map && exprEqual(a.Key, bb.Key)
	case *MapHas:
		bb, ok := b.(*MapHas)
		return ok && a.Map == bb.Map && exprEqual(a.Key, bb.Key)
	case *Bin:
		bb, ok := b.(*Bin)
		return ok && a.Op == bb.Op && exprEqual(a.A, bb.A) && exprEqual(a.B, bb.B)
	case *Not:
		bb, ok := b.(*Not)
		return ok && exprEqual(a.A, bb.A)
	case *Balance:
		_, ok := b.(*Balance)
		return ok
	case *Caller:
		_, ok := b.(*Caller)
		return ok
	case *Paid:
		_, ok := b.(*Paid)
		return ok
	case *Now:
		_, ok := b.(*Now)
		return ok
	case *Digest:
		bb, ok := b.(*Digest)
		return ok && exprEqual(a.A, bb.A)
	case *SigVerify:
		bb, ok := b.(*SigVerify)
		return ok && exprEqual(a.Pub, bb.Pub) && exprEqual(a.Msg, bb.Msg) && exprEqual(a.Sig, bb.Sig)
	case *CellContains:
		bb, ok := b.(*CellContains)
		return ok && exprEqual(a.Cell, bb.Cell) && exprEqual(a.Code, bb.Code)
	default:
		return false
	}
}

// mentions reports whether pred holds for e or for a subexpression of it.
func mentions(e Expr, pred func(Expr) bool) bool {
	if pred(e) {
		return true
	}
	switch e := e.(type) {
	case *Bin:
		return mentions(e.A, pred) || mentions(e.B, pred)
	case *Not:
		return mentions(e.A, pred)
	case *MapGet:
		return mentions(e.Key, pred)
	case *MapHas:
		return mentions(e.Key, pred)
	case *Digest:
		return mentions(e.A, pred)
	case *SigVerify:
		return mentions(e.Pub, pred) || mentions(e.Msg, pred) || mentions(e.Sig, pred)
	case *CellContains:
		return mentions(e.Cell, pred) || mentions(e.Code, pred)
	default:
		return false
	}
}

// dropFacts keeps the facts that mention nothing pred matches: a write to
// what pred matches invalidates the others.
func dropFacts(facts []Expr, pred func(Expr) bool) []Expr {
	out := facts[:0:0]
	for _, f := range facts {
		if !mentions(f, pred) {
			out = append(out, f)
		}
	}
	return out
}

// isBalance, readsGlobal and readsMap match the reads a write makes stale:
// balance() after a transfer, a global after its set, a map after a set or
// delete.
func isBalance(e Expr) bool { _, ok := e.(*Balance); return ok }

func readsGlobal(name string) func(Expr) bool {
	return func(e Expr) bool { g, ok := e.(*GlobalRef); return ok && g.Name == name }
}

func readsMap(name string) func(Expr) bool {
	return func(e Expr) bool {
		switch e := e.(type) {
		case *MapGet:
			return e.Map == name
		case *MapHas:
			return e.Map == name
		}
		return false
	}
}

//nolint:gocyclo // printer over every node kind.
func exprString(e Expr) string {
	switch e := e.(type) {
	case *Const:
		switch e.Type {
		case TUInt:
			return fmt.Sprintf("%d", e.Uint)
		case TBool:
			return fmt.Sprintf("%t", e.Bool)
		case TBytes:
			return fmt.Sprintf("%q", e.Bytes)
		default:
			return "<const>"
		}
	case *Arg:
		return fmt.Sprintf("arg%d", e.Index)
	case *GlobalRef:
		return e.Name
	case *MapGet:
		return e.Map + "[" + exprString(e.Key) + "]"
	case *MapHas:
		return "has(" + e.Map + "," + exprString(e.Key) + ")"
	case *Bin:
		return "(" + exprString(e.A) + " " + e.Op.String() + " " + exprString(e.B) + ")"
	case *Not:
		return "!" + exprString(e.A)
	case *Balance:
		return "balance()"
	case *Caller:
		return "this"
	case *Paid:
		return "paid()"
	case *Now:
		return "now()"
	case *Digest:
		return "digest(" + exprString(e.A) + ")"
	case *SigVerify:
		return "sigok(" + exprString(e.Pub) + "," + exprString(e.Msg) + "," + exprString(e.Sig) + ")"
	case *CellContains:
		return "contains(" + exprString(e.Cell) + "," + exprString(e.Code) + ")"
	default:
		return "<expr>"
	}
}
