package lang

import (
	"errors"
	"fmt"
)

// ErrType reports a type error in a program.
var ErrType = errors.New("lang: type error")

type checker struct {
	p      *Program
	params []Param
	errs   []error
}

// Check type-checks the whole program: constructor, every API and view. It
// returns all errors found.
func Check(p *Program) error {
	seen := map[string]bool{}
	var errs []error
	for _, g := range p.Globals {
		if seen["g:"+g.Name] {
			errs = append(errs, fmt.Errorf("%w: duplicate global %q", ErrType, g.Name))
		}
		seen["g:"+g.Name] = true
		if g.Type != TUInt && g.Type != TBytes && g.Type != TAddress {
			errs = append(errs, fmt.Errorf("%w: global %q has unsupported type %s", ErrType, g.Name, g.Type))
		}
	}
	for _, m := range p.Maps {
		if seen["m:"+m.Name] {
			errs = append(errs, fmt.Errorf("%w: duplicate map %q", ErrType, m.Name))
		}
		seen["m:"+m.Name] = true
		if m.Key != TUInt {
			errs = append(errs, fmt.Errorf("%w: map %q key must be UInt (the connector-portable key type, §2.4)", ErrType, m.Name))
		}
		if m.Value != TBytes && m.Value != TUInt {
			errs = append(errs, fmt.Errorf("%w: map %q value must be Bytes or UInt", ErrType, m.Name))
		}
	}

	// The constructor, APIs and views are dispatched through one method
	// namespace (Selector(name) on the EVM, APIs first), so a name reused
	// across kinds would run different bodies on the two backends.
	methods := map[string]string{CtorMethodName: "constructor"}
	declare := func(kind, name string) {
		switch prev := methods[name]; prev {
		case "":
			methods[name] = kind
		case kind:
			errs = append(errs, fmt.Errorf("%w: duplicate %s %q", ErrType, kind, name))
		default:
			errs = append(errs, fmt.Errorf("%w: %s %q shares its method name with the %s", ErrType, kind, name, prev))
		}
	}
	uniqueParams := func(where string, params []Param) {
		names := map[string]bool{}
		for _, pr := range params {
			if names[pr.Name] {
				errs = append(errs, fmt.Errorf("%w: %s: duplicate parameter %q", ErrType, where, pr.Name))
			}
			names[pr.Name] = true
		}
	}

	c := &checker{p: p, params: p.Ctor.Params}
	uniqueParams("constructor", p.Ctor.Params)
	c.stmts(p.Ctor.Body, TInvalid, "constructor")
	errs = append(errs, c.errs...)

	for _, a := range p.APIs {
		declare("API", a.Name)
		uniqueParams("API "+a.Name, a.Params)
		c := &checker{p: p, params: a.Params}
		if a.Pay != nil {
			c.expect(a.Pay, TUInt, "API "+a.Name+" pay")
		}
		if a.Returns == TInvalid {
			errs = append(errs, fmt.Errorf("%w: API %q must declare a return type", ErrType, a.Name))
		}
		if !c.stmts(a.Body, a.Returns, "API "+a.Name) {
			errs = append(errs, fmt.Errorf("%w: API %q has a path that does not Return", ErrType, a.Name))
		}
		errs = append(errs, c.errs...)
	}

	for _, v := range p.Views {
		declare("view", v.Name)
		c := &checker{p: p}
		c.expect(v.Expr, v.Type, "view "+v.Name)
		errs = append(errs, c.errs...)
	}
	return errors.Join(errs...)
}

func (c *checker) fail(where string, format string, args ...any) Type {
	c.errs = append(c.errs, fmt.Errorf("%w: %s: %s", ErrType, where, fmt.Sprintf(format, args...)))
	return TInvalid
}

func (c *checker) expect(e Expr, want Type, where string) {
	got := c.typeOf(e, where)
	if got != TInvalid && got != want {
		c.fail(where, "want %s, got %s", want, got)
	}
}

// stmts checks a statement list; it returns true when every control path
// ends in Return (always true for the constructor, which takes TInvalid as
// returns-type and ignores termination).
func (c *checker) stmts(body []Stmt, returns Type, where string) bool {
	terminated := false
	for i, s := range body {
		if terminated {
			c.fail(where, "unreachable statement %d after Return", i)
		}
		switch s := s.(type) {
		case *Assume:
			c.expect(s.Cond, TBool, where+" assume")
		case *Require:
			c.expect(s.Cond, TBool, where+" require")
		case *SetGlobal:
			gi, err := c.p.globalIndex(s.Name)
			if err != nil {
				c.fail(where, "%v", err)
				continue
			}
			c.expect(s.Value, c.p.Globals[gi].Type, where+" set "+s.Name)
		case *MapSet:
			mi, err := c.p.mapIndex(s.Map)
			if err != nil {
				c.fail(where, "%v", err)
				continue
			}
			c.expect(s.Key, c.p.Maps[mi].Key, where+" map key")
			c.expect(s.Value, c.p.Maps[mi].Value, where+" map value")
		case *MapDel:
			mi, err := c.p.mapIndex(s.Map)
			if err != nil {
				c.fail(where, "%v", err)
				continue
			}
			c.expect(s.Key, c.p.Maps[mi].Key, where+" map key")
		case *Transfer:
			c.expect(s.Amount, TUInt, where+" transfer amount")
			c.expect(s.To, TAddress, where+" transfer to")
		case *If:
			c.expect(s.Cond, TBool, where+" if cond")
			thenRet := c.stmts(s.Then, returns, where+" then")
			elseRet := c.stmts(s.Else, returns, where+" else")
			if thenRet && elseRet {
				terminated = true
			}
		case *Emit:
			c.typeOf(s.Value, where+" emit")
		case *Return:
			if returns == TInvalid {
				c.fail(where, "Return not allowed in constructor")
				continue
			}
			c.expect(s.Value, returns, where+" return")
			terminated = true
		default:
			c.fail(where, "unknown statement %T", s)
		}
	}
	return terminated || returns == TInvalid
}

//nolint:gocyclo // exhaustive type dispatch.
func (c *checker) typeOf(e Expr, where string) Type {
	switch e := e.(type) {
	case *Const:
		return e.Type
	case *Arg:
		if e.Index < 0 || e.Index >= len(c.params) {
			return c.fail(where, "argument index %d out of range (%d params)", e.Index, len(c.params))
		}
		return c.params[e.Index].Type
	case *GlobalRef:
		gi, err := c.p.globalIndex(e.Name)
		if err != nil {
			return c.fail(where, "%v", err)
		}
		return c.p.Globals[gi].Type
	case *MapGet:
		mi, err := c.p.mapIndex(e.Map)
		if err != nil {
			return c.fail(where, "%v", err)
		}
		c.expect(e.Key, c.p.Maps[mi].Key, where+" map key")
		return c.p.Maps[mi].Value
	case *MapHas:
		mi, err := c.p.mapIndex(e.Map)
		if err != nil {
			return c.fail(where, "%v", err)
		}
		c.expect(e.Key, c.p.Maps[mi].Key, where+" map key")
		return TBool
	case *Bin:
		a := c.typeOf(e.A, where)
		b := c.typeOf(e.B, where)
		if a == TInvalid || b == TInvalid {
			return TInvalid
		}
		switch e.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			if a != TUInt || b != TUInt {
				return c.fail(where, "%s needs UInt operands, got %s, %s", e.Op, a, b)
			}
			return TUInt
		case OpLt, OpGt, OpLe, OpGe:
			if a != TUInt || b != TUInt {
				return c.fail(where, "%s needs UInt operands, got %s, %s", e.Op, a, b)
			}
			return TBool
		case OpEq, OpNe:
			if a != b {
				return c.fail(where, "%s needs matching operand types, got %s, %s", e.Op, a, b)
			}
			return TBool
		case OpAnd, OpOr:
			if a != TBool || b != TBool {
				return c.fail(where, "%s needs Bool operands, got %s, %s", e.Op, a, b)
			}
			return TBool
		case OpConcat:
			if a != TBytes || b != TBytes {
				return c.fail(where, "++ needs Bytes operands, got %s, %s", a, b)
			}
			return TBytes
		default:
			return c.fail(where, "unknown operator %d", e.Op)
		}
	case *Not:
		c.expect(e.A, TBool, where)
		return TBool
	case *Balance, *Paid, *Now:
		return TUInt
	case *Caller:
		return TAddress
	case *Digest:
		c.typeOf(e.A, where)
		return TBytes

	case *SigVerify:
		for i, sub := range []Expr{e.Pub, e.Msg, e.Sig} {
			if t := c.typeOf(sub, where); t != TBytes {
				return c.fail(where, "sigok argument %d is %s, want Bytes", i+1, t)
			}
		}
		return TBool

	case *CellContains:
		if t := c.typeOf(e.Cell, where); t != TBytes {
			return c.fail(where, "contains cell is %s, want Bytes", t)
		}
		if t := c.typeOf(e.Code, where); t != TBytes {
			return c.fail(where, "contains code is %s, want Bytes", t)
		}
		return TBool

	default:
		return c.fail(where, "unknown expression %T", e)
	}
}
