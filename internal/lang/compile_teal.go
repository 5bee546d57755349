package lang

import (
	"fmt"
	"strconv"
	"strings"

	"agnopol/internal/avm"
)

// TEAL backend.
//
// Application-call conventions:
//
//   - at creation (ApplicationID == 0) the constructor runs with its
//     arguments in ApplicationArgs[0..];
//   - method calls put the method name in ApplicationArgs[0] and arguments
//     after it; uints travel as 8-byte big-endian (itob), bytes raw,
//     addresses as raw 20 bytes;
//   - a paying call groups a payment transaction at group index 0, which
//     the program inspects with `gtxn 0 Amount`;
//   - API return values are surfaced through a log line prefixed
//     "return:" (the convention the connector decodes);
//   - global state keys: "g:<name>" for globals, "m:<index>:"+itob(key)
//     for map entries; views compile as read-only methods named
//     "view:<name>" that the connector executes in simulation.

type tealCompiler struct {
	p      *Program
	sb     strings.Builder
	params []Param
	// argBase is 1 for APIs (args follow the method selector) and 0 for
	// the constructor.
	argBase int
	seq     int
	err     error
}

// CompileTEAL lowers a checked program to TEAL assembly source and its
// parsed form.
func CompileTEAL(p *Program) (string, *avm.Program, error) {
	c := &tealCompiler{p: p}
	c.emit("// %s — generated by the agnopol compiler (TEAL backend)", p.Name)
	c.emit("txn ApplicationID")
	c.emit("bz on_create")
	// Method dispatch.
	for _, a := range p.APIs {
		c.emit("txna ApplicationArgs 0")
		c.emit("byte %q", a.Name)
		c.emit("==")
		c.emit("bnz m_api_%s", a.Name)
	}
	for _, v := range p.Views {
		c.emit("txna ApplicationArgs 0")
		c.emit("byte %q", "view:"+v.Name)
		c.emit("==")
		c.emit("bnz m_view_%s", v.Name)
	}
	c.emit("err")

	c.emit("on_create:")
	c.params, c.argBase = p.Ctor.Params, 0
	// The constructor accepts no payment.
	c.emit("gtxn 0 Amount")
	c.emit("!")
	c.emit("assert")
	c.stmts(p.Ctor.Body)
	c.emit("int 1")
	c.emit("return")

	for _, a := range p.APIs {
		c.emit("m_api_%s:", a.Name)
		c.params, c.argBase = a.Params, 1
		if a.Pay == nil {
			c.emit("gtxn 0 Amount")
			c.emit("!")
			c.emit("assert")
		} else {
			c.emit("gtxn 0 Amount")
			c.expr(a.Pay)
			c.emit("==")
			c.emit("assert")
		}
		c.stmts(a.Body)
		// Unreachable: the checker guarantees termination by Return.
		c.emit("err")
	}

	for _, v := range p.Views {
		c.emit("m_view_%s:", v.Name)
		c.params, c.argBase = nil, 1
		c.expr(v.Expr)
		c.emitReturn(v.Type)
	}

	if c.err != nil {
		return "", nil, c.err
	}
	src := c.sb.String()
	prog, err := avm.Parse(src)
	if err != nil {
		return "", nil, fmt.Errorf("lang/teal: generated program does not parse: %w", err)
	}
	return src, prog, nil
}

func (c *tealCompiler) emit(format string, args ...any) {
	fmt.Fprintf(&c.sb, format+"\n", args...)
}

func (c *tealCompiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("lang/teal: "+format, args...)
	}
}

func (c *tealCompiler) label(prefix string) string {
	c.seq++
	return fmt.Sprintf("%s_%d", prefix, c.seq)
}

func (c *tealCompiler) typeOf(e Expr) Type {
	ch := &checker{p: c.p, params: c.params}
	t := ch.typeOf(e, "teal codegen")
	if len(ch.errs) > 0 {
		c.fail("%v", ch.errs[0])
	}
	return t
}

func (c *tealCompiler) stmts(body []Stmt) {
	for _, s := range body {
		c.stmt(s)
	}
}

//nolint:gocyclo // statement dispatch.
func (c *tealCompiler) stmt(s Stmt) {
	switch s := s.(type) {
	case *Assume:
		c.expr(s.Cond)
		c.emit("assert // assume: %s", s.Msg)
	case *Require:
		c.expr(s.Cond)
		c.emit("assert // require: %s", s.Msg)

	case *SetGlobal:
		c.emit("byte %q", "g:"+s.Name)
		c.expr(s.Value)
		c.emit("app_global_put")

	case *MapSet:
		c.emitMapKey(s.Map, s.Key)
		c.expr(s.Value)
		c.emit("app_global_put")

	case *MapDel:
		c.emitMapKey(s.Map, s.Key)
		c.emit("app_global_del")

	case *Transfer:
		c.emit("itxn_begin")
		c.emit("int 1 // pay")
		c.emit("itxn_field TypeEnum")
		c.expr(s.To)
		c.emit("itxn_field Receiver")
		c.expr(s.Amount)
		c.emit("itxn_field Amount")
		c.emit("itxn_submit")

	case *If:
		elseL, endL := c.label("else"), c.label("endif")
		c.expr(s.Cond)
		c.emit("bz %s", elseL)
		c.stmts(s.Then)
		if !terminates(s.Then) {
			c.emit("b %s", endL)
		}
		c.emit("%s:", elseL)
		c.stmts(s.Else)
		c.emit("%s:", endL)

	case *Emit:
		c.emit("byte %q", "evt:"+s.Event+":")
		c.expr(s.Value)
		if c.typeOf(s.Value) != TBytes {
			c.emit("itob")
		}
		c.emit("concat")
		c.emit("log")

	case *Return:
		t := c.typeOf(s.Value)
		c.expr(s.Value)
		c.emitReturn(t)

	default:
		c.fail("unknown statement %T", s)
	}
}

func (c *tealCompiler) emitReturn(t Type) {
	if t != TBytes && t != TAddress {
		c.emit("itob")
	}
	c.emit("byte \"return:\"")
	c.emit("swap")
	c.emit("concat")
	c.emit("log")
	c.emit("int 1")
	c.emit("return")
}

// emitMapKey pushes the state key "m:<idx>:"+itob(key).
func (c *tealCompiler) emitMapKey(mapName string, key Expr) {
	mi, err := c.p.mapIndex(mapName)
	if err != nil {
		c.fail("%v", err)
		return
	}
	c.emit("byte %q", "m:"+strconv.Itoa(mi)+":")
	c.expr(key)
	c.emit("itob")
	c.emit("concat")
}

//nolint:gocyclo // expression dispatch.
func (c *tealCompiler) expr(e Expr) {
	switch e := e.(type) {
	case *Const:
		switch e.Type {
		case TUInt:
			c.emit("int %d", e.Uint)
		case TBool:
			if e.Bool {
				c.emit("int 1")
			} else {
				c.emit("int 0")
			}
		case TBytes:
			c.emit("byte %q", e.Bytes)
		default:
			c.fail("unsupported const type %s", e.Type)
		}

	case *Arg:
		if e.Index < 0 || e.Index >= len(c.params) {
			c.fail("arg index %d out of range", e.Index)
			return
		}
		c.emit("txna ApplicationArgs %d", c.argBase+e.Index)
		switch c.params[e.Index].Type {
		case TUInt, TBool:
			c.emit("btoi")
		}

	case *GlobalRef:
		c.emit("byte %q", "g:"+e.Name)
		c.emit("app_global_get")

	case *MapGet:
		c.emitMapKey(e.Map, e.Key)
		c.emit("app_global_get")

	case *MapHas:
		c.emit("int 0 // current app")
		c.emitMapKey(e.Map, e.Key)
		c.emit("app_global_get_ex")
		c.emit("swap")
		c.emit("pop")

	case *Bin:
		c.emitBin(e)

	case *Not:
		c.expr(e.A)
		c.emit("!")

	case *Balance:
		// Spendable balance: the app escrow must keep the network's
		// minimum balance, which the language's balance() excludes so the
		// same program semantics hold on both connectors.
		c.emit("global CurrentApplicationAddress")
		c.emit("balance")
		c.emit("global MinBalance")
		c.emit("-")
	case *Caller:
		c.emit("txn Sender")
	case *Paid:
		c.emit("gtxn 0 Amount")
	case *Now:
		c.emit("global LatestTimestamp")

	case *Digest:
		t := c.typeOf(e.A)
		if parts := fusedParts(e, t); parts != nil {
			// Digest-over-concat fusion: hash the ++ operands as one
			// sha256_parts pseudo-op without materializing the
			// concatenation; sha256 is variadic over concatenation.
			for _, part := range parts {
				c.expr(part)
			}
			c.emit("sha256_parts %d", len(parts))
			return
		}
		c.expr(e.A)
		if t != TBytes && t != TAddress {
			c.emit("itob")
		}
		c.emit("sha256")

	case *SigVerify:
		// TEAL argument order: data, signature, pubkey.
		c.expr(e.Msg)
		c.expr(e.Sig)
		c.expr(e.Pub)
		c.emit("ed25519verify")

	case *CellContains:
		c.expr(e.Cell)
		c.expr(e.Code)
		c.emit("olc_contains")

	default:
		c.fail("unknown expression %T", e)
	}
}

func (c *tealCompiler) emitBin(e *Bin) {
	// TEAL binary ops compute firstPushed-op-secondPushed, so compile in
	// source order.
	c.expr(e.A)
	c.expr(e.B)
	switch e.Op {
	case OpAdd:
		c.emit("+")
	case OpSub:
		c.emit("-")
	case OpMul:
		c.emit("*")
	case OpDiv:
		c.emit("/")
	case OpMod:
		c.emit("%%")
	case OpLt:
		c.emit("<")
	case OpGt:
		c.emit(">")
	case OpLe:
		c.emit("<=")
	case OpGe:
		c.emit(">=")
	case OpEq:
		c.emit("==")
	case OpNe:
		c.emit("!=")
	case OpAnd:
		c.emit("&&")
	case OpOr:
		c.emit("||")
	case OpConcat:
		c.emit("concat")
	default:
		c.fail("unsupported operator %s", e.Op)
	}
}

// EncodeArgsTEAL builds the ApplicationArgs for a method call (method name
// first) or for the constructor (method == "" omits the selector).
func EncodeArgsTEAL(method string, params []Param, args []Value) ([][]byte, error) {
	if len(args) != len(params) {
		return nil, fmt.Errorf("lang: %s wants %d args, got %d", method, len(params), len(args))
	}
	var out [][]byte
	if method != "" {
		out = append(out, []byte(method))
	}
	for i, arg := range args {
		if arg.Type != params[i].Type {
			return nil, fmt.Errorf("lang: %s arg %d: want %s, got %s", method, i, params[i].Type, arg.Type)
		}
		switch arg.Type {
		case TUInt:
			out = append(out, avm.Itob(arg.Uint))
		case TBool:
			if arg.Bool {
				out = append(out, avm.Itob(1))
			} else {
				out = append(out, avm.Itob(0))
			}
		case TBytes:
			out = append(out, append([]byte(nil), arg.Bytes...))
		case TAddress:
			out = append(out, append([]byte(nil), arg.Addr[:]...))
		default:
			return nil, fmt.Errorf("lang: unsupported arg type %s", arg.Type)
		}
	}
	return out, nil
}

// DecodeReturnTEAL parses the "return:" payload logged by a method.
func DecodeReturnTEAL(t Type, data []byte) (Value, error) {
	switch t {
	case TUInt:
		v, err := avm.Btoi(data)
		if err != nil {
			return Value{}, err
		}
		return Uint64Value(v), nil
	case TBool:
		v, err := avm.Btoi(data)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(v != 0), nil
	case TBytes:
		return BytesValue(append([]byte(nil), data...)), nil
	case TAddress:
		if len(data) != 20 {
			return Value{}, fmt.Errorf("lang: address return of %d bytes", len(data))
		}
		var a [20]byte
		copy(a[:], data)
		return AddressValue(a), nil
	default:
		return Value{}, fmt.Errorf("lang: unsupported return type %s", t)
	}
}
