package lang

import (
	"fmt"
)

// ParseSource parses the textual contract syntax into a Program (see
// lexer.go for the grammar sketch). The result is the same AST the embedded
// builder produces, so Check/Verify/Compile apply unchanged. Unparseable
// source fails with the first syntax error, at its line and column.
func ParseSource(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if prog := p.contract(); p.err == nil {
		return prog, nil
	}
	return nil, p.err
}

// parser is a recursive-descent parser that keeps its first error, as the
// code generators do: fail records it and moves to the final EOF token, so
// every production after it fails without effect and the parse unwinds.
type parser struct {
	toks []token
	pos  int
	prog *Program
	// params of the declaration being parsed; nil outside bodies.
	params []Param
	err    error
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// fail records the first syntax error, at t, and skips to end of input.
func (p *parser) fail(t token, format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: %d:%d: %s", ErrSyntax, t.line, t.col, fmt.Sprintf(format, args...))
		p.pos = len(p.toks) - 1
	}
}

// until reports whether a list closed by the given punctuation goes on:
// the closer is not next and no error is recorded.
func (p *parser) until(closing string) bool {
	return p.err == nil && !p.isPunct(closing)
}

// expectPunct consumes the given punctuation or fails.
func (p *parser) expectPunct(text string) {
	t := p.advance()
	if t.kind != tokPunct || t.text != text {
		p.fail(t, "expected %q, got %s", text, t)
	}
}

// expectKeyword consumes the given identifier keyword.
func (p *parser) expectKeyword(kw string) {
	t := p.advance()
	if t.kind != tokIdent || t.text != kw {
		p.fail(t, "expected %q, got %s", kw, t)
	}
}

func (p *parser) expectIdent() string {
	t := p.advance()
	if t.kind != tokIdent {
		p.fail(t, "expected identifier, got %s", t)
	}
	return t.text
}

func (p *parser) isPunct(text string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == text
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) parseType() Type {
	t := p.peek()
	switch name := p.expectIdent(); name {
	case "UInt":
		return TUInt
	case "Bytes":
		return TBytes
	case "Bool":
		return TBool
	case "Address":
		return TAddress
	default:
		p.fail(t, "unknown type %q", name)
		return TInvalid
	}
}

func (p *parser) contract() *Program {
	p.expectKeyword("contract")
	name := p.advance()
	if name.kind != tokString {
		p.fail(name, "expected contract name string, got %s", name)
	}
	p.prog = NewProgram(name.str)
	p.expectPunct("{")
	sawCtor := false
	for p.until("}") {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			p.fail(t, "unterminated contract body")
		case p.isKeyword("global"):
			p.globalDecl()
		case p.isKeyword("map"):
			p.mapDecl()
		case p.isKeyword("ctor"):
			if sawCtor {
				p.fail(t, "duplicate ctor")
			}
			sawCtor = true
			p.ctorDecl()
		case p.isKeyword("api"):
			p.apiDecl()
		case p.isKeyword("view"):
			p.viewDecl()
		default:
			p.fail(t, "expected a declaration, got %s", t)
		}
	}
	p.expectPunct("}")
	if end := p.peek(); end.kind != tokEOF {
		p.fail(end, "trailing input after contract: %s", end)
	}
	return p.prog
}

func (p *parser) globalDecl() {
	p.expectKeyword("global")
	name := p.expectIdent()
	p.expectPunct(":")
	p.prog.DeclareGlobal(name, p.parseType())
}

func (p *parser) mapDecl() {
	p.expectKeyword("map")
	name := p.expectIdent()
	p.expectPunct(":")
	key := p.parseType()
	p.expectPunct("->")
	p.prog.DeclareMap(name, key, p.parseType())
}

func (p *parser) paramList() []Param {
	p.expectPunct("(")
	var out []Param
	for p.until(")") {
		if len(out) > 0 {
			p.expectPunct(",")
		}
		name := p.expectIdent()
		p.expectPunct(":")
		out = append(out, Param{Name: name, Type: p.parseType()})
	}
	p.expectPunct(")")
	return out
}

func (p *parser) ctorDecl() {
	p.expectKeyword("ctor")
	params := p.paramList()
	p.params = params
	body := p.block()
	p.params = nil
	p.prog.SetConstructor(params, body...)
}

func (p *parser) apiDecl() {
	p.expectKeyword("api")
	name := p.expectIdent()
	params := p.paramList()
	p.expectPunct(":")
	ret := p.parseType()
	p.params = params
	defer func() { p.params = nil }()
	var pay Expr
	if p.isKeyword("pay") {
		p.advance()
		p.expectPunct("(")
		pay = p.expr()
		p.expectPunct(")")
	}
	body := p.block()
	p.prog.AddAPI(&API{Name: name, Params: params, Returns: ret, Pay: pay, Body: body})
}

func (p *parser) viewDecl() {
	p.expectKeyword("view")
	name := p.expectIdent()
	p.expectPunct(":")
	t := p.parseType()
	p.expectPunct("=")
	p.prog.AddView(name, t, p.expr())
}

func (p *parser) block() []Stmt {
	p.expectPunct("{")
	var out []Stmt
	for p.until("}") {
		if p.peek().kind == tokEOF {
			p.fail(p.peek(), "unterminated block")
		}
		out = append(out, p.stmt())
	}
	p.expectPunct("}")
	return out
}

//nolint:gocyclo // one case per statement form.
func (p *parser) stmt() Stmt {
	t := p.peek()
	switch {
	case p.isKeyword("assume"), p.isKeyword("require"):
		kw := p.advance().text
		p.expectPunct("(")
		cond := p.expr()
		msg := ""
		if p.isPunct(",") {
			p.advance()
			mt := p.advance()
			if mt.kind != tokString {
				p.fail(mt, "expected message string, got %s", mt)
			}
			msg = mt.str
		}
		p.expectPunct(")")
		if kw == "assume" {
			return &Assume{Cond: cond, Msg: msg}
		}
		return &Require{Cond: cond, Msg: msg}

	case p.isKeyword("set"):
		p.advance()
		name := p.expectIdent()
		if p.paramIndex(name) >= 0 {
			p.fail(t, "cannot assign parameter %q (set targets globals)", name)
		}
		if _, err := p.prog.globalIndex(name); err != nil {
			p.fail(t, "set: %v", err)
		}
		p.expectPunct("=")
		return &SetGlobal{Name: name, Value: p.expr()}

	case p.isKeyword("delete"):
		p.advance()
		name := p.expectIdent()
		p.expectPunct("[")
		key := p.expr()
		p.expectPunct("]")
		return &MapDel{Map: name, Key: key}

	case p.isKeyword("transfer"):
		p.advance()
		amount := p.expr()
		p.expectKeyword("to")
		return &Transfer{Amount: amount, To: p.expr()}

	case p.isKeyword("if"):
		p.advance()
		cond := p.expr()
		then := p.block()
		var els []Stmt
		if p.isKeyword("else") {
			p.advance()
			if p.isKeyword("if") {
				// else-if chains: the nested if becomes the else block.
				els = []Stmt{p.stmt()}
			} else {
				els = p.block()
			}
		}
		return &If{Cond: cond, Then: then, Else: els}

	case p.isKeyword("emit"):
		p.advance()
		event := p.expectIdent()
		p.expectPunct("(")
		v := p.expr()
		p.expectPunct(")")
		return &Emit{Event: event, Value: v}

	case p.isKeyword("return"):
		p.advance()
		return &Return{Value: p.expr()}

	case t.kind == tokIdent:
		// Map assignment: name[key] = value.
		name := p.advance().text
		if !p.isPunct("[") {
			p.fail(t, "expected a statement; %q starts none (map writes are name[key] = value)", name)
		}
		p.advance()
		key := p.expr()
		p.expectPunct("]")
		p.expectPunct("=")
		return &MapSet{Map: name, Key: key, Value: p.expr()}

	default:
		p.fail(t, "expected a statement, got %s", t)
		return nil
	}
}

func (p *parser) paramIndex(name string) int {
	for i, pr := range p.params {
		if pr.Name == name {
			return i
		}
	}
	return -1
}

// Expression parsing, precedence climbing.

func (p *parser) expr() Expr { return p.orExpr() }

func (p *parser) orExpr() Expr {
	left := p.andExpr()
	for p.isPunct("||") {
		p.advance()
		left = Or(left, p.andExpr())
	}
	return left
}

func (p *parser) andExpr() Expr {
	left := p.cmpExpr()
	for p.isPunct("&&") {
		p.advance()
		left = And(left, p.cmpExpr())
	}
	return left
}

var cmpOps = map[string]BinOp{
	"==": OpEq, "!=": OpNe, "<": OpLt, ">": OpGt, "<=": OpLe, ">=": OpGe,
}

func (p *parser) cmpExpr() Expr {
	left := p.concatExpr()
	if t := p.peek(); t.kind == tokPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.advance()
			return &Bin{Op: op, A: left, B: p.concatExpr()}
		}
	}
	return left
}

func (p *parser) concatExpr() Expr {
	left := p.addExpr()
	for p.isPunct("++") {
		p.advance()
		left = Concat(left, p.addExpr())
	}
	return left
}

func (p *parser) addExpr() Expr {
	left := p.mulExpr()
	for p.isPunct("+") || p.isPunct("-") {
		op := p.advance().text
		right := p.mulExpr()
		if op == "+" {
			left = Add(left, right)
		} else {
			left = Sub(left, right)
		}
	}
	return left
}

func (p *parser) mulExpr() Expr {
	left := p.unaryExpr()
	for p.isPunct("*") || p.isPunct("/") || p.isPunct("%") {
		op := p.advance().text
		right := p.unaryExpr()
		switch op {
		case "*":
			left = Mul(left, right)
		case "/":
			left = Div(left, right)
		default:
			left = Mod(left, right)
		}
	}
	return left
}

func (p *parser) unaryExpr() Expr {
	if p.isPunct("!") {
		p.advance()
		return &Not{A: p.unaryExpr()}
	}
	return p.primary()
}

//nolint:gocyclo // one case per primary form.
func (p *parser) primary() Expr {
	t := p.advance()
	switch {
	case t.kind == tokNumber:
		return U(t.num)
	case t.kind == tokString:
		return Bs(t.str)
	case t.kind == tokPunct && t.text == "(":
		e := p.expr()
		p.expectPunct(")")
		return e

	case t.kind == tokIdent:
		switch t.text {
		case "true":
			return True
		case "false":
			return False
		case "balance":
			p.emptyCall()
			return &Balance{}
		case "caller":
			p.emptyCall()
			return &Caller{}
		case "paid":
			p.emptyCall()
			return &Paid{}
		case "now":
			p.emptyCall()
			return &Now{}
		case "digest":
			p.expectPunct("(")
			e := p.expr()
			p.expectPunct(")")
			return &Digest{A: e}
		case "sigok":
			args := p.callArgs(3)
			return &SigVerify{Pub: args[0], Msg: args[1], Sig: args[2]}
		case "contains":
			args := p.callArgs(2)
			return &CellContains{Cell: args[0], Code: args[1]}
		case "has":
			p.expectPunct("(")
			name := p.expectIdent()
			p.expectPunct(",")
			key := p.expr()
			p.expectPunct(")")
			return &MapHas{Map: name, Key: key}
		}
		// Map get: name[key].
		if p.isPunct("[") {
			p.advance()
			key := p.expr()
			p.expectPunct("]")
			return &MapGet{Map: t.text, Key: key}
		}
		// Parameter (shadows globals) or global.
		if i := p.paramIndex(t.text); i >= 0 {
			return A(i)
		}
		if _, err := p.prog.globalIndex(t.text); err == nil {
			return G(t.text)
		}
		p.fail(t, "undefined name %q", t.text)
		return nil

	default:
		p.fail(t, "expected an expression, got %s", t)
		return nil
	}
}

func (p *parser) emptyCall() {
	p.expectPunct("(")
	p.expectPunct(")")
}

// callArgs parses a parenthesized, comma-separated list of exactly n
// expression arguments.
func (p *parser) callArgs(n int) []Expr {
	p.expectPunct("(")
	args := make([]Expr, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			p.expectPunct(",")
		}
		args = append(args, p.expr())
	}
	p.expectPunct(")")
	return args
}
