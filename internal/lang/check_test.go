package lang

import (
	"errors"
	"strings"
	"testing"
)

func expectCheckError(t *testing.T, p *Program, substr string) {
	t.Helper()
	err := Check(p)
	if err == nil {
		t.Fatalf("Check accepted a broken program (want error containing %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("Check error %q does not mention %q", err, substr)
	}
}

func TestCheckRejectsTypeErrors(t *testing.T) {
	t.Run("arith-on-bytes", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Params: []Param{{Name: "b", Type: TBytes}}, Returns: TUInt,
			Body: []Stmt{&Return{Value: Add(A(0), U(1))}},
		})
		expectCheckError(t, p, "needs UInt operands")
	})
	t.Run("eq-mismatched", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Params: []Param{{Name: "b", Type: TBytes}}, Returns: TBool,
			Body: []Stmt{&Return{Value: Eq(A(0), U(1))}},
		})
		expectCheckError(t, p, "matching operand types")
	})
	t.Run("missing-return", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Returns: TUInt,
			Body: []Stmt{&Emit{Event: "e", Value: U(1)}},
		})
		expectCheckError(t, p, "does not Return")
	})
	t.Run("partial-return-in-if", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Params: []Param{{Name: "a", Type: TUInt}}, Returns: TUInt,
			Body: []Stmt{&If{
				Cond: Gt(A(0), U(0)),
				Then: []Stmt{&Return{Value: U(1)}},
				// else falls through without Return
			}},
		})
		expectCheckError(t, p, "does not Return")
	})
	t.Run("unreachable-after-return", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Returns: TUInt,
			Body: []Stmt{
				&Return{Value: U(1)},
				&Emit{Event: "dead", Value: U(2)},
			},
		})
		expectCheckError(t, p, "unreachable")
	})
	t.Run("undefined-global", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Returns: TUInt,
			Body: []Stmt{&SetGlobal{Name: "ghost", Value: U(1)}, &Return{Value: U(1)}},
		})
		expectCheckError(t, p, "undefined global")
	})
	t.Run("bad-arg-index", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Returns: TUInt,
			Body: []Stmt{&Return{Value: A(3)}},
		})
		expectCheckError(t, p, "out of range")
	})
	t.Run("map-key-must-be-uint", func(t *testing.T) {
		p := NewProgram("t")
		p.DeclareMap("m", TBytes, TBytes)
		p.SetConstructor(nil)
		expectCheckError(t, p, "key must be UInt")
	})
	t.Run("duplicate-api", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{Name: "f", Returns: TUInt, Body: []Stmt{&Return{Value: U(1)}}})
		p.AddAPI(&API{Name: "f", Returns: TUInt, Body: []Stmt{&Return{Value: U(1)}}})
		expectCheckError(t, p, "duplicate API")
	})
	t.Run("return-in-constructor", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil, &Return{Value: U(1)})
		expectCheckError(t, p, "Return not allowed")
	})
	t.Run("transfer-to-uint", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddAPI(&API{
			Name: "f", Returns: TUInt,
			Body: []Stmt{
				&Transfer{Amount: U(1), To: U(5)},
				&Return{Value: U(1)},
			},
		})
		expectCheckError(t, p, "transfer to")
	})
	t.Run("view-type-mismatch", func(t *testing.T) {
		p := NewProgram("t")
		p.SetConstructor(nil)
		p.AddView("v", TBytes, U(1))
		expectCheckError(t, p, "want Bytes")
	})
}

// namespaceClashes are the shapes Check refuses because the constructor,
// APIs and views dispatch through one Selector(name) namespace on the EVM
// (APIs first) while the AVM keeps views apart: before these rules an API
// and a view both named v compiled cleanly and View("v") ran different
// bodies on the two backends, and duplicate views surfaced only as a
// backend label error. FuzzParseSource seeds its corpus with them.
var namespaceClashes = []struct{ name, src, want string }{
	{"view-shares-api-name",
		`contract "t" { global a: UInt ctor() {} api v(): UInt { return 1 } view v: UInt = a }`,
		`view "v" shares its method name with the API`},
	{"duplicate-view",
		`contract "t" { global a: UInt ctor() {} view v: UInt = a view v: UInt = a }`,
		`duplicate view "v"`},
	{"api-named-ctor",
		`contract "t" { ctor() {} api ctor(): UInt { return 1 } }`,
		`API "ctor" shares its method name with the constructor`},
	{"view-named-ctor",
		`contract "t" { global a: UInt ctor() {} view ctor: UInt = a }`,
		`view "ctor" shares its method name with the constructor`},
	{"duplicate-api-param",
		`contract "t" { ctor() {} api f(b: UInt, b: UInt): UInt { return b } }`,
		`API f: duplicate parameter "b"`},
	{"duplicate-ctor-param",
		`contract "t" { global a: UInt ctor(b: UInt, b: UInt) { set a = b } }`,
		`constructor: duplicate parameter "b"`},
}

func TestCheckRejectsMethodNamespaceClashes(t *testing.T) {
	for _, tc := range namespaceClashes {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParseSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			expectCheckError(t, p, tc.want)
			if _, err := Compile(p, Options{}); !errors.Is(err, ErrType) {
				t.Fatalf("Compile error %v is not ErrType", err)
			}
		})
	}
}

func TestCheckAcceptsWellTyped(t *testing.T) {
	p := counterProgram(t)
	if err := Check(p); err != nil {
		t.Fatalf("well-typed program rejected: %v", err)
	}
}
