package lang

import (
	"errors"
	"strings"
	"testing"
)

// makeAPI wraps a body into a minimal program with one API.
func makeAPI(t *testing.T, pay Expr, body ...Stmt) *Program {
	t.Helper()
	p := NewProgram("test")
	p.DeclareGlobal("owner", TAddress)
	p.DeclareGlobal("x", TUInt)
	p.DeclareMap("m", TUInt, TBytes)
	p.SetConstructor(nil)
	p.AddAPI(&API{
		Name:    "f",
		Params:  []Param{{Name: "a", Type: TUInt}, {Name: "to", Type: TAddress}},
		Returns: TUInt,
		Pay:     pay,
		Body:    body,
	})
	if err := Check(p); err != nil {
		t.Fatalf("program does not type check: %v", err)
	}
	return p
}

func failuresOfKind(r *Report, kind string) int {
	n := 0
	for _, th := range r.Failed() {
		if th.Kind == kind {
			n++
		}
	}
	return n
}

func TestVerifyUnguardedTransferFails(t *testing.T) {
	p := makeAPI(t, nil,
		&Transfer{Amount: U(100), To: A(1)},
		&Return{Value: U(0)},
	)
	r := Verify(p)
	if failuresOfKind(r, "transfer-funded") == 0 {
		t.Fatalf("unguarded transfer not flagged:\n%s", r)
	}
	// And Compile refuses it; the backends alone still lower it.
	if _, err := Compile(p, Options{}); !errors.Is(err, ErrVerification) {
		t.Fatalf("Compile accepted a program with failed theorems: %v", err)
	}
	if _, err := CompileEVM(p); err != nil {
		t.Fatalf("CompileEVM refused a checked program: %v", err)
	}
}

func TestVerifyGuardedTransferPasses(t *testing.T) {
	p := makeAPI(t, nil,
		&If{
			Cond: Ge(&Balance{}, U(100)),
			Then: []Stmt{
				&Transfer{Amount: U(100), To: A(1)},
				&Return{Value: U(1)},
			},
			Else: []Stmt{&Return{Value: U(0)}},
		},
	)
	if r := Verify(p); failuresOfKind(r, "transfer-funded") != 0 {
		t.Fatalf("guarded transfer flagged:\n%s", r)
	}
}

func TestVerifyAssumeGuardsTransfer(t *testing.T) {
	p := makeAPI(t, nil,
		&Assume{Cond: Ge(&Balance{}, U(100)), Msg: "funded"},
		&Transfer{Amount: U(100), To: A(1)},
		&Return{Value: U(1)},
	)
	if r := Verify(p); failuresOfKind(r, "transfer-funded") != 0 {
		t.Fatalf("assume-guarded transfer flagged:\n%s", r)
	}
}

func TestVerifyBalanceFactInvalidatedByTransfer(t *testing.T) {
	// After one transfer the balance check is stale; a second transfer
	// must be re-guarded.
	p := makeAPI(t, nil,
		&Assume{Cond: Ge(&Balance{}, U(100)), Msg: "funded once"},
		&Transfer{Amount: U(100), To: A(1)},
		&Transfer{Amount: U(100), To: A(1)},
		&Return{Value: U(1)},
	)
	if r := Verify(p); failuresOfKind(r, "transfer-funded") == 0 {
		t.Fatal("stale balance fact reused for a second transfer")
	}
}

func TestVerifySweepAlwaysFunded(t *testing.T) {
	p := makeAPI(t, nil,
		&Transfer{Amount: &Balance{}, To: A(1)},
		&Return{Value: U(1)},
	)
	if r := Verify(p); failuresOfKind(r, "transfer-funded") != 0 {
		t.Fatal("balance() sweep flagged as unfunded")
	}
}

func TestVerifyTokenLinearity(t *testing.T) {
	// A program that accepts money but can never empty itself strands
	// funds.
	p := NewProgram("stranded")
	p.SetConstructor(nil)
	p.AddAPI(&API{
		Name: "depositOnly", Params: []Param{{Name: "amt", Type: TUInt}},
		Returns: TUInt, Pay: A(0),
		Body: []Stmt{&Return{Value: &Balance{}}},
	})
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	if r := Verify(p); failuresOfKind(r, "token-linearity") == 0 {
		t.Fatal("stranded-funds program passed token linearity")
	}

	// Adding a sweep API fixes it.
	p.AddAPI(&API{
		Name: "close", Params: []Param{{Name: "to", Type: TAddress}},
		Returns: TUInt,
		Body: []Stmt{
			&Transfer{Amount: &Balance{}, To: A(0)},
			&Return{Value: U(1)},
		},
	})
	if r := Verify(p); failuresOfKind(r, "token-linearity") != 0 {
		t.Fatal("sweep API did not satisfy token linearity")
	}
}

func TestVerifyMapGetGuard(t *testing.T) {
	unguarded := makeAPI(t, nil,
		&Emit{Event: "e", Value: &MapGet{Map: "m", Key: A(0)}},
		&Return{Value: U(1)},
	)
	if r := Verify(unguarded); failuresOfKind(r, "map-get-guarded") == 0 {
		t.Fatal("unguarded MapGet not flagged")
	}
	guarded := makeAPI(t, nil,
		&Assume{Cond: &MapHas{Map: "m", Key: A(0)}, Msg: "present"},
		&Emit{Event: "e", Value: &MapGet{Map: "m", Key: A(0)}},
		&Return{Value: U(1)},
	)
	if r := Verify(guarded); failuresOfKind(r, "map-get-guarded") != 0 {
		t.Fatal("guarded MapGet flagged")
	}
}

func TestVerifySubUnderflow(t *testing.T) {
	bad := makeAPI(t, nil,
		&SetGlobal{Name: "x", Value: Sub(G("x"), U(1))},
		&Return{Value: G("x")},
	)
	if r := Verify(bad); failuresOfKind(r, "sub-underflow") == 0 {
		t.Fatal("possible underflow not flagged")
	}
	good := makeAPI(t, nil,
		&Assume{Cond: Gt(G("x"), U(0)), Msg: "positive"},
		&SetGlobal{Name: "x", Value: Sub(G("x"), U(1))},
		&Return{Value: G("x")},
	)
	if r := Verify(good); failuresOfKind(r, "sub-underflow") != 0 {
		t.Fatal("guarded decrement flagged")
	}
}

func TestVerifyGlobalFactInvalidatedByWrite(t *testing.T) {
	// x > 0 is asserted, then x is overwritten; the stale fact must not
	// justify x-1.
	p := makeAPI(t, nil,
		&Assume{Cond: Gt(G("x"), U(0)), Msg: "positive"},
		&SetGlobal{Name: "x", Value: U(0)},
		&SetGlobal{Name: "x", Value: Sub(G("x"), U(1))},
		&Return{Value: G("x")},
	)
	if r := Verify(p); failuresOfKind(r, "sub-underflow") == 0 {
		t.Fatal("stale global fact survived a write")
	}
}

func TestVerifyDivNonzero(t *testing.T) {
	bad := makeAPI(t, nil,
		&Return{Value: Div(U(10), A(0))},
	)
	if r := Verify(bad); failuresOfKind(r, "div-nonzero") == 0 {
		t.Fatal("possible division by zero not flagged")
	}
	good := makeAPI(t, nil,
		&Assume{Cond: Gt(A(0), U(0)), Msg: "nonzero"},
		&Return{Value: Div(U(10), A(0))},
	)
	if r := Verify(good); failuresOfKind(r, "div-nonzero") != 0 {
		t.Fatal("guarded division flagged")
	}
}

func TestVerifyElseBranchFacts(t *testing.T) {
	// In the else branch of `if x < 1`, x >= 1 holds, so x-1 is safe.
	p := makeAPI(t, nil,
		&If{
			Cond: Lt(G("x"), U(1)),
			Then: []Stmt{&Return{Value: U(0)}},
			Else: []Stmt{
				&SetGlobal{Name: "x", Value: Sub(G("x"), U(1))},
				&Return{Value: G("x")},
			},
		},
	)
	if r := Verify(p); failuresOfKind(r, "sub-underflow") != 0 {
		t.Fatalf("negated-condition fact not derived:\n%s", Verify(p))
	}
}

func TestReportRendering(t *testing.T) {
	p := makeAPI(t, nil, &Return{Value: U(1)})
	r := Verify(p)
	s := r.String()
	if !strings.Contains(s, "Checked") || !strings.Contains(s, "No failures!") {
		t.Fatalf("report format:\n%s", s)
	}
	bad := makeAPI(t, nil, &Transfer{Amount: U(5), To: A(1)}, &Return{Value: U(1)})
	rb := Verify(bad)
	if !strings.Contains(rb.String(), "FAILURES") {
		t.Fatalf("failure report format:\n%s", rb)
	}
}

func TestVerifyReportsEachTheoremOnce(t *testing.T) {
	prog, err := ParseSource(`contract "x" { map m: UInt -> UInt ctor() {} api f(k: UInt): UInt { return m[k] } }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	r := Verify(prog)
	out := r.String()
	if r.Checked != 1 || r.Failures != 1 || strings.Count(out, "FAIL [map-get-guarded]") != 1 {
		t.Fatalf("Checked=%d Failures=%d, want one failed theorem reported once:\n%s", r.Checked, r.Failures, out)
	}
	if !strings.Contains(out, "Checked 1 theorems; 1 FAILURES:") {
		t.Fatalf("summary line:\n%s", out)
	}
}
