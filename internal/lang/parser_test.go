package lang

import (
	"bytes"
	"errors"
	"testing"
)

// polSource is the thesis contract in the textual syntax — the index.rsh
// analogue. It must compile to exactly the artifacts the embedded builder
// produces (asserted below against builderTwin): the AST API stays public
// for generated contracts, so the parser and the builder must agree.
const polSource = `
// The proof-of-location report contract (§4.1).
contract "pol-report" {
  global position: Bytes
  global creator: Address
  global creatorDid: UInt
  global availableSits: UInt
  global reward: UInt
  map easy_map: UInt -> Bytes

  ctor(position_: Bytes, did: UInt, rewardPerProver: UInt) {
    set position = position_
    set creator = caller()
    set creatorDid = did
    set reward = rewardPerProver
    set availableSits = 4
  }

  api insert_data(data: Bytes, did: UInt): UInt {
    assume(availableSits > 0, "contract is full")
    assume(!has(easy_map, did), "DID already attached")
    easy_map[did] = data
    set availableSits = availableSits - 1
    emit reportData(did)
    return availableSits
  }

  api insert_money(money: UInt): UInt pay(money) {
    assume(money > 0, "deposit must be positive")
    return balance()
  }

  api verify(did: UInt, walletAddress: Address): Address {
    assume(has(easy_map, did), "no data for DID")
    if balance() >= reward {
      transfer reward to walletAddress
      delete easy_map[did]
      emit reportVerification(did)
      return walletAddress
    } else {
      emit issueDuringVerification(did)
      return walletAddress
    }
  }

  api close(): UInt {
    assume(caller() == creator, "only creator closes")
    transfer balance() to creator
    return 1
  }

  view getCtcBalance: UInt = balance()
  view getReward: UInt = reward
  view getAvailableSits: UInt = availableSits
  view getPosition: Bytes = position
}
`

func TestParsePoLSourceCompiles(t *testing.T) {
	prog, err := ParseSource(polSource)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "pol-report" {
		t.Fatalf("name %q", prog.Name)
	}
	c, err := Compile(prog, Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	if c.Report.Failures != 0 {
		t.Fatalf("verification failures:\n%s", c.Report)
	}
	if len(prog.APIs) != 4 || len(prog.Views) != 4 || len(prog.Globals) != 5 {
		t.Fatalf("shape: %d APIs %d views %d globals", len(prog.APIs), len(prog.Views), len(prog.Globals))
	}
}

// TestParsedSourceMatchesBuilder: the textual contract and the
// builder-built twin must compile to byte-identical backends.
func TestParsedSourceMatchesBuilder(t *testing.T) {
	parsed, err := ParseSource(polSource)
	if err != nil {
		t.Fatal(err)
	}
	built := builderTwin()
	cp, err := Compile(parsed, Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Compile(built, Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp.EVMCode, cb.EVMCode) {
		t.Fatalf("EVM bytecode differs: %d vs %d bytes", len(cp.EVMCode), len(cb.EVMCode))
	}
	if cp.TEALSource != cb.TEALSource {
		t.Fatal("TEAL source differs")
	}
	if cp.Report.Checked != cb.Report.Checked {
		t.Fatalf("theorem counts differ: %d vs %d", cp.Report.Checked, cb.Report.Checked)
	}
}

// builderTwin reconstructs the same program with the embedded builder.
func builderTwin() *Program {
	p := NewProgram("pol-report")
	p.DeclareGlobal("position", TBytes)
	p.DeclareGlobal("creator", TAddress)
	p.DeclareGlobal("creatorDid", TUInt)
	p.DeclareGlobal("availableSits", TUInt)
	p.DeclareGlobal("reward", TUInt)
	p.DeclareMap("easy_map", TUInt, TBytes)
	p.SetConstructor(
		[]Param{
			{Name: "position_", Type: TBytes},
			{Name: "did", Type: TUInt},
			{Name: "rewardPerProver", Type: TUInt},
		},
		&SetGlobal{Name: "position", Value: A(0)},
		&SetGlobal{Name: "creator", Value: &Caller{}},
		&SetGlobal{Name: "creatorDid", Value: A(1)},
		&SetGlobal{Name: "reward", Value: A(2)},
		&SetGlobal{Name: "availableSits", Value: U(4)},
	)
	p.AddAPI(&API{
		Name:    "insert_data",
		Params:  []Param{{Name: "data", Type: TBytes}, {Name: "did", Type: TUInt}},
		Returns: TUInt,
		Body: []Stmt{
			&Assume{Cond: Gt(G("availableSits"), U(0)), Msg: "contract is full"},
			&Assume{Cond: &Not{A: &MapHas{Map: "easy_map", Key: A(1)}}, Msg: "DID already attached"},
			&MapSet{Map: "easy_map", Key: A(1), Value: A(0)},
			&SetGlobal{Name: "availableSits", Value: Sub(G("availableSits"), U(1))},
			&Emit{Event: "reportData", Value: A(1)},
			&Return{Value: G("availableSits")},
		},
	})
	p.AddAPI(&API{
		Name:    "insert_money",
		Params:  []Param{{Name: "money", Type: TUInt}},
		Returns: TUInt,
		Pay:     A(0),
		Body: []Stmt{
			&Assume{Cond: Gt(A(0), U(0)), Msg: "deposit must be positive"},
			&Return{Value: &Balance{}},
		},
	})
	p.AddAPI(&API{
		Name:    "verify",
		Params:  []Param{{Name: "did", Type: TUInt}, {Name: "walletAddress", Type: TAddress}},
		Returns: TAddress,
		Body: []Stmt{
			&Assume{Cond: &MapHas{Map: "easy_map", Key: A(0)}, Msg: "no data for DID"},
			&If{
				Cond: Ge(&Balance{}, G("reward")),
				Then: []Stmt{
					&Transfer{Amount: G("reward"), To: A(1)},
					&MapDel{Map: "easy_map", Key: A(0)},
					&Emit{Event: "reportVerification", Value: A(0)},
					&Return{Value: A(1)},
				},
				Else: []Stmt{
					&Emit{Event: "issueDuringVerification", Value: A(0)},
					&Return{Value: A(1)},
				},
			},
		},
	})
	p.AddAPI(&API{
		Name:    "close",
		Params:  []Param{},
		Returns: TUInt,
		Body: []Stmt{
			&Assume{Cond: Eq(&Caller{}, G("creator")), Msg: "only creator closes"},
			&Transfer{Amount: &Balance{}, To: G("creator")},
			&Return{Value: U(1)},
		},
	})
	p.AddView("getCtcBalance", TUInt, &Balance{})
	p.AddView("getReward", TUInt, G("reward"))
	p.AddView("getAvailableSits", TUInt, G("availableSits"))
	p.AddView("getPosition", TBytes, G("position"))
	return p
}

func TestParsePrecedence(t *testing.T) {
	src := `
contract "prec" {
  api f(a: UInt, b: UInt, c: UInt): Bool {
    return a + b * c == a + (b * c) && !(a > b)
  }
  ctor() {}
}
`
	prog, err := ParseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	// a + b * c must parse as a + (b*c): the two sides of == are
	// structurally identical.
	ret := prog.APIs[0].Body[0].(*Return)
	and := ret.Value.(*Bin)
	if and.Op != OpAnd {
		t.Fatalf("top operator %v", and.Op)
	}
	eq := and.A.(*Bin)
	if eq.Op != OpEq || !exprEqual(eq.A, eq.B) {
		t.Fatalf("precedence broken: %s vs %s", exprString(eq.A), exprString(eq.B))
	}
}

// parseErrorCases pins ParseSource's first error for one source per
// failure site of the lexer and parser; FuzzParseSource seeds from it too.
var parseErrorCases = []struct{ name, src, want string }{
	{"missing contract", `global x: UInt`, `1:1: expected "contract", got "global"`},
	{"bad type", `contract "x" { global g: Float ctor() {} }`, `1:26: unknown type "Float"`},
	{"undefined name", `contract "x" { ctor() {} api f(): UInt { return zzz } }`, `1:49: undefined name "zzz"`},
	{"assign param", `contract "x" { ctor(a: UInt) { set a = 1 } }`, `1:32: cannot assign parameter "a" (set targets globals)`},
	{"unterminated", `contract "x" { ctor() {`, `1:24: unterminated block`},
	{"duplicate ctor", `contract "x" { ctor() {} ctor() {} }`, `1:26: duplicate ctor`},
	{"trailing garbage", `contract "x" { ctor() {} } extra`, `1:28: trailing input after contract: "extra"`},
	{"unknown statement", `contract "x" { ctor() { frobnicate } }`, `1:25: expected a statement; "frobnicate" starts none (map writes are name[key] = value)`},
	{"set unknown", `contract "x" { ctor() { set ghost = 1 } }`, `1:25: set: lang: undefined global "ghost"`},
	{"bad string", `contract "x { ctor() {} }`, `1:10: unterminated string`},
	{"unterminated body", `contract "x" { ctor() {}`, `1:25: unterminated contract body`},
	{"unterminated nested block", `contract "x" { ctor() {} api f(): UInt { if true { return 1 }`, `1:62: unterminated block`},
	{"non-string assume message", `contract "x" { ctor() { assume(true, 7) } }`, `1:38: expected message string, got "7"`},
	{"map write without bracket", `contract "x" { map m: UInt -> UInt ctor() { m = 1 } }`, `1:45: expected a statement; "m" starts none (map writes are name[key] = value)`},
	{"unknown param type", `contract "x" { ctor() {} api f(a: Word): UInt { return 1 } }`, `1:35: unknown type "Word"`},
	{"not a declaration", `contract "x" { ctor() {} fn f() {} }`, `1:26: expected a declaration, got "fn"`},
	{"not an expression", `contract "x" { ctor() {} api f(): UInt { return ) } }`, `1:49: expected an expression, got ")"`},
	{"unquoted contract name", `contract x { ctor() {} }`, `1:10: expected contract name string, got "x"`},
	{"number as statement", `contract "x" { ctor() { 5 } }`, `1:25: expected a statement, got "5"`},
	{"number as name", `contract "x" { global 5: UInt ctor() {} }`, `1:23: expected identifier, got "5"`},
	{"missing comma", `contract "x" { ctor() {} api f(a: UInt b: UInt): UInt { return a } }`, `1:40: expected ",", got "b"`},
	{"transfer without to", `contract "x" { ctor() {} api f(): UInt { transfer 1 from caller() return 1 } }`, `1:53: expected "to", got "from"`},
}

func TestParseErrorsSurface(t *testing.T) {
	for _, tc := range parseErrorCases {
		_, err := ParseSource(tc.src)
		if !errors.Is(err, ErrSyntax) || err.Error() != ErrSyntax.Error()+": "+tc.want {
			t.Errorf("%s: got %v, want %s: %s", tc.name, err, ErrSyntax, tc.want)
		}
	}
}

func TestParsedContractExecutes(t *testing.T) {
	// End to end: parse, compile, run on the EVM harness.
	prog, err := ParseSource(polSource)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	h := newEVMHarness(t, c)
	res := h.call(CtorMethodName, prog.Ctor.Params, 0,
		BytesValue([]byte("8FPHF8VV+X2")), Uint64Value(7), Uint64Value(100))
	if res.Err != nil || res.Reverted {
		t.Fatalf("ctor: %+v", res)
	}
	insert := prog.FindAPI("insert_data")
	res = h.call("insert_data", insert.Params, 0, BytesValue([]byte("proof")), Uint64Value(7))
	if res.Err != nil || res.Reverted {
		t.Fatalf("insert: %+v", res)
	}
	v, err := DecodeReturnEVM(TUInt, res.ReturnData)
	if err != nil || v.Uint != 3 {
		t.Fatalf("sits after insert = %v", v)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`foo 12_3 "s\"x" -> == // comment
bar`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokNumber, tokString, tokPunct, tokPunct, tokIdent, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d kind %v, want %v", i, toks[i].kind, k)
		}
	}
	if toks[1].num != 123 {
		t.Fatalf("number = %d", toks[1].num)
	}
	if toks[2].str != `s"x` {
		t.Fatalf("string = %q", toks[2].str)
	}
	if toks[5].line != 2 {
		t.Fatalf("line tracking: %d", toks[5].line)
	}
	if _, err := lexAll("@"); err == nil {
		t.Fatal("bad character accepted")
	}
	if _, err := lexAll(`"open`); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `
contract "chain" {
  ctor() {}
  api grade(x: UInt): UInt {
    if x >= 90 {
      return 1
    } else if x >= 60 {
      return 2
    } else {
      return 3
    }
  }
}
`
	prog, err := ParseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := newEVMHarness(t, c)
	if res := h.call(CtorMethodName, nil, 0); res.Err != nil || res.Reverted {
		t.Fatalf("ctor: %+v", res)
	}
	api := prog.FindAPI("grade")
	for _, tc := range []struct{ in, want uint64 }{{95, 1}, {75, 2}, {10, 3}} {
		res := h.call("grade", api.Params, 0, Uint64Value(tc.in))
		if res.Err != nil || res.Reverted {
			t.Fatalf("grade(%d): %+v", tc.in, res)
		}
		v, err := DecodeReturnEVM(TUInt, res.ReturnData)
		if err != nil || v.Uint != tc.want {
			t.Fatalf("grade(%d) = %v, want %d", tc.in, v, tc.want)
		}
	}
}
