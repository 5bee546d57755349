package lang

import (
	"bytes"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/polcrypto"
)

// Differential testing of the two backends: randomly generated expression
// trees are compiled to EVM and TEAL and must either fail identically
// (division by zero, uint64 overflow semantics differ — see below) or
// produce the same value. This is the strongest check that "blockchain
// agnostic" means agnostic.
//
// One semantic divergence is real and excluded by construction: the EVM
// computes modulo 2^256 while the AVM faults on uint64 overflow. The
// generator therefore keeps intermediate values small, mirroring the type
// checker's implicit UInt contract (the verifier's overflow theorems exist
// for exactly this reason).

type exprGen struct {
	rng  *chain.Rand
	args []uint64
}

// gen produces a random TUInt expression with values bounded to avoid the
// overflow divergence; depth limits recursion.
func (g *exprGen) gen(depth int) Expr {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return U(uint64(g.rng.Intn(1000)))
		case 1:
			return A(g.rng.Intn(len(g.args)))
		default:
			return U(uint64(g.rng.Intn(7))) // small constants hit div/mod paths
		}
	}
	a, b := g.gen(depth-1), g.gen(depth-1)
	switch g.rng.Intn(8) {
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
			uint64(rng.Intn(500)), uint64(rng.Intn(500)), uint64(rng.Intn(10)),
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
		// see that) — compile with SkipVerify; the comparison below is
		// the oracle.
		c, err := Compile(p, Options{SkipVerify: true, MaxBytesLen: 64})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}

		args := []Value{Uint64Value(g.args[0]), Uint64Value(g.args[1]), Uint64Value(g.args[2])}

		// EVM run.
		st := evm.NewMemState()
		self := chain.AddressFromBytes([]byte("c"))
		ctorData, err := EncodeArgsEVM(CtorMethodName, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := evm.Execute(evm.Context{State: st, Address: self, Value: new(big.Int), CallData: ctorData, GasLimit: 5_000_000}, c.EVMCode)
		if res.Err != nil || res.Reverted {
			t.Fatalf("trial %d: EVM ctor failed: %+v", trial, res)
		}
		callData, err := EncodeArgsEVM("f", p.APIs[0].Params, args)
		if err != nil {
			t.Fatal(err)
		}
		evmRes := evm.Execute(evm.Context{State: st, Address: self, Value: new(big.Int), CallData: callData, GasLimit: 5_000_000}, c.EVMCode)
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
		tres := avm.Execute(c.TEALProgram, led, avm.TxContext{Sender: sender, AppID: 3, CreateMode: true, Args: ctorArgs, BudgetTxns: 8})
		if !tres.Approved {
			t.Fatalf("trial %d: TEAL ctor rejected: %v", trial, tres.Err)
		}
		tealArgs, err := EncodeArgsTEAL("f", p.APIs[0].Params, args)
		if err != nil {
			t.Fatal(err)
		}
		tealRes := avm.Execute(c.TEALProgram, led, avm.TxContext{Sender: sender, AppID: 3, Args: tealArgs, BudgetTxns: 8})
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

// ---------------------------------------------------------------------------
// Interpreted vs precompiled lowering (DESIGN.md §14).
//
// Every shipped contracts/*.pol program is compiled twice — once with the
// interpreted lowering (the oracle) and once with Precompiles — and driven
// through a scripted happy path plus randomized calls on BOTH backends. The
// two compilations must produce bit-identical results, revert messages,
// logs and final state; the precompiled EVM code additionally runs under
// the big.Int reference engine, which must agree with the u256 engine on
// the intercepted CALLs.

// diffStep is one transaction of a differential script.
type diffStep struct {
	method   string // CtorMethodName for deployment
	pay      uint64
	ts       uint64 // block timestamp (0 = default 1000)
	args     []Value
	mustPass bool // scripted happy-path steps must not revert
}

// diffEVM holds one EVM-side execution universe (one compilation, one
// engine, its own state).
type diffEVM struct {
	code  []byte
	state *evm.MemState
	ref   bool // run under ExecuteRef instead of Execute
}

func newDiffEVM(code []byte, ref bool) *diffEVM {
	st := evm.NewMemState()
	st.AddBalance(chain.AddressFromBytes([]byte("alice")), big.NewInt(1_000_000))
	return &diffEVM{code: code, state: st, ref: ref}
}

func (d *diffEVM) run(t *testing.T, c *Compiled, step diffStep) evm.Result {
	t.Helper()
	params := c.Program.Ctor.Params
	if step.method != CtorMethodName {
		api := c.Program.FindAPI(step.method)
		if api == nil {
			t.Fatalf("no API %q", step.method)
		}
		params = api.Params
	}
	data, err := EncodeArgsEVM(step.method, params, step.args)
	if err != nil {
		t.Fatalf("encode %s: %v", step.method, err)
	}
	self := chain.AddressFromBytes([]byte("contract"))
	from := chain.AddressFromBytes([]byte("alice"))
	v := new(big.Int).SetUint64(step.pay)
	if step.pay > 0 {
		d.state.SubBalance(from, v)
		d.state.AddBalance(self, v)
	}
	ts := step.ts
	if ts == 0 {
		ts = 1000
	}
	ctx := evm.Context{
		State: d.state, Caller: from, Address: self, Value: v,
		CallData: data, GasLimit: 10_000_000, BlockNumber: 1, Timestamp: ts,
	}
	var res evm.Result
	if d.ref {
		res = evm.ExecuteRef(ctx, d.code)
	} else {
		res = evm.Execute(ctx, d.code)
	}
	if (res.Err != nil || res.Reverted) && step.pay > 0 {
		d.state.AddBalance(from, v)
		d.state.SubBalance(self, v)
	}
	return res
}

func (d *diffEVM) view(t *testing.T, name string) evm.Result {
	t.Helper()
	data, err := EncodeArgsEVM(name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := evm.Context{
		State: d.state, Caller: chain.AddressFromBytes([]byte("alice")),
		Address: chain.AddressFromBytes([]byte("contract")), Value: new(big.Int),
		CallData: data, GasLimit: 10_000_000, BlockNumber: 1, Timestamp: 1000,
	}
	if d.ref {
		return evm.ExecuteRef(ctx, d.code)
	}
	return evm.Execute(ctx, d.code)
}

// diffAVM is the TEAL-side execution universe.
type diffAVM struct {
	prog   *avm.Program
	ledger *avm.MemLedger
	appID  uint64
	sender chain.Address
}

func newDiffAVM(prog *avm.Program) *diffAVM {
	d := &diffAVM{
		prog:   prog,
		ledger: avm.NewMemLedger(),
		appID:  7,
		sender: chain.AddressFromBytes([]byte("alice")),
	}
	d.ledger.Balances[d.sender] = 1_000_000
	d.ledger.Balances[d.ledger.AppAddress(d.appID)] = avm.MinBalanceValue
	return d
}

func (d *diffAVM) run(t *testing.T, c *Compiled, step diffStep) avm.Result {
	t.Helper()
	params := c.Program.Ctor.Params
	method := step.method
	create := false
	if method == CtorMethodName {
		method, create = "", true
	} else {
		api := c.Program.FindAPI(method)
		if api == nil {
			t.Fatalf("no API %q", method)
		}
		params = api.Params
	}
	appArgs, err := EncodeArgsTEAL(method, params, step.args)
	if err != nil {
		t.Fatalf("encode %s: %v", step.method, err)
	}
	ts := step.ts
	if ts == 0 {
		ts = 1000
	}
	d.ledger.Timestamp = ts
	if step.pay > 0 {
		if err := d.ledger.Pay(d.sender, d.ledger.AppAddress(d.appID), step.pay); err != nil {
			t.Fatalf("group payment: %v", err)
		}
	}
	res := avm.Execute(d.prog, d.ledger, avm.TxContext{
		Sender: d.sender, AppID: d.appID, CreateMode: create,
		Args: appArgs, PayAmount: step.pay, BudgetTxns: 8,
	})
	if (!res.Approved) && step.pay > 0 {
		// Rejected app call voids the whole group, payment included.
		if err := d.ledger.Pay(d.ledger.AppAddress(d.appID), d.sender, step.pay); err != nil {
			t.Fatalf("unwind payment: %v", err)
		}
	}
	return res
}

func (d *diffAVM) view(t *testing.T, name string) avm.Result {
	t.Helper()
	appArgs, err := EncodeArgsTEAL(name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return avm.Execute(d.prog, d.ledger, avm.TxContext{
		Sender: d.sender, AppID: d.appID, Args: appArgs, BudgetTxns: 8,
	})
}

func sameEVMResult(t *testing.T, label string, a, b evm.Result) {
	t.Helper()
	if (a.Err != nil) != (b.Err != nil) || a.Reverted != b.Reverted {
		t.Fatalf("%s: outcome differs: interp err=%v reverted=%v, precompiled err=%v reverted=%v",
			label, a.Err, a.Reverted, b.Err, b.Reverted)
	}
	if a.RevertMsg != b.RevertMsg {
		t.Fatalf("%s: revert message differs: %q vs %q", label, a.RevertMsg, b.RevertMsg)
	}
	if !bytes.Equal(a.ReturnData, b.ReturnData) {
		t.Fatalf("%s: return data differs: %x vs %x", label, a.ReturnData, b.ReturnData)
	}
	if len(a.Logs) != len(b.Logs) {
		t.Fatalf("%s: log count differs: %d vs %d", label, len(a.Logs), len(b.Logs))
	}
	for i := range a.Logs {
		if !reflect.DeepEqual(a.Logs[i].Topics, b.Logs[i].Topics) || !bytes.Equal(a.Logs[i].Data, b.Logs[i].Data) {
			t.Fatalf("%s: log %d differs: %+v vs %+v", label, i, a.Logs[i], b.Logs[i])
		}
	}
}

func sameAVMResult(t *testing.T, label string, a, b avm.Result) {
	t.Helper()
	if a.Approved != b.Approved || (a.Err != nil) != (b.Err != nil) {
		t.Fatalf("%s: outcome differs: interp approved=%v err=%v, precompiled approved=%v err=%v",
			label, a.Approved, a.Err, b.Approved, b.Err)
	}
	if !bytes.Equal(a.Return, b.Return) {
		t.Fatalf("%s: return differs: %x vs %x", label, a.Return, b.Return)
	}
	if !reflect.DeepEqual(a.Logs, b.Logs) {
		t.Fatalf("%s: logs differ: %v vs %v", label, a.Logs, b.Logs)
	}
}

func sameEVMState(t *testing.T, a, b *evm.MemState) {
	t.Helper()
	if !reflect.DeepEqual(a.Storage, b.Storage) {
		t.Fatalf("final EVM storage differs:\ninterp:      %v\nprecompiled: %v", a.Storage, b.Storage)
	}
	keys := map[chain.Address]bool{}
	for k := range a.Balances {
		keys[k] = true
	}
	for k := range b.Balances {
		keys[k] = true
	}
	for k := range keys {
		if a.GetBalance(k).Cmp(b.GetBalance(k)) != 0 {
			t.Fatalf("balance of %x differs: %v vs %v", k, a.GetBalance(k), b.GetBalance(k))
		}
	}
}

func sameAVMState(t *testing.T, a, b *avm.MemLedger) {
	t.Helper()
	if !reflect.DeepEqual(a.Globals, b.Globals) {
		t.Fatalf("final AVM globals differ:\ninterp:      %v\nprecompiled: %v", a.Globals, b.Globals)
	}
	if !reflect.DeepEqual(a.Balances, b.Balances) {
		t.Fatalf("final AVM balances differ: %v vs %v", a.Balances, b.Balances)
	}
}

// randValue generates a deterministic random argument of the given type.
func randValue(rng *chain.Rand, ty Type) Value {
	switch ty {
	case TUInt:
		return Uint64Value(uint64(rng.Intn(12)))
	case TBytes:
		n := rng.Intn(48)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return BytesValue(b)
	case TAddress:
		var a [8]byte
		for i := range a {
			a[i] = byte(rng.Intn(256))
		}
		return AddressValue(chain.AddressFromBytes(a[:]))
	default:
		panic("unsupported arg type " + ty.String())
	}
}

// diffScript returns the scripted happy path for a shipped contract; the
// sequence must exercise every API's success branch at least once so the
// precompiled lowering actually executes (randomized calls mostly revert).
func diffScript(t *testing.T, name string) []diffStep {
	t.Helper()
	pos := BytesValue([]byte("8FQFCXGV+"))
	data := BytesValue([]byte("did:pol:prover#loc"))
	wallet := AddressValue(chain.AddressFromBytes([]byte("wallet")))
	witness := AddressValue(chain.AddressFromBytes([]byte("witness")))
	switch name {
	case "pol-report":
		return []diffStep{
			{method: CtorMethodName, args: []Value{pos, Uint64Value(1), Uint64Value(10)}, mustPass: true},
			{method: "insert_data", args: []Value{data, Uint64Value(2)}, mustPass: true},
			{method: "insert_data", args: []Value{data, Uint64Value(2)}},              // duplicate DID
			{method: "verify", args: []Value{Uint64Value(2), wallet}, mustPass: true}, // unfunded branch
			{method: "insert_money", pay: 50, args: []Value{Uint64Value(50)}, mustPass: true},
			{method: "verify", args: []Value{Uint64Value(2), wallet}, mustPass: true}, // funded branch
			{method: "verify", args: []Value{Uint64Value(9), wallet}},                 // unknown DID
			{method: "close", mustPass: true},
		}
	case "pol-report-v2":
		return []diffStep{
			{method: CtorMethodName, args: []Value{pos, Uint64Value(1), Uint64Value(10), Uint64Value(5), Uint64Value(2000)}, mustPass: true},
			{method: "insert_data", args: []Value{data, Uint64Value(2)}, mustPass: true},
			{method: "insert_money", pay: 60, args: []Value{Uint64Value(60)}, mustPass: true},
			{method: "verify_with_witness", args: []Value{Uint64Value(2), wallet, witness}, mustPass: true},
			{method: "close_timeout"},                           // not expired yet
			{method: "close_timeout", ts: 3000, mustPass: true}, // past deadline
		}
	case "pol-verify":
		loc := []byte("8FQFCXGV+XX:48.8583,2.2944")
		nonce := []byte("nonce-0123456789abcdef")
		cid := []byte("bafybeigdyrztx6ufesvz2rqfgw4qy5ajn2jbjrl7yvnw3zqvqz6e2xlldi")
		h := polcrypto.Hash(loc, nonce, cid)
		return []diffStep{
			{method: CtorMethodName, args: []Value{BytesValue([]byte("8FQFCX"))}, mustPass: true},
			{method: "register", args: []Value{Uint64Value(7), BytesValue(h[:])}, mustPass: true},
			{method: "register", args: []Value{Uint64Value(7), BytesValue(h[:])}}, // duplicate DID
			{method: "check_in", args: []Value{Uint64Value(7), BytesValue(loc), BytesValue(nonce), BytesValue(cid), BytesValue([]byte("8FQFCXGV+XX"))}, mustPass: true},
			{method: "check_in", args: []Value{Uint64Value(7), BytesValue(loc), BytesValue([]byte("wrong")), BytesValue(cid), BytesValue([]byte("8FQFCXGV+XX"))}}, // commitment mismatch
			{method: "check_in", args: []Value{Uint64Value(7), BytesValue(loc), BytesValue(nonce), BytesValue(cid), BytesValue([]byte("9FXXXXXX+XX"))}},           // outside area
			{method: "check_in", args: []Value{Uint64Value(8), BytesValue(loc), BytesValue(nonce), BytesValue(cid), BytesValue([]byte("8FQFCXGV+XX"))}},           // unknown DID
		}
	case "did-registry":
		anchor := polcrypto.Hash([]byte("did:pol:prover"), []byte("authentication-key"))
		return []diffStep{
			{method: CtorMethodName, mustPass: true},
			{method: "register", args: []Value{Uint64Value(7), BytesValue(anchor[:])}, mustPass: true},
			{method: "register", args: []Value{Uint64Value(7), BytesValue(anchor[:])}}, // DID already anchored
			{method: "register", args: []Value{Uint64Value(8), BytesValue(anchor[:])}, mustPass: true},
		}
	case "area-checkin":
		return []diffStep{
			{method: CtorMethodName, args: []Value{BytesValue([]byte("8FQFCX"))}, mustPass: true},
			{method: "checkin", args: []Value{Uint64Value(1), Uint64Value(1)}, mustPass: true},
			{method: "checkin", args: []Value{Uint64Value(2), Uint64Value(1)}, mustPass: true},
			{method: "checkin", args: []Value{Uint64Value(1), Uint64Value(2)}, mustPass: true}, // overwrites last_seen[1]
		}
	default:
		t.Fatalf("no differential script for contract %q — add one when shipping a new .pol file", name)
		return nil
	}
}

// TestPrecompiledLoweringBitIdentical is the PR's proof obligation: for
// every shipped .pol contract the precompiled lowering is observationally
// identical to the interpreted one on both backends, and the two EVM
// engines agree on the precompiled code.
func TestPrecompiledLoweringBitIdentical(t *testing.T) {
	files, err := filepath.Glob("../../contracts/*.pol")
	if err != nil || len(files) == 0 {
		t.Fatalf("no contracts found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ParseSource(string(src))
			if err != nil {
				t.Fatal(err)
			}
			interp, err := Compile(prog, Options{MaxBytesLen: 512})
			if err != nil {
				t.Fatalf("interpreted compile: %v", err)
			}
			// Re-parse: compilation must not depend on shared AST state.
			prog2, err := ParseSource(string(src))
			if err != nil {
				t.Fatal(err)
			}
			pre, err := Compile(prog2, Options{MaxBytesLen: 512, Precompiles: true})
			if err != nil {
				t.Fatalf("precompiled compile: %v", err)
			}

			steps := diffScript(t, prog.Name)
			rng := chain.NewRand(0x9c07)
			for _, api := range prog.APIs {
				for trial := 0; trial < 6; trial++ {
					args := make([]Value, len(api.Params))
					for i, p := range api.Params {
						args[i] = randValue(rng, p.Type)
					}
					var pay uint64
					if api.Pay != nil {
						pay = uint64(rng.Intn(40))
					}
					steps = append(steps, diffStep{method: api.Name, pay: pay, args: args})
				}
			}

			ei := newDiffEVM(interp.EVMCode, false)
			ep := newDiffEVM(pre.EVMCode, false)
			er := newDiffEVM(pre.EVMCode, true) // big.Int reference engine
			ai := newDiffAVM(interp.TEALProgram)
			ap := newDiffAVM(pre.TEALProgram)

			for i, step := range steps {
				label := fmt.Sprintf("step %d (%s)", i, step.method)
				ri := ei.run(t, interp, step)
				rp := ep.run(t, pre, step)
				rr := er.run(t, pre, step)
				if step.mustPass && (ri.Err != nil || ri.Reverted) {
					t.Fatalf("%s: scripted step reverted on interpreted EVM: %+v", label, ri)
				}
				sameEVMResult(t, label+" [evm interp vs pre]", ri, rp)
				sameEVMResult(t, label+" [evm pre vs ref]", rp, rr)

				ti := ai.run(t, interp, step)
				tp := ap.run(t, pre, step)
				if step.mustPass && !ti.Approved {
					t.Fatalf("%s: scripted step rejected on interpreted AVM: %v", label, ti.Err)
				}
				sameAVMResult(t, label+" [avm interp vs pre]", ti, tp)
			}

			for _, v := range prog.Views {
				label := fmt.Sprintf("view %s", v.Name)
				sameEVMResult(t, label, ei.view(t, v.Name), ep.view(t, v.Name))
				sameAVMResult(t, label, ai.view(t, v.Name), ap.view(t, v.Name))
			}

			sameEVMState(t, ei.state, ep.state)
			sameEVMState(t, ep.state, er.state)
			sameAVMState(t, ai.ledger, ap.ledger)
		})
	}
}
