package evm_test

import (
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
)

// The shipped-contract differential. Every contracts/*.pol program is
// compiled once and driven through a scripted happy path plus randomized
// calls in three universes: the u256 engine, the big.Int reference engine
// (evm.ExecuteRef, test-only) and the AVM. The two EVM engines must agree
// bit for bit — result, gas, refund, return data, logs and final state;
// the AVM must agree with the EVM on accept/reject and on every decoded
// return value. The two chain families differ by design in log format, gas
// and balance accounting, so nothing beyond those is compared across them.

// step is one transaction of a script.
type step struct {
	method   string // lang.CtorMethodName for deployment
	pay      uint64
	ts       uint64 // block timestamp (0 = default 1000)
	args     []lang.Value
	mustPass bool // scripted happy-path steps must not revert
}

var (
	alice    = chain.AddressFromBytes([]byte("alice"))
	contract = chain.AddressFromBytes([]byte("contract"))
)

// params returns the declared parameters and return type of a step's
// method (the constructor returns nothing: TInvalid).
func params(t *testing.T, c *lang.Compiled, method string) ([]lang.Param, lang.Type) {
	t.Helper()
	if method == lang.CtorMethodName {
		return c.Program.Ctor.Params, lang.TInvalid
	}
	api := c.Program.FindAPI(method)
	if api == nil {
		t.Fatalf("no API %q", method)
	}
	return api.Params, api.Returns
}

// evmUniverse is one EVM engine with its own state.
type evmUniverse struct {
	exec  func(evm.Context, []byte) evm.Result
	code  []byte
	state *evm.MemState
}

func newEVMUniverse(exec func(evm.Context, []byte) evm.Result, code []byte) *evmUniverse {
	st := evm.NewMemState()
	st.AddBalance(alice, big.NewInt(1_000_000))
	return &evmUniverse{exec: exec, code: code, state: st}
}

func (u *evmUniverse) call(t *testing.T, c *lang.Compiled, s step) evm.Result {
	t.Helper()
	ps, _ := params(t, c, s.method)
	data, err := lang.EncodeArgsEVM(s.method, ps, s.args)
	if err != nil {
		t.Fatalf("encode %s: %v", s.method, err)
	}
	v := new(big.Int).SetUint64(s.pay)
	if s.pay > 0 {
		u.state.SubBalance(alice, v)
		u.state.AddBalance(contract, v)
	}
	ts := s.ts
	if ts == 0 {
		ts = 1000
	}
	res := u.exec(evm.Context{
		State: u.state, Caller: alice, Address: contract, Value: v,
		CallData: data, GasLimit: 10_000_000, BlockNumber: 1, Timestamp: ts,
	}, u.code)
	if (res.Err != nil || res.Reverted) && s.pay > 0 {
		u.state.AddBalance(alice, v)
		u.state.SubBalance(contract, v)
	}
	return res
}

func (u *evmUniverse) view(t *testing.T, name string) evm.Result {
	t.Helper()
	data, err := lang.EncodeArgsEVM(name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u.exec(evm.Context{
		State: u.state, Caller: alice, Address: contract, Value: new(big.Int),
		CallData: data, GasLimit: 10_000_000, BlockNumber: 1, Timestamp: 1000,
	}, u.code)
}

// avmUniverse is the Algorand side: one app on its own ledger.
type avmUniverse struct {
	prog   *avm.Program
	ledger *avm.MemLedger
	appID  uint64
}

func newAVMUniverse(prog *avm.Program) *avmUniverse {
	u := &avmUniverse{prog: prog, ledger: avm.NewMemLedger(), appID: 7}
	u.ledger.Balances[alice] = 1_000_000
	u.ledger.Balances[u.ledger.AppAddress(u.appID)] = avm.MinBalanceValue
	return u
}

func (u *avmUniverse) call(t *testing.T, c *lang.Compiled, s step) avm.Result {
	t.Helper()
	ps, _ := params(t, c, s.method)
	method, create := s.method, s.method == lang.CtorMethodName
	if create {
		method = ""
	}
	appArgs, err := lang.EncodeArgsTEAL(method, ps, s.args)
	if err != nil {
		t.Fatalf("encode %s: %v", s.method, err)
	}
	u.ledger.Timestamp = s.ts
	if s.ts == 0 {
		u.ledger.Timestamp = 1000
	}
	app := u.ledger.AppAddress(u.appID)
	if s.pay > 0 {
		if err := u.ledger.Pay(alice, app, s.pay); err != nil {
			t.Fatalf("group payment: %v", err)
		}
	}
	res := avm.Execute(u.prog, u.ledger, avm.TxContext{
		Sender: alice, AppID: u.appID, CreateMode: create,
		Args: appArgs, PayAmount: s.pay, BudgetTxns: 8,
	})
	if !res.Approved && s.pay > 0 {
		// A rejected app call voids the whole group, payment included.
		if err := u.ledger.Pay(app, alice, s.pay); err != nil {
			t.Fatalf("unwind payment: %v", err)
		}
	}
	return res
}

func (u *avmUniverse) view(t *testing.T, name string) avm.Result {
	t.Helper()
	appArgs, err := lang.EncodeArgsTEAL("view:"+name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return avm.Execute(u.prog, u.ledger, avm.TxContext{
		Sender: alice, AppID: u.appID, Args: appArgs, BudgetTxns: 8,
	})
}

// sameAcrossFamilies requires the AVM to accept exactly when the EVM does
// and, when both accept a call with a return type, to return the same
// decoded value.
func sameAcrossFamilies(t *testing.T, label string, ret lang.Type, e evm.Result, a avm.Result) {
	t.Helper()
	evmOK := e.Err == nil && !e.Reverted
	if evmOK != a.Approved {
		t.Fatalf("%s: EVM accepted=%v (err=%v revert=%q), AVM accepted=%v (err=%v)",
			label, evmOK, e.Err, e.RevertMsg, a.Approved, a.Err)
	}
	if !evmOK || ret == lang.TInvalid {
		return
	}
	ev, err := lang.DecodeReturnEVM(ret, e.ReturnData)
	if err != nil {
		t.Fatalf("%s: decode EVM return: %v", label, err)
	}
	av, err := lang.DecodeReturnTEAL(ret, a.Return)
	if err != nil {
		t.Fatalf("%s: decode AVM return: %v", label, err)
	}
	if !reflect.DeepEqual(ev, av) {
		t.Fatalf("%s: EVM returned %+v, AVM %+v", label, ev, av)
	}
}

// randValue generates a deterministic random argument of the given type.
func randValue(rng *chain.Rand, ty lang.Type) lang.Value {
	switch ty {
	case lang.TUInt:
		return lang.Uint64Value(uint64(rng.Intn(12)))
	case lang.TBytes:
		b := make([]byte, rng.Intn(48))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return lang.BytesValue(b)
	case lang.TAddress:
		var a [8]byte
		for i := range a {
			a[i] = byte(rng.Intn(256))
		}
		return lang.AddressValue(chain.AddressFromBytes(a[:]))
	default:
		panic("unsupported arg type " + ty.String())
	}
}

// script returns the scripted happy path for a shipped contract; it must
// reach every API's success branch at least once, because randomized calls
// mostly revert.
func script(t *testing.T, name string) []step {
	t.Helper()
	u := lang.Uint64Value
	pos := lang.BytesValue([]byte("8FQFCXGV+"))
	data := lang.BytesValue([]byte("did:pol:prover#loc"))
	wallet := lang.AddressValue(chain.AddressFromBytes([]byte("wallet")))
	witness := lang.AddressValue(chain.AddressFromBytes([]byte("witness")))
	ctor := lang.CtorMethodName
	switch name {
	case "pol-report":
		return []step{
			{method: ctor, args: []lang.Value{pos, u(1), u(10)}, mustPass: true},
			{method: "insert_data", args: []lang.Value{data, u(2)}, mustPass: true},
			{method: "insert_data", args: []lang.Value{data, u(2)}},              // duplicate DID
			{method: "verify", args: []lang.Value{u(2), wallet}, mustPass: true}, // unfunded branch
			{method: "insert_money", pay: 50, args: []lang.Value{u(50)}, mustPass: true},
			{method: "verify", args: []lang.Value{u(2), wallet}, mustPass: true}, // funded branch
			{method: "verify", args: []lang.Value{u(9), wallet}},                 // unknown DID
			{method: "close", mustPass: true},
		}
	case "pol-report-v2":
		return []step{
			{method: ctor, args: []lang.Value{pos, u(1), u(10), u(5), u(2000)}, mustPass: true},
			{method: "insert_data", args: []lang.Value{data, u(2)}, mustPass: true},
			{method: "insert_money", pay: 60, args: []lang.Value{u(60)}, mustPass: true},
			{method: "verify_with_witness", args: []lang.Value{u(2), wallet, witness}, mustPass: true},
			{method: "close_timeout"},                           // not expired yet
			{method: "close_timeout", ts: 3000, mustPass: true}, // past deadline
		}
	case "pol-verify":
		loc := lang.BytesValue([]byte("8FQFCXGV+XX:48.8583,2.2944"))
		nonce := lang.BytesValue([]byte("nonce-0123456789abcdef"))
		cid := lang.BytesValue([]byte("bafybeigdyrztx6ufesvz2rqfgw4qy5ajn2jbjrl7yvnw3zqvqz6e2xlldi"))
		h := polcrypto.Hash(loc.Bytes, nonce.Bytes, cid.Bytes)
		code := lang.BytesValue([]byte("8FQFCXGV+XX"))
		return []step{
			{method: ctor, args: []lang.Value{lang.BytesValue([]byte("8FQFCX"))}, mustPass: true},
			{method: "register", args: []lang.Value{u(7), lang.BytesValue(h[:])}, mustPass: true},
			{method: "register", args: []lang.Value{u(7), lang.BytesValue(h[:])}}, // duplicate DID
			{method: "check_in", args: []lang.Value{u(7), loc, nonce, cid, code}, mustPass: true},
			{method: "check_in", args: []lang.Value{u(7), loc, lang.BytesValue([]byte("wrong")), cid, code}},        // commitment mismatch
			{method: "check_in", args: []lang.Value{u(7), loc, nonce, cid, lang.BytesValue([]byte("9FXXXXXX+XX"))}}, // outside area
			{method: "check_in", args: []lang.Value{u(8), loc, nonce, cid, code}},                                   // unknown DID
		}
	case "did-registry":
		anchor := lang.BytesValue(func() []byte {
			h := polcrypto.Hash([]byte("did:pol:prover"), []byte("authentication-key"))
			return h[:]
		}())
		return []step{
			{method: ctor, mustPass: true},
			{method: "register", args: []lang.Value{u(7), anchor}, mustPass: true},
			{method: "register", args: []lang.Value{u(7), anchor}}, // DID already anchored
			{method: "register", args: []lang.Value{u(8), anchor}, mustPass: true},
		}
	case "area-checkin":
		return []step{
			{method: ctor, args: []lang.Value{lang.BytesValue([]byte("8FQFCX"))}, mustPass: true},
			{method: "checkin", args: []lang.Value{u(1), u(1)}, mustPass: true},
			{method: "checkin", args: []lang.Value{u(2), u(1)}, mustPass: true},
			{method: "checkin", args: []lang.Value{u(1), u(2)}, mustPass: true}, // overwrites last_seen[1]
		}
	default:
		t.Fatalf("no script for contract %q — add one when shipping a new .pol file", name)
		return nil
	}
}

// TestShippedContractsAcrossEngines: for every shipped .pol contract the
// u256 engine is bit-identical to the big.Int reference, and the AVM
// accepts, rejects and returns exactly what the EVM does.
func TestShippedContractsAcrossEngines(t *testing.T) {
	files, err := filepath.Glob("../../contracts/*.pol")
	if err != nil || len(files) == 0 {
		t.Fatalf("no contracts found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.ParseSource(string(src))
			if err != nil {
				t.Fatal(err)
			}
			c, err := lang.Compile(prog, lang.Options{MaxBytesLen: 512})
			if err != nil {
				t.Fatal(err)
			}

			steps := script(t, prog.Name)
			rng := chain.NewRand(0x9c07)
			for _, api := range prog.APIs {
				for trial := 0; trial < 6; trial++ {
					args := make([]lang.Value, len(api.Params))
					for i, p := range api.Params {
						args[i] = randValue(rng, p.Type)
					}
					var pay uint64
					if api.Pay != nil {
						pay = uint64(rng.Intn(40))
					}
					steps = append(steps, step{method: api.Name, pay: pay, args: args})
				}
			}

			fast := newEVMUniverse(evm.Execute, c.EVMCode)
			ref := newEVMUniverse(evm.ExecuteRef, c.EVMCode)
			alg := newAVMUniverse(c.TEALProgram)
			for i, s := range steps {
				label := fmt.Sprintf("step %d (%s)", i, s.method)
				rf, rr := fast.call(t, c, s), ref.call(t, c, s)
				if s.mustPass && (rf.Err != nil || rf.Reverted) {
					t.Fatalf("%s: scripted step reverted on the EVM: %+v", label, rf)
				}
				if !evm.ResultsEqual(rf, rr) {
					t.Fatalf("%s: u256 and reference engines differ:\nu256: %+v\nref:  %+v", label, rf, rr)
				}
				_, ret := params(t, c, s.method)
				sameAcrossFamilies(t, label, ret, rf, alg.call(t, c, s))
			}
			for _, v := range prog.Views {
				label := "view " + v.Name
				rf, rr := fast.view(t, v.Name), ref.view(t, v.Name)
				if !evm.ResultsEqual(rf, rr) {
					t.Fatalf("%s: u256 and reference engines differ:\nu256: %+v\nref:  %+v", label, rf, rr)
				}
				sameAcrossFamilies(t, label, v.Type, rf, alg.view(t, v.Name))
			}
			if !evm.MemStatesEqual(fast.state, ref.state) {
				t.Fatal("final EVM state differs between the u256 and reference engines")
			}
		})
	}
}
