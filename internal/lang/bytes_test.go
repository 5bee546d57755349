package lang

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/polcrypto"
)

// manyParts is digest17's operand list: the argument then 16 constants, one
// more ++ operand than a precompile descriptor holds, so the digest takes
// the concatenate-then-hash fallback.
var manyParts = func() []Expr {
	parts := []Expr{A(0)}
	for i := 1; len(parts) <= maxDescriptorRanges; i++ {
		parts = append(parts, Bs(fmt.Sprintf("-%d", i)))
	}
	return parts
}()

// bytesProgram exercises the byte-string machinery both backends must get
// right: long constants (> one EVM word), constants holding `//` (TEAL's
// comment marker), empty strings, concatenation, digests, equality, storage
// round trips.
func bytesProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("bytes")
	p.DeclareGlobal("blob", TBytes)
	p.DeclareMap("m", TUInt, TBytes)
	p.SetConstructor(nil)
	p.AddAPI(&API{
		Name: "store", Params: []Param{{Name: "k", Type: TUInt}, {Name: "v", Type: TBytes}},
		Returns: TUInt,
		Body: []Stmt{
			&MapSet{Map: "m", Key: A(0), Value: A(1)},
			&SetGlobal{Name: "blob", Value: Concat(Bs("hdr:"), A(1))},
			&Return{Value: U(1)},
		},
	})
	p.AddAPI(&API{
		Name: "load", Params: []Param{{Name: "k", Type: TUInt}}, Returns: TBytes,
		Body: []Stmt{
			&Assume{Cond: &MapHas{Map: "m", Key: A(0)}, Msg: "present"},
			&Return{Value: &MapGet{Map: "m", Key: A(0)}},
		},
	})
	p.AddAPI(&API{
		Name: "longconst", Params: []Param{}, Returns: TBytes,
		Body: []Stmt{
			&Return{Value: Bs(strings.Repeat("agnopol!", 13))}, // 104 bytes
		},
	})
	p.AddAPI(&API{
		Name: "uri", Params: []Param{}, Returns: TBytes,
		Body: []Stmt{
			&Return{Value: Bs("ipfs://bafy")},
		},
	})
	p.AddAPI(&API{
		Name: "empty", Params: []Param{}, Returns: TBytes,
		Body: []Stmt{
			&Return{Value: Concat(Bs(""), Bs(""))},
		},
	})
	p.AddAPI(&API{
		Name: "eqcheck", Params: []Param{{Name: "a", Type: TBytes}, {Name: "b", Type: TBytes}},
		Returns: TBool,
		Body: []Stmt{
			&Return{Value: Eq(A(0), A(1))},
		},
	})
	p.AddAPI(&API{
		Name: "necheck", Params: []Param{{Name: "a", Type: TBytes}, {Name: "b", Type: TBytes}},
		Returns: TBool,
		Body: []Stmt{
			&Return{Value: &Bin{Op: OpNe, A: A(0), B: A(1)}},
		},
	})
	p.AddAPI(&API{
		Name: "digest", Params: []Param{{Name: "a", Type: TBytes}}, Returns: TBytes,
		Body: []Stmt{
			&Return{Value: &Digest{A: A(0)}},
		},
	})
	joined := manyParts[0]
	for _, part := range manyParts[1:] {
		joined = Concat(joined, part)
	}
	p.AddAPI(&API{
		Name: "digest17", Params: []Param{{Name: "a", Type: TBytes}}, Returns: TBytes,
		Body: []Stmt{
			&Return{Value: &Digest{A: joined}},
		},
	})
	p.AddView("getBlob", TBytes, G("blob"))
	return p
}

// backendRunner abstracts the two execution paths for this test.
type backendRunner interface {
	call(t *testing.T, method string, args ...Value) (Value, bool)
	view(t *testing.T, name string) Value
}

type evmRunner struct {
	h *evmHarness
	c *Compiled
}

func (r *evmRunner) call(t *testing.T, method string, args ...Value) (Value, bool) {
	t.Helper()
	var params []Param
	if method == CtorMethodName {
		params = r.c.Program.Ctor.Params
	} else {
		params = r.c.Program.FindAPI(method).Params
	}
	res := r.h.call(method, params, 0, args...)
	if res.Err != nil || res.Reverted {
		return Value{}, false
	}
	if method == CtorMethodName {
		return Value{}, true
	}
	out, err := DecodeReturnEVM(r.c.Program.FindAPI(method).Returns, res.ReturnData)
	if err != nil {
		t.Fatalf("decode %s: %v", method, err)
	}
	return out, true
}

func (r *evmRunner) view(t *testing.T, name string) Value {
	t.Helper()
	data, err := EncodeArgsEVM(name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the harness state through a read-only execution.
	res := r.h.call(name, nil, 0)
	_ = data
	if res.Err != nil || res.Reverted {
		t.Fatalf("view %s failed: %+v", name, res)
	}
	v, ok := r.c.Program.FindView(name)
	if !ok {
		t.Fatalf("no view %s", name)
	}
	out, err := DecodeReturnEVM(v.Type, res.ReturnData)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type tealRunner struct {
	c      *Compiled
	ledger *avm.MemLedger
	appID  uint64
	sender chain.Address
}

func (r *tealRunner) exec(t *testing.T, method string, create bool, args ...Value) (Value, bool) {
	t.Helper()
	var params []Param
	var retType Type
	name := method
	switch {
	case create:
		params = r.c.Program.Ctor.Params
		name = ""
	case strings.HasPrefix(method, "view:"):
		v, ok := r.c.Program.FindView(strings.TrimPrefix(method, "view:"))
		if !ok {
			t.Fatalf("no view %s", method)
		}
		retType = v.Type
	default:
		api := r.c.Program.FindAPI(method)
		params = api.Params
		retType = api.Returns
	}
	appArgs, err := EncodeArgsTEAL(name, params, args)
	if err != nil {
		t.Fatal(err)
	}
	res := avm.Execute(r.c.TEALProgram, r.ledger, avm.TxContext{
		Sender: r.sender, AppID: r.appID, CreateMode: create, Args: appArgs, BudgetTxns: 8,
	})
	if !res.Approved {
		return Value{}, false
	}
	if create {
		return Value{}, true
	}
	out, err := DecodeReturnTEAL(retType, res.Return)
	if err != nil {
		t.Fatalf("decode %s: %v", method, err)
	}
	return out, true
}

func (r *tealRunner) call(t *testing.T, method string, args ...Value) (Value, bool) {
	return r.exec(t, method, method == CtorMethodName, args...)
}

func (r *tealRunner) view(t *testing.T, name string) Value {
	v, ok := r.exec(t, "view:"+name, false)
	if !ok {
		t.Fatalf("view %s rejected", name)
	}
	return v
}

func TestBytesSemanticsBothBackends(t *testing.T) {
	compiled, err := Compile(bytesProgram(t), Options{MaxBytesLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	long := []byte(strings.Repeat("agnopol!", 13))
	payload := bytes.Repeat([]byte{0x41, 0x42, 0x43}, 50) // 150 bytes

	runners := map[string]backendRunner{}
	evmH := newEVMHarness(t, compiled)
	runners["evm"] = &evmRunner{h: evmH, c: compiled}
	led := avm.NewMemLedger()
	sender := chain.AddressFromBytes([]byte("s"))
	led.Balances[sender] = 1e6
	runners["teal"] = &tealRunner{c: compiled, ledger: led, appID: 7, sender: sender}

	for name, r := range runners {
		t.Run(name, func(t *testing.T) {
			if _, ok := r.call(t, CtorMethodName); !ok {
				t.Fatal("ctor failed")
			}
			if _, ok := r.call(t, "store", Uint64Value(1), BytesValue(payload)); !ok {
				t.Fatal("store failed")
			}
			got, ok := r.call(t, "load", Uint64Value(1))
			if !ok || !bytes.Equal(got.Bytes, payload) {
				t.Fatalf("load = %d bytes, ok=%v", len(got.Bytes), ok)
			}
			blob := r.view(t, "getBlob")
			if want := append([]byte("hdr:"), payload...); !bytes.Equal(blob.Bytes, want) {
				t.Fatalf("blob = %.20q… (%d bytes), want %d bytes", blob.Bytes, len(blob.Bytes), len(want))
			}
			lc, ok := r.call(t, "longconst")
			if !ok || !bytes.Equal(lc.Bytes, long) {
				t.Fatalf("longconst = %d bytes", len(lc.Bytes))
			}
			uri, ok := r.call(t, "uri")
			if !ok || string(uri.Bytes) != "ipfs://bafy" {
				t.Fatalf("uri = %q, want %q", uri.Bytes, "ipfs://bafy")
			}
			empty, ok := r.call(t, "empty")
			if !ok || len(empty.Bytes) != 0 {
				t.Fatalf("empty = %q", empty.Bytes)
			}
			eq, ok := r.call(t, "eqcheck", BytesValue([]byte("same")), BytesValue([]byte("same")))
			if !ok || !eq.Bool {
				t.Fatal("equal bytes compared unequal")
			}
			ne, ok := r.call(t, "eqcheck", BytesValue([]byte("same")), BytesValue([]byte("diff")))
			if !ok || ne.Bool {
				t.Fatal("different bytes compared equal")
			}
			for _, c := range []struct {
				a, b string
				want bool
			}{{"same", "same", false}, {"same", "diff", true}, {"same", "sam", true}} {
				ne, ok := r.call(t, "necheck", BytesValue([]byte(c.a)), BytesValue([]byte(c.b)))
				if !ok || ne.Bool != c.want {
					t.Fatalf("%q != %q = %v (ok=%v), want %v", c.a, c.b, ne.Bool, ok, c.want)
				}
			}
			d, ok := r.call(t, "digest", BytesValue([]byte("hash me")))
			if want := polcrypto.Hash([]byte("hash me")); !ok || !bytes.Equal(d.Bytes, want[:]) {
				t.Fatalf("digest = %x, want %x", d.Bytes, want)
			}
			arg := []byte("first part")
			parts := [][]byte{arg}
			for _, e := range manyParts[1:] {
				parts = append(parts, e.(*Const).Bytes)
			}
			d, ok = r.call(t, "digest17", BytesValue(arg))
			if want := polcrypto.Hash(parts...); !ok || !bytes.Equal(d.Bytes, want[:]) {
				t.Fatalf("digest over %d parts = %x, want %x", len(parts), d.Bytes, want)
			}
		})
	}

	// Digests agree across backends (same hash function on both).
	evmD, _ := runners["evm"].call(t, "digest", BytesValue([]byte("cross")))
	tealD, _ := runners["teal"].call(t, "digest", BytesValue([]byte("cross")))
	if !bytes.Equal(evmD.Bytes, tealD.Bytes) {
		t.Fatal("digest differs between backends")
	}
}
