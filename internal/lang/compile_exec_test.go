package lang

import (
	"errors"
	"math/big"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/u256"
)

// counterProgram is a small contract exercising globals, maps (uint and
// bytes values), assumes, transfers, emits and views on both backends.
func counterProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("counter")
	p.DeclareGlobal("count", TUInt)
	p.DeclareGlobal("note", TBytes)
	p.DeclareMap("data", TUInt, TBytes)
	p.DeclareMap("scores", TUInt, TUInt)
	p.SetConstructor(
		[]Param{{Name: "start", Type: TUInt}, {Name: "note", Type: TBytes}},
		&SetGlobal{Name: "count", Value: A(0)},
		&SetGlobal{Name: "note", Value: A(1)},
	)
	p.AddAPI(&API{
		Name:    "bump",
		Params:  []Param{{Name: "by", Type: TUInt}},
		Returns: TUInt,
		Body: []Stmt{
			&Assume{Cond: Gt(A(0), U(0)), Msg: "by > 0"},
			&SetGlobal{Name: "count", Value: Add(G("count"), A(0))},
			&Return{Value: G("count")},
		},
	})
	p.AddAPI(&API{
		Name:    "put",
		Params:  []Param{{Name: "k", Type: TUInt}, {Name: "v", Type: TBytes}},
		Returns: TBool,
		Body: []Stmt{
			&Assume{Cond: &Not{A: &MapHas{Map: "data", Key: A(0)}}, Msg: "fresh key"},
			&MapSet{Map: "data", Key: A(0), Value: A(1)},
			&MapSet{Map: "scores", Key: A(0), Value: U(7)},
			&Return{Value: True},
		},
	})
	p.AddAPI(&API{
		Name:    "get",
		Params:  []Param{{Name: "k", Type: TUInt}},
		Returns: TBytes,
		Body: []Stmt{
			&Assume{Cond: &MapHas{Map: "data", Key: A(0)}, Msg: "key present"},
			&Return{Value: Concat(Bs("v="), &MapGet{Map: "data", Key: A(0)})},
		},
	})
	p.AddAPI(&API{
		Name:    "fund",
		Params:  []Param{{Name: "amount", Type: TUInt}},
		Returns: TUInt,
		Pay:     A(0),
		Body: []Stmt{
			&Assume{Cond: Gt(A(0), U(0)), Msg: "positive deposit"},
			&Return{Value: &Balance{}},
		},
	})
	p.AddAPI(&API{
		Name:    "payout",
		Params:  []Param{{Name: "to", Type: TAddress}},
		Returns: TUInt,
		Body: []Stmt{
			&If{
				Cond: Ge(&Balance{}, U(10)),
				Then: []Stmt{
					&Transfer{Amount: U(10), To: A(0)},
					&Emit{Event: "paid", Value: U(10)},
					&Return{Value: U(10)},
				},
				Else: []Stmt{&Return{Value: U(0)}},
			},
		},
	})
	p.AddAPI(&API{
		Name:    "close",
		Params:  []Param{{Name: "to", Type: TAddress}},
		Returns: TUInt,
		Body: []Stmt{
			&Transfer{Amount: &Balance{}, To: A(0)},
			&Return{Value: U(1)},
		},
	})
	p.AddView("getCount", TUInt, G("count"))
	p.AddView("getNote", TBytes, G("note"))
	return p
}

func compileCounter(t *testing.T) *Compiled {
	t.Helper()
	c, err := Compile(counterProgram(t), Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// evmHarness drives compiled EVM code the way the chain simulator will.
type evmHarness struct {
	t     *testing.T
	code  []byte
	state *evm.MemState
	self  chain.Address
	from  chain.Address
}

func newEVMHarness(t *testing.T, c *Compiled) *evmHarness {
	t.Helper()
	h := &evmHarness{
		t:     t,
		code:  c.EVMCode,
		state: evm.NewMemState(),
		self:  chain.AddressFromBytes([]byte("contract")),
		from:  chain.AddressFromBytes([]byte("alice")),
	}
	h.state.AddBalance(h.from, u256.FromUint64(1_000_000))
	return h
}

func (h *evmHarness) call(method string, params []Param, value uint64, args ...Value) evm.Result {
	h.t.Helper()
	data, err := EncodeArgsEVM(method, params, args)
	if err != nil {
		h.t.Fatalf("encode %s: %v", method, err)
	}
	v := u256.FromUint64(value)
	if value > 0 {
		h.state.SubBalance(h.from, v)
		h.state.AddBalance(h.self, v)
	}
	res := evm.Execute(evm.Context{
		State: h.state, Caller: h.from, Address: h.self,
		Value: v, CallData: data, GasLimit: 10_000_000,
		Timestamp: 1000,
	}, h.code)
	if (res.Err != nil || res.Reverted) && value > 0 {
		h.state.AddBalance(h.from, v)
		h.state.SubBalance(h.self, v)
	}
	return res
}

func TestEVMBackendEndToEnd(t *testing.T) {
	c := compileCounter(t)
	h := newEVMHarness(t, c)
	ctorParams := c.Program.Ctor.Params

	res := h.call(CtorMethodName, ctorParams, 0, Uint64Value(5), BytesValue([]byte("hello world, this is a longer note spanning multiple words")))
	if res.Err != nil || res.Reverted {
		t.Fatalf("ctor failed: %+v", res)
	}
	deployGas := res.GasUsed
	if deployGas == 0 {
		t.Fatal("ctor consumed no gas")
	}

	// Second deploy must be rejected.
	res = h.call(CtorMethodName, ctorParams, 0, Uint64Value(5), BytesValue([]byte("x")))
	if !res.Reverted && res.Err == nil {
		t.Fatal("second ctor should revert")
	}

	bump := c.Program.FindAPI("bump")
	res = h.call("bump", bump.Params, 0, Uint64Value(3))
	if res.Err != nil || res.Reverted {
		t.Fatalf("bump failed: %+v", res)
	}
	got, err := DecodeReturnEVM(TUInt, res.ReturnData)
	if err != nil || got.Uint != 8 {
		t.Fatalf("bump returned %v (err %v), want 8", got, err)
	}

	// Assume violation reverts.
	res = h.call("bump", bump.Params, 0, Uint64Value(0))
	if !res.Reverted && res.Err == nil {
		t.Fatal("bump(0) should revert on assume")
	}

	put := c.Program.FindAPI("put")
	payload := []byte("proofHash-signedProof-0xwallet-nonce42-bafyCID0123456789")
	res = h.call("put", put.Params, 0, Uint64Value(99), BytesValue(payload))
	if res.Err != nil || res.Reverted {
		t.Fatalf("put failed: %+v", res)
	}
	// Duplicate key rejected.
	res = h.call("put", put.Params, 0, Uint64Value(99), BytesValue(payload))
	if !res.Reverted && res.Err == nil {
		t.Fatal("duplicate put should revert")
	}

	get := c.Program.FindAPI("get")
	res = h.call("get", get.Params, 0, Uint64Value(99))
	if res.Err != nil || res.Reverted {
		t.Fatalf("get failed: %+v", res)
	}
	want := "v=" + string(payload)
	if string(res.ReturnData) != want {
		t.Fatalf("get returned %q, want %q", res.ReturnData, want)
	}

	fund := c.Program.FindAPI("fund")
	res = h.call("fund", fund.Params, 25, Uint64Value(25))
	if res.Err != nil || res.Reverted {
		t.Fatalf("fund failed: %+v", res)
	}
	bal, err := DecodeReturnEVM(TUInt, res.ReturnData)
	if err != nil || bal.Uint != 25 {
		t.Fatalf("fund returned balance %v, want 25", bal)
	}
	// Paying a different amount than declared reverts.
	res = h.call("fund", fund.Params, 7, Uint64Value(25))
	if !res.Reverted && res.Err == nil {
		t.Fatal("fund with mismatched value should revert")
	}

	payout := c.Program.FindAPI("payout")
	var bob [20]byte
	copy(bob[:], []byte("bob-0000000000000000"))
	res = h.call("payout", payout.Params, 0, AddressValue(bob))
	if res.Err != nil || res.Reverted {
		t.Fatalf("payout failed: %+v", res)
	}
	v, _ := DecodeReturnEVM(TUInt, res.ReturnData)
	if v.Uint != 10 {
		t.Fatalf("payout returned %d, want 10", v.Uint)
	}
	if got := h.state.GetBalance(chain.Address(bob)).Uint64(); got != 10 {
		t.Fatalf("bob balance %d, want 10", got)
	}
	if len(res.Logs) != 1 {
		t.Fatalf("payout should emit 1 log, got %d", len(res.Logs))
	}

	closeAPI := c.Program.FindAPI("close")
	res = h.call("close", closeAPI.Params, 0, AddressValue(bob))
	if res.Err != nil || res.Reverted {
		t.Fatalf("close failed: %+v", res)
	}
	if got := h.state.GetBalance(h.self).Uint64(); got != 0 {
		t.Fatalf("contract balance %d after close, want 0", got)
	}

	// Views.
	viewData, _ := EncodeArgsEVM("getCount", nil, nil)
	vres := evm.Execute(evm.Context{
		State: h.state, Caller: h.from, Address: h.self,
		CallData: viewData, GasLimit: 1_000_000,
	}, h.code)
	if vres.Err != nil || vres.Reverted {
		t.Fatalf("view failed: %+v", vres)
	}
	cv, _ := DecodeReturnEVM(TUInt, vres.ReturnData)
	if cv.Uint != 8 {
		t.Fatalf("getCount view = %d, want 8", cv.Uint)
	}
}

// tealHarness drives the compiled TEAL the way the Algorand simulator will.
type tealHarness struct {
	t      *testing.T
	c      *Compiled
	ledger *avm.MemLedger
	appID  uint64
	sender chain.Address
}

func newTEALHarness(t *testing.T, c *Compiled) *tealHarness {
	t.Helper()
	h := &tealHarness{
		t: t, c: c,
		ledger: avm.NewMemLedger(),
		appID:  7,
		sender: chain.AddressFromBytes([]byte("alice")),
	}
	h.ledger.Balances[h.sender] = 1_000_000
	// The app escrow keeps the network minimum balance, which the
	// compiled balance() reads net of (the connector funds this at
	// deployment).
	h.ledger.Balances[h.ledger.AppAddress(h.appID)] = avm.MinBalanceValue
	return h
}

func (h *tealHarness) call(method string, params []Param, pay uint64, args ...Value) avm.Result {
	h.t.Helper()
	var appArgs [][]byte
	var err error
	if method == CtorMethodName {
		appArgs, err = EncodeArgsTEAL("", params, args)
	} else {
		appArgs, err = EncodeArgsTEAL(method, params, args)
	}
	if err != nil {
		h.t.Fatalf("encode %s: %v", method, err)
	}
	appID := h.appID
	if method == CtorMethodName {
		appID = 0 // creation call
	}
	if pay > 0 {
		if err := h.ledger.Pay(h.sender, h.ledger.AppAddress(h.appID), pay); err != nil {
			h.t.Fatalf("group payment: %v", err)
		}
	}
	res := avm.Execute(h.c.TEALProgram, h.ledger, avm.TxContext{
		Sender: h.sender, AppID: appID, Args: appArgs,
		PayAmount: pay, BudgetTxns: 2,
	})
	// Creation executes under AppID 0 in `txn ApplicationID` but state
	// writes must target the real app; our generated constructor only
	// writes via app_global_put with AppID from context, so re-run is not
	// needed — the simulator passes the allocated ID. Mirror that here.
	return res
}

func TestTEALBackendEndToEnd(t *testing.T) {
	c := compileCounter(t)
	h := newTEALHarness(t, c)

	// Creation: AppID must be 0 for the create path but writes must land
	// on the allocated app. The real simulator allocates the ID before
	// executing; emulate by running creation with the allocated ID but
	// OnCompletion create semantics. Our generated code branches on
	// ApplicationID==0, so run it with AppID 0 and then move the state.
	ctorArgs, err := EncodeArgsTEAL("", c.Program.Ctor.Params,
		[]Value{Uint64Value(5), BytesValue([]byte("note"))})
	if err != nil {
		t.Fatal(err)
	}
	res := avm.Execute(c.TEALProgram, h.ledger, avm.TxContext{
		Sender: h.sender, AppID: 0, Args: ctorArgs, BudgetTxns: 2,
	})
	if !res.Approved {
		t.Fatalf("creation rejected: %v", res.Err)
	}
	// Move creation-time state from app 0 to the allocated ID, as the
	// chain simulator does.
	h.ledger.Globals[h.appID] = h.ledger.Globals[0]
	delete(h.ledger.Globals, 0)

	bump := c.Program.FindAPI("bump")
	r := h.call("bump", bump.Params, 0, Uint64Value(3))
	if !r.Approved {
		t.Fatalf("bump rejected: %v", r.Err)
	}
	got, err := DecodeReturnTEAL(TUInt, r.Return)
	if err != nil || got.Uint != 8 {
		t.Fatalf("bump returned %v (err %v), want 8", got, err)
	}

	r = h.call("bump", bump.Params, 0, Uint64Value(0))
	if r.Approved {
		t.Fatal("bump(0) should be rejected")
	}

	put := c.Program.FindAPI("put")
	payload := []byte("proof-data")
	r = h.call("put", put.Params, 0, Uint64Value(99), BytesValue(payload))
	if !r.Approved {
		t.Fatalf("put rejected: %v", r.Err)
	}
	r = h.call("put", put.Params, 0, Uint64Value(99), BytesValue(payload))
	if r.Approved {
		t.Fatal("duplicate put should be rejected")
	}

	get := c.Program.FindAPI("get")
	r = h.call("get", get.Params, 0, Uint64Value(99))
	if !r.Approved {
		t.Fatalf("get rejected: %v", r.Err)
	}
	if string(r.Return) != "v="+string(payload) {
		t.Fatalf("get returned %q", r.Return)
	}

	fund := c.Program.FindAPI("fund")
	r = h.call("fund", fund.Params, 25, Uint64Value(25))
	if !r.Approved {
		t.Fatalf("fund rejected: %v", r.Err)
	}
	bal, _ := DecodeReturnTEAL(TUInt, r.Return)
	if bal.Uint != 25 {
		t.Fatalf("fund returned balance %d, want 25", bal.Uint)
	}
	r = h.call("fund", fund.Params, 7, Uint64Value(25))
	if r.Approved {
		t.Fatal("mismatched payment should be rejected")
	}

	payout := c.Program.FindAPI("payout")
	var bob [20]byte
	copy(bob[:], []byte("bob"))
	r = h.call("payout", payout.Params, 0, AddressValue(bob))
	if !r.Approved {
		t.Fatalf("payout rejected: %v", r.Err)
	}
	if got := h.ledger.Balances[chain.Address(bob)]; got != 10 {
		t.Fatalf("bob balance %d, want 10", got)
	}

	closeAPI := c.Program.FindAPI("close")
	r = h.call("close", closeAPI.Params, 0, AddressValue(bob))
	if !r.Approved {
		t.Fatalf("close rejected: %v", r.Err)
	}
	if got := h.ledger.Balances[h.ledger.AppAddress(h.appID)]; got != avm.MinBalanceValue {
		t.Fatalf("app balance %d after close, want the locked minimum %d", got, avm.MinBalanceValue)
	}

	// View via simulation.
	viewArgs, _ := EncodeArgsTEAL("view:getCount", nil, nil)
	r = avm.Execute(c.TEALProgram, h.ledger, avm.TxContext{
		Sender: h.sender, AppID: h.appID, Args: viewArgs, BudgetTxns: 2,
	})
	if !r.Approved {
		t.Fatalf("view rejected: %v", r.Err)
	}
	cv, _ := DecodeReturnTEAL(TUInt, r.Return)
	if cv.Uint != 8 {
		t.Fatalf("getCount view = %d, want 8", cv.Uint)
	}
}

// TestDecodeReturnEVMRefusesWideUInt: a UInt return word is read as its low
// eight bytes only when the other 24 are zero; a word of 2^64 or more is an
// ErrReturnOverflow, never its low 64 bits.
func TestDecodeReturnEVMRefusesWideUInt(t *testing.T) {
	word := func(v *big.Int) []byte { return v.FillBytes(make([]byte, 32)) }
	one := big.NewInt(1)
	for _, tc := range []struct {
		name string
		word []byte
		want uint64
		err  error
	}{
		{"2^64-1", word(new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)), 1<<64 - 1, nil},
		{"2^64", word(new(big.Int).Lsh(one, 64)), 0, ErrReturnOverflow},
		{"2^256-1", word(new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)), 0, ErrReturnOverflow},
	} {
		v, err := DecodeReturnEVM(TUInt, tc.word)
		if !errors.Is(err, tc.err) || (err == nil && v.Uint != tc.want) {
			t.Errorf("%s: got %d, %v; want %d, %v", tc.name, v.Uint, err, tc.want, tc.err)
		}
	}
}
