package lang

import (
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

// TestAnalysisIsUpperBoundEVM: the conservative analysis must dominate the
// gas actually consumed by executions within the declared Bytes bound —
// that is what "conservative" means in Fig. 5.1.
func TestAnalysisIsUpperBoundEVM(t *testing.T) {
	c, err := Compile(counterProgram(t), Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MethodCost{}
	for _, m := range c.Analysis.Methods {
		byName[m.Name] = m
	}

	h := newEVMHarness(t, c)
	big512 := make([]byte, 512)
	for i := range big512 {
		big512[i] = byte(i%250) + 1
	}

	type call struct {
		method string
		params []Param
		value  uint64
		args   []Value
	}
	ctor := call{CtorMethodName, c.Program.Ctor.Params, 0, []Value{Uint64Value(5), BytesValue(big512)}}
	calls := []call{
		{"bump", c.Program.FindAPI("bump").Params, 0, []Value{Uint64Value(3)}},
		{"put", c.Program.FindAPI("put").Params, 0, []Value{Uint64Value(9), BytesValue(big512)}},
		{"get", c.Program.FindAPI("get").Params, 0, []Value{Uint64Value(9)}},
		{"fund", c.Program.FindAPI("fund").Params, 25, []Value{Uint64Value(25)}},
	}

	res := h.call(ctor.method, ctor.params, ctor.value, ctor.args...)
	if res.Err != nil || res.Reverted {
		t.Fatalf("ctor failed: %+v", res)
	}
	ctorCost := byName["ctor"]
	if res.GasUsed > ctorCost.EVMGas {
		t.Fatalf("ctor used %d gas, analysis bound %d", res.GasUsed, ctorCost.EVMGas)
	}

	for _, cl := range calls {
		res := h.call(cl.method, cl.params, cl.value, cl.args...)
		if res.Err != nil || res.Reverted {
			t.Fatalf("%s failed: %+v", cl.method, res)
		}
		bound := byName[cl.method].EVMGas
		if res.GasUsed > bound {
			t.Fatalf("%s used %d gas, analysis bound %d", cl.method, res.GasUsed, bound)
		}
	}
}

// TestAnalysisIsUpperBoundAVM: same property for the TEAL backend's opcode
// budget.
func TestAnalysisIsUpperBoundAVM(t *testing.T) {
	c, err := Compile(counterProgram(t), Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MethodCost{}
	for _, m := range c.Analysis.Methods {
		byName[m.Name] = m
	}
	led := avm.NewMemLedger()
	sender := chain.AddressFromBytes([]byte("s"))
	led.Balances[sender] = 1_000_000
	led.Balances[led.AppAddress(7)] = avm.MinBalanceValue

	ctorArgs, err := EncodeArgsTEAL("", c.Program.Ctor.Params, []Value{Uint64Value(5), BytesValue([]byte("note"))})
	if err != nil {
		t.Fatal(err)
	}
	res := avm.Execute(c.TEALProgram, led, avm.TxContext{Sender: sender, AppID: 7, CreateMode: true, Args: ctorArgs, BudgetTxns: 4})
	if !res.Approved {
		t.Fatalf("ctor rejected: %v", res.Err)
	}
	if res.Cost > byName["ctor"].AVMCost {
		t.Fatalf("ctor cost %d, bound %d", res.Cost, byName["ctor"].AVMCost)
	}

	bump := c.Program.FindAPI("bump")
	args, err := EncodeArgsTEAL("bump", bump.Params, []Value{Uint64Value(3)})
	if err != nil {
		t.Fatal(err)
	}
	res = avm.Execute(c.TEALProgram, led, avm.TxContext{Sender: sender, AppID: 7, Args: args, BudgetTxns: 4})
	if !res.Approved {
		t.Fatalf("bump rejected: %v", res.Err)
	}
	if res.Cost > byName["bump"].AVMCost {
		t.Fatalf("bump cost %d, bound %d", res.Cost, byName["bump"].AVMCost)
	}
}

func TestAnalysisDeployGasCoversActualDeployment(t *testing.T) {
	c, err := Compile(counterProgram(t), Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct what the chain charges: intrinsic over code+ctor
	// calldata, deposit, plus ctor execution.
	ctorData, err := EncodeArgsEVM(CtorMethodName, c.Program.Ctor.Params,
		[]Value{Uint64Value(5), BytesValue(make([]byte, 512))})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(append([]byte{0, 0, 0, 0}, c.EVMCode...), ctorData...)
	intrinsic := evm.IntrinsicGas(payload, true)
	deposit := uint64(len(c.EVMCode)) * evm.GasCodeDeposit

	st := evm.NewMemState()
	res := evm.Execute(evm.Context{
		State: st, Caller: chain.AddressFromBytes([]byte("d")),
		Address:  chain.AddressFromBytes([]byte("c")),
		CallData: ctorData, GasLimit: 10_000_000,
	}, c.EVMCode)
	if res.Err != nil || res.Reverted {
		t.Fatalf("ctor exec failed: %+v", res)
	}
	actual := intrinsic + deposit + res.GasUsed
	if actual > c.Analysis.EVMDeployGas {
		t.Fatalf("actual deploy gas %d exceeds analysis %d", actual, c.Analysis.EVMDeployGas)
	}
}

func TestAnalysisStringOutput(t *testing.T) {
	c, err := Compile(counterProgram(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Analysis.String()
	for _, want := range []string{"Conservative analysis", "ctor", "bump", "view"} {
		if !containsStr(s, want) {
			t.Fatalf("analysis output missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
