// Package vmbench times the two contract calls the evaluation chapter
// prices, on the engines the chains ship: deploying the PoL contract and
// attaching a user (one insert_data Invoke), and one check_in of
// contracts/pol-verify.pol against pre-seeded state (the precompiled
// proof-verification hot path, DESIGN.md §14), each on the u256 EVM
// engine and on the pooled AVM. bench/'s traced pass reads the four rows
// of Run as its evm.* and avm.* probes.
package vmbench

import (
	"flag"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/evm"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
)

// Engine is one workload's measurement.
type Engine struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Workload is one row of a Report. U256 holds the measurement of the EVM
// rows' u256 engine and of the AVM rows' pooled machine alike (the field
// keeps the name bench/ reads).
type Workload struct {
	Name string  `json:"name"`
	U256 *Engine `json:"u256,omitempty"`
}

// Report is one Run's record.
type Report struct {
	Benchtime  string     `json:"benchtime"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Workloads  []Workload `json:"workloads"`
}

// workloads are Run's rows in report order: the contract each compiles and
// the builder that seeds its state, sanity-checks one run and returns the
// operation to time.
var workloads = []struct {
	name    string
	compile func() (*lang.Compiled, error)
	build   func(*lang.Compiled) (func(), error)
}{
	{"evm_deploy_attach", core.CompilePoL, newEVMWorkload},
	{"avm_deploy_attach", core.CompilePoL, newAVMWorkload},
	{"evm_proof_verify_precompile", core.CompileVerify, newPVEVMWorkload},
	{"avm_proof_verify_precompile", core.CompileVerify, newPVAVMWorkload},
}

var testingInitOnce sync.Once

// setBenchtime routes the requested duration/count into the testing
// package, which only reads it from its registered flag.
func setBenchtime(v string) error {
	if err := flag.Set("test.benchtime", v); err != nil {
		return fmt.Errorf("vmbench: bad benchtime %q: %w", v, err)
	}
	return nil
}

// Run measures every workload whose name contains filter ("" keeps all).
// benchtime is a testing -benchtime value ("1s", "100x", …); "1x" gives a
// compile-and-run smoke.
func Run(benchtime, filter string) (*Report, error) {
	testingInitOnce.Do(testing.Init)
	if err := setBenchtime(benchtime); err != nil {
		return nil, err
	}
	rep := &Report{Benchtime: benchtime, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, w := range workloads {
		if !strings.Contains(w.name, filter) {
			continue
		}
		compiled, err := w.compile()
		if err != nil {
			return nil, fmt.Errorf("vmbench: %s: %w", w.name, err)
		}
		op, err := w.build(compiled)
		if err != nil {
			return nil, err
		}
		m := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		rep.Workloads = append(rep.Workloads, Workload{Name: w.name, U256: &m})
	}
	return rep, nil
}

func measure(fn func(*testing.B)) Engine {
	r := testing.Benchmark(fn)
	nsPerOp := 0.0
	allocs, bytesOp := int64(0), int64(0)
	if r.N > 0 {
		nsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
		allocs = int64(r.MemAllocs) / int64(r.N)
		bytesOp = int64(r.MemBytes) / int64(r.N)
	}
	return Engine{NsPerOp: nsPerOp, AllocsPerOp: allocs, BytesPerOp: bytesOp, Iterations: r.N}
}

// newEVMWorkload is the deploy+attach Invoke pair against a fresh world
// state per iteration — the VM cycles behind one Table 5.1 sample.
func newEVMWorkload(compiled *lang.Compiled) (func(), error) {
	ctorData, err := lang.EncodeArgsEVM(lang.CtorMethodName, compiled.Program.Ctor.Params, daCtorArgs)
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode ctor: %w", err)
	}
	callData, err := lang.EncodeArgsEVM("insert_data", compiled.Program.FindAPI("insert_data").Params, daInsertArgs)
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode insert_data: %w", err)
	}
	self := chain.AddressFromBytes([]byte("vmbench-contract"))
	from := chain.AddressFromBytes([]byte("vmbench-caller"))
	run := func() (deploy, attach evm.Result) {
		st := evm.NewMemState()
		st.AddBalance(from, big.NewInt(1_000_000))
		ctx := evm.Context{
			State: st, Caller: from, Address: self,
			GasLimit: 10_000_000, BlockNumber: 1, Timestamp: 1000,
		}
		ctx.CallData = ctorData
		deploy = evm.Execute(ctx, compiled.EVMCode)
		ctx.CallData = callData
		attach = evm.Execute(ctx, compiled.EVMCode)
		return deploy, attach
	}
	if deploy, attach := run(); deploy.Err != nil || deploy.Reverted || attach.Err != nil || attach.Reverted {
		return nil, fmt.Errorf("vmbench: workload sanity: deploy=%+v attach=%+v", deploy, attach)
	}
	return func() { run() }, nil
}

// newAVMWorkload is the same pair on the Algorand VM.
func newAVMWorkload(compiled *lang.Compiled) (func(), error) {
	ctorArgs, err := lang.EncodeArgsTEAL("", compiled.Program.Ctor.Params, daCtorArgs)
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode teal ctor: %w", err)
	}
	insertArgs, err := lang.EncodeArgsTEAL("insert_data", compiled.Program.FindAPI("insert_data").Params, daInsertArgs)
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode teal insert_data: %w", err)
	}
	sender := chain.AddressFromBytes([]byte("vmbench-sender"))
	run := func() (create, call avm.Result) {
		led := avm.NewMemLedger()
		create = avm.Execute(compiled.TEALProgram, led, avm.TxContext{
			Sender: sender, AppID: 7, CreateMode: true, Args: ctorArgs, BudgetTxns: 4,
		})
		call = avm.Execute(compiled.TEALProgram, led, avm.TxContext{
			Sender: sender, AppID: 7, Args: insertArgs, BudgetTxns: 4,
		})
		return create, call
	}
	if create, call := run(); create.Err != nil || !create.Approved || call.Err != nil || !call.Approved {
		return nil, fmt.Errorf("vmbench: avm workload sanity: create=%+v call=%+v", create, call)
	}
	return func() { run() }, nil
}

// Deploy+attach arguments: the position, DID and per-prover reward of the
// constructor, then one insert_data.
var (
	daCtorArgs = []lang.Value{
		lang.BytesValue([]byte("45.4642,9.1900")), // position
		lang.Uint64Value(1),                       // did
		lang.Uint64Value(100),                     // rewardPerProver
	}
	daInsertArgs = []lang.Value{
		lang.BytesValue([]byte("proof-cid-0123456789abcdef")),
		lang.Uint64Value(7),
	}
)

// Proof-verification payloads, sized like the protocol's real inputs: a
// 32-byte location fix, a 64-byte nonce and a ~256-byte IPFS CID record,
// committed as sha256(loc ++ nonce ++ cid).
var (
	pvArea  = []byte("8FQFCX")
	pvCode  = []byte("8FQFCXGV+XX")
	pvLoc   = bytesOf('L', 32)
	pvNonce = bytesOf('N', 64)
	pvCid   = bytesOf('C', 512)
)

func bytesOf(c byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return b
}

// pvStep is one call of the proof-verification workloads.
type pvStep struct {
	method string
	args   []lang.Value
}

// pvSteps deploys with the area cell and registers the commitment, then
// checks in; each step runs once as a sanity check, and the last is the
// operation timed.
func pvSteps() []pvStep {
	h := polcrypto.Hash(pvLoc, pvNonce, pvCid)
	return []pvStep{
		{lang.CtorMethodName, []lang.Value{lang.BytesValue(pvArea)}},
		{"register", []lang.Value{lang.Uint64Value(7), lang.BytesValue(h[:])}},
		{"check_in", []lang.Value{
			lang.Uint64Value(7), lang.BytesValue(pvLoc), lang.BytesValue(pvNonce),
			lang.BytesValue(pvCid), lang.BytesValue(pvCode),
		}},
	}
}

// newPVEVMWorkload times one check_in Invoke against pre-seeded state (area
// stored, DID registered); the per-iteration work is exactly the
// verification hot path: digest-over-concat, commitment compare, cell
// containment.
func newPVEVMWorkload(compiled *lang.Compiled) (func(), error) {
	state := evm.NewMemState()
	self := chain.AddressFromBytes([]byte("vmbench-verify"))
	from := chain.AddressFromBytes([]byte("vmbench-caller"))
	call := func(method string, args []lang.Value) (func() evm.Result, error) {
		params := compiled.Program.Ctor.Params
		if method != lang.CtorMethodName {
			params = compiled.Program.FindAPI(method).Params
		}
		data, err := lang.EncodeArgsEVM(method, params, args)
		if err != nil {
			return nil, fmt.Errorf("vmbench: encode %s: %w", method, err)
		}
		return func() evm.Result {
			return evm.Execute(evm.Context{
				State: state, Caller: from, Address: self,
				CallData: data, GasLimit: 10_000_000, BlockNumber: 1, Timestamp: 1000,
			}, compiled.EVMCode)
		}, nil
	}
	var op func() evm.Result
	for _, c := range pvSteps() {
		var err error
		if op, err = call(c.method, c.args); err != nil {
			return nil, err
		}
		if res := op(); res.Err != nil || res.Reverted {
			return nil, fmt.Errorf("vmbench: %s sanity: %+v", c.method, res)
		}
	}
	return func() { op() }, nil
}

// newPVAVMWorkload is the same single check_in on the Algorand VM.
func newPVAVMWorkload(compiled *lang.Compiled) (func(), error) {
	ledger := avm.NewMemLedger()
	sender := chain.AddressFromBytes([]byte("vmbench-sender"))
	call := func(method string, args []lang.Value) (func() avm.Result, error) {
		params, name := compiled.Program.Ctor.Params, ""
		if method != lang.CtorMethodName {
			params, name = compiled.Program.FindAPI(method).Params, method
		}
		appArgs, err := lang.EncodeArgsTEAL(name, params, args)
		if err != nil {
			return nil, fmt.Errorf("vmbench: encode teal %s: %w", method, err)
		}
		return func() avm.Result {
			return avm.Execute(compiled.TEALProgram, ledger, avm.TxContext{
				Sender: sender, AppID: 7, CreateMode: name == "", Args: appArgs, BudgetTxns: 4,
			})
		}, nil
	}
	var op func() avm.Result
	for _, c := range pvSteps() {
		var err error
		if op, err = call(c.method, c.args); err != nil {
			return nil, err
		}
		if res := op(); res.Err != nil || !res.Approved {
			return nil, fmt.Errorf("vmbench: teal %s sanity: %+v", c.method, res)
		}
	}
	return func() { op() }, nil
}
