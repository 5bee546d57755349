// Package vmbench measures interpreter throughput on the workload the
// evaluation chapter actually times: deploying the PoL contract and
// attaching a user (one insert_data Invoke). The EVM workload runs on both
// engines — the u256 fast path (evm.Execute) and the retained big.Int
// reference (evm.ExecuteRef) — so a Report carries a measured
// before/after rather than a remembered number. The AVM workload has no
// big.Int baseline (it always computed on uint64); its record tracks the
// pooled machine's ns/op and allocs/op. bench/'s traced pass reads the
// evm.* and avm.* probes from Run.
package vmbench

import (
	"flag"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"testing"

	"agnopol/contracts"
	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/evm"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
)

// Engine is one engine's measurement of a workload.
type Engine struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Workload is one benchmark with its per-engine results. NsImprovement and
// AllocsReduction are bigint/u256 ratios (higher is better), present only
// when both engines ran.
type Workload struct {
	Name            string  `json:"name"`
	U256            *Engine `json:"u256,omitempty"`
	BigInt          *Engine `json:"bigint_ref,omitempty"`
	NsImprovement   float64 `json:"ns_improvement,omitempty"`
	AllocsReduction float64 `json:"allocs_reduction,omitempty"`
}

// Report is one Run's record.
type Report struct {
	Benchtime  string     `json:"benchtime"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Workloads  []Workload `json:"workloads"`
	// Headline numbers for the EVM deploy+attach workload — the metric the
	// perf acceptance gate reads.
	DeployAttachNsImprovement   float64 `json:"evm_deploy_attach_ns_improvement"`
	DeployAttachAllocsReduction float64 `json:"evm_deploy_attach_allocs_reduction"`
	// Headline precompile speedups: interpreted ns/op over precompiled
	// ns/op for the proof-verification workload (DESIGN.md §14), per VM.
	EVMProofVerifyNsImprovement float64 `json:"evm_proof_verify_precompile_ns_improvement"`
	AVMProofVerifyNsImprovement float64 `json:"avm_proof_verify_precompile_ns_improvement"`
}

func (r *Report) String() string {
	s := fmt.Sprintf("VM microbenchmarks (benchtime %s, GOMAXPROCS %d)\n", r.Benchtime, r.GOMAXPROCS)
	for _, w := range r.Workloads {
		s += fmt.Sprintf("  %-24s", w.Name)
		if w.U256 != nil {
			s += fmt.Sprintf("  u256 %12.0f ns/op %6d allocs/op", w.U256.NsPerOp, w.U256.AllocsPerOp)
		}
		if w.BigInt != nil {
			s += fmt.Sprintf("  bigint %12.0f ns/op %6d allocs/op  (%.1fx ns, %.1fx allocs)",
				w.BigInt.NsPerOp, w.BigInt.AllocsPerOp, w.NsImprovement, w.AllocsReduction)
		}
		s += "\n"
	}
	return s
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

// Run compiles the PoL contract, sanity-checks both engines agree on the
// workload, and measures it. benchtime is a testing -benchtime value
// ("1s", "100x", …); "1x" gives a compile-and-run smoke for CI. A
// non-empty filter restricts the run to workloads whose name contains it
// ("proof_verify" gives the precompile smoke); headline ratios are only
// populated when their workloads ran.
func Run(benchtime, filter string) (*Report, error) {
	keep := func(name string) bool {
		return filter == "" || strings.Contains(name, filter)
	}

	testingInitOnce.Do(testing.Init)
	if err := setBenchtime(benchtime); err != nil {
		return nil, err
	}

	rep := &Report{Benchtime: benchtime, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	if keep("evm_deploy_attach") || keep("avm_deploy_attach") {
		compiled, err := core.CompilePoL()
		if err != nil {
			return nil, fmt.Errorf("vmbench: compile: %w", err)
		}
		if keep("evm_deploy_attach") {
			w, err := newEVMWorkload(compiled)
			if err != nil {
				return nil, err
			}
			fast := measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.run(evm.Execute)
				}
			})
			ref := measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.run(evm.ExecuteRef)
				}
			})
			da := Workload{Name: "evm_deploy_attach", U256: &fast, BigInt: &ref}
			da.NsImprovement = ratio(ref.NsPerOp, fast.NsPerOp)
			da.AllocsReduction = ratio(float64(ref.AllocsPerOp), float64(fast.AllocsPerOp))
			rep.Workloads = append(rep.Workloads, da)
			rep.DeployAttachNsImprovement = da.NsImprovement
			rep.DeployAttachAllocsReduction = da.AllocsReduction
		}
		if keep("avm_deploy_attach") {
			aw, err := newAVMWorkload(compiled)
			if err != nil {
				return nil, err
			}
			am := measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					aw.run()
				}
			})
			rep.Workloads = append(rep.Workloads, Workload{Name: "avm_deploy_attach", U256: &am})
		}
	}

	if err := addProofVerify(rep, keep); err != nil {
		return nil, err
	}
	return rep, nil
}

// addProofVerify measures the proof-verification hot path — one check_in of
// the pol-verify contract against pre-seeded state — compiled with the
// interpreted lowering and with precompiles, on both VMs. The headline
// ratios are what the precompile PR buys: interpreted ns/op over
// precompiled ns/op on the same engine.
func addProofVerify(rep *Report, keep func(string) bool) error {
	names := []string{
		"evm_proof_verify_interp", "evm_proof_verify_precompile",
		"avm_proof_verify_interp", "avm_proof_verify_precompile",
	}
	wanted := false
	for _, n := range names {
		if keep(n) {
			wanted = true
		}
	}
	if !wanted {
		return nil
	}
	prog, err := lang.ParseSource(contracts.PoLVerify)
	if err != nil {
		return fmt.Errorf("vmbench: parse pol-verify: %w", err)
	}
	interp, err := lang.Compile(prog, lang.Options{MaxBytesLen: 512})
	if err != nil {
		return fmt.Errorf("vmbench: compile pol-verify (interpreted): %w", err)
	}
	pre, err := core.CompileVerify()
	if err != nil {
		return fmt.Errorf("vmbench: %w", err)
	}

	measureEVM := func(c *lang.Compiled, name string) (Workload, error) {
		w, err := newPVEVMWorkload(c)
		if err != nil {
			return Workload{}, err
		}
		fast := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.run(evm.Execute)
			}
		})
		ref := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.run(evm.ExecuteRef)
			}
		})
		wl := Workload{Name: name, U256: &fast, BigInt: &ref}
		wl.NsImprovement = ratio(ref.NsPerOp, fast.NsPerOp)
		wl.AllocsReduction = ratio(float64(ref.AllocsPerOp), float64(fast.AllocsPerOp))
		return wl, nil
	}
	var ei, ep Workload
	if keep(names[0]) {
		if ei, err = measureEVM(interp, names[0]); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, ei)
	}
	if keep(names[1]) {
		if ep, err = measureEVM(pre, names[1]); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, ep)
	}
	if ei.U256 != nil && ep.U256 != nil {
		rep.EVMProofVerifyNsImprovement = ratio(ei.U256.NsPerOp, ep.U256.NsPerOp)
	}

	measureAVM := func(c *lang.Compiled, name string) (Workload, error) {
		w, err := newPVAVMWorkload(c)
		if err != nil {
			return Workload{}, err
		}
		m := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.run()
			}
		})
		return Workload{Name: name, U256: &m}, nil
	}
	var ai, ap Workload
	if keep(names[2]) {
		if ai, err = measureAVM(interp, names[2]); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, ai)
	}
	if keep(names[3]) {
		if ap, err = measureAVM(pre, names[3]); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, ap)
	}
	if ai.U256 != nil && ap.U256 != nil {
		rep.AVMProofVerifyNsImprovement = ratio(ai.U256.NsPerOp, ap.U256.NsPerOp)
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
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

// evmWorkload is the deploy+attach Invoke pair against a fresh world state
// per iteration — the VM cycles behind one Table 5.1 sample.
type evmWorkload struct {
	code     []byte
	ctorData []byte
	callData []byte
	self     chain.Address
	from     chain.Address
}

func newEVMWorkload(compiled *lang.Compiled) (*evmWorkload, error) {
	ctorData, err := lang.EncodeArgsEVM(lang.CtorMethodName, compiled.Program.Ctor.Params,
		[]lang.Value{
			lang.BytesValue([]byte("45.4642,9.1900")), // position
			lang.Uint64Value(1),                       // did
			lang.Uint64Value(100),                     // rewardPerProver
		})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode ctor: %w", err)
	}
	var insertParams []lang.Param
	for _, api := range compiled.Program.APIs {
		if api.Name == "insert_data" {
			insertParams = api.Params
		}
	}
	callData, err := lang.EncodeArgsEVM("insert_data", insertParams,
		[]lang.Value{
			lang.BytesValue([]byte("proof-cid-0123456789abcdef")),
			lang.Uint64Value(7),
		})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode insert_data: %w", err)
	}
	w := &evmWorkload{
		code:     compiled.EVMCode,
		ctorData: ctorData,
		callData: callData,
		self:     chain.AddressFromBytes([]byte("vmbench-contract")),
		from:     chain.AddressFromBytes([]byte("vmbench-caller")),
	}
	// Sanity on both engines before anything is timed.
	for _, exec := range []func(evm.Context, []byte) evm.Result{evm.Execute, evm.ExecuteRef} {
		if deploy, attach := w.run(exec); deploy.Err != nil || deploy.Reverted ||
			attach.Err != nil || attach.Reverted {
			return nil, fmt.Errorf("vmbench: workload sanity: deploy=%+v attach=%+v", deploy, attach)
		}
	}
	return w, nil
}

func (w *evmWorkload) run(exec func(evm.Context, []byte) evm.Result) (deploy, attach evm.Result) {
	st := evm.NewMemState()
	st.AddBalance(w.from, big.NewInt(1_000_000))
	ctx := evm.Context{
		State: st, Caller: w.from, Address: w.self,
		GasLimit: 10_000_000, BlockNumber: 1, Timestamp: 1000,
	}
	ctx.CallData = w.ctorData
	deploy = exec(ctx, w.code)
	ctx.CallData = w.callData
	attach = exec(ctx, w.code)
	return deploy, attach
}

// avmWorkload is the same pair on the Algorand VM.
type avmWorkload struct {
	prog       *avm.Program
	ctorArgs   [][]byte
	insertArgs [][]byte
	sender     chain.Address
}

func newAVMWorkload(compiled *lang.Compiled) (*avmWorkload, error) {
	ctorArgs, err := lang.EncodeArgsTEAL("", compiled.Program.Ctor.Params,
		[]lang.Value{
			lang.BytesValue([]byte("45.4642,9.1900")),
			lang.Uint64Value(1),
			lang.Uint64Value(100),
		})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode teal ctor: %w", err)
	}
	var insertParams []lang.Param
	for _, api := range compiled.Program.APIs {
		if api.Name == "insert_data" {
			insertParams = api.Params
		}
	}
	insertArgs, err := lang.EncodeArgsTEAL("insert_data", insertParams,
		[]lang.Value{
			lang.BytesValue([]byte("proof-cid-0123456789abcdef")),
			lang.Uint64Value(7),
		})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode teal insert_data: %w", err)
	}
	w := &avmWorkload{
		prog:       compiled.TEALProgram,
		ctorArgs:   ctorArgs,
		insertArgs: insertArgs,
		sender:     chain.AddressFromBytes([]byte("vmbench-sender")),
	}
	if create, call := w.run(); create.Err != nil || !create.Approved ||
		call.Err != nil || !call.Approved {
		return nil, fmt.Errorf("vmbench: avm workload sanity: create=%+v call=%+v", create, call)
	}
	return w, nil
}

func (w *avmWorkload) run() (create, call avm.Result) {
	led := avm.NewMemLedger()
	create = avm.Execute(w.prog, led, avm.TxContext{
		Sender: w.sender, AppID: 7, CreateMode: true, Args: w.ctorArgs, BudgetTxns: 4,
	})
	call = avm.Execute(w.prog, led, avm.TxContext{
		Sender: w.sender, AppID: 7, Args: w.insertArgs, BudgetTxns: 4,
	})
	return create, call
}

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

func pvCommitment() []byte {
	h := polcrypto.Hash(pvLoc, pvNonce, pvCid)
	return h[:]
}

func pvAPI(compiled *lang.Compiled, name string) []lang.Param {
	for _, api := range compiled.Program.APIs {
		if api.Name == name {
			return api.Params
		}
	}
	return nil
}

// pvEVMWorkload times one check_in Invoke against pre-seeded state (area
// stored, DID registered); the per-iteration work is exactly the
// verification hot path: digest-over-concat, commitment compare, cell
// containment.
type pvEVMWorkload struct {
	code     []byte
	callData []byte
	state    *evm.MemState
	self     chain.Address
	from     chain.Address
}

func newPVEVMWorkload(compiled *lang.Compiled) (*pvEVMWorkload, error) {
	w := &pvEVMWorkload{
		code: compiled.EVMCode,
		self: chain.AddressFromBytes([]byte("vmbench-verify")),
		from: chain.AddressFromBytes([]byte("vmbench-caller")),
	}
	w.state = evm.NewMemState()
	seed := func(method string, params []lang.Param, args []lang.Value) error {
		data, err := lang.EncodeArgsEVM(method, params, args)
		if err != nil {
			return fmt.Errorf("vmbench: encode %s: %w", method, err)
		}
		res := evm.Execute(evm.Context{
			State: w.state, Caller: w.from, Address: w.self,
			CallData: data, GasLimit: 10_000_000, BlockNumber: 1, Timestamp: 1000,
		}, w.code)
		if res.Err != nil || res.Reverted {
			return fmt.Errorf("vmbench: seed %s: %+v", method, res)
		}
		return nil
	}
	if err := seed(lang.CtorMethodName, compiled.Program.Ctor.Params,
		[]lang.Value{lang.BytesValue(pvArea)}); err != nil {
		return nil, err
	}
	if err := seed("register", pvAPI(compiled, "register"),
		[]lang.Value{lang.Uint64Value(7), lang.BytesValue(pvCommitment())}); err != nil {
		return nil, err
	}
	var err error
	w.callData, err = lang.EncodeArgsEVM("check_in", pvAPI(compiled, "check_in"),
		[]lang.Value{
			lang.Uint64Value(7), lang.BytesValue(pvLoc), lang.BytesValue(pvNonce),
			lang.BytesValue(pvCid), lang.BytesValue(pvCode),
		})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode check_in: %w", err)
	}
	for _, exec := range []func(evm.Context, []byte) evm.Result{evm.Execute, evm.ExecuteRef} {
		if res := w.run(exec); res.Err != nil || res.Reverted {
			return nil, fmt.Errorf("vmbench: check_in sanity: %+v", res)
		}
	}
	return w, nil
}

func (w *pvEVMWorkload) run(exec func(evm.Context, []byte) evm.Result) evm.Result {
	return exec(evm.Context{
		State: w.state, Caller: w.from, Address: w.self,
		CallData: w.callData, GasLimit: 10_000_000, BlockNumber: 1, Timestamp: 1000,
	}, w.code)
}

// pvAVMWorkload is the same single check_in on the Algorand VM.
type pvAVMWorkload struct {
	prog     *avm.Program
	callArgs [][]byte
	ledger   *avm.MemLedger
	sender   chain.Address
}

func newPVAVMWorkload(compiled *lang.Compiled) (*pvAVMWorkload, error) {
	w := &pvAVMWorkload{
		prog:   compiled.TEALProgram,
		ledger: avm.NewMemLedger(),
		sender: chain.AddressFromBytes([]byte("vmbench-sender")),
	}
	ctorArgs, err := lang.EncodeArgsTEAL("", compiled.Program.Ctor.Params,
		[]lang.Value{lang.BytesValue(pvArea)})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode teal ctor: %w", err)
	}
	if res := avm.Execute(w.prog, w.ledger, avm.TxContext{
		Sender: w.sender, AppID: 7, CreateMode: true, Args: ctorArgs, BudgetTxns: 4,
	}); res.Err != nil || !res.Approved {
		return nil, fmt.Errorf("vmbench: teal ctor: %+v", res)
	}
	regArgs, err := lang.EncodeArgsTEAL("register", pvAPI(compiled, "register"),
		[]lang.Value{lang.Uint64Value(7), lang.BytesValue(pvCommitment())})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode teal register: %w", err)
	}
	if res := avm.Execute(w.prog, w.ledger, avm.TxContext{
		Sender: w.sender, AppID: 7, Args: regArgs, BudgetTxns: 4,
	}); res.Err != nil || !res.Approved {
		return nil, fmt.Errorf("vmbench: teal register: %+v", res)
	}
	w.callArgs, err = lang.EncodeArgsTEAL("check_in", pvAPI(compiled, "check_in"),
		[]lang.Value{
			lang.Uint64Value(7), lang.BytesValue(pvLoc), lang.BytesValue(pvNonce),
			lang.BytesValue(pvCid), lang.BytesValue(pvCode),
		})
	if err != nil {
		return nil, fmt.Errorf("vmbench: encode teal check_in: %w", err)
	}
	if res := w.run(); res.Err != nil || !res.Approved {
		return nil, fmt.Errorf("vmbench: teal check_in sanity: %+v", res)
	}
	return w, nil
}

func (w *pvAVMWorkload) run() avm.Result {
	return avm.Execute(w.prog, w.ledger, avm.TxContext{
		Sender: w.sender, AppID: 7, Args: w.callArgs, BudgetTxns: 4,
	})
}
