package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/geo"
	"agnopol/internal/lang"
	"agnopol/internal/olc"
)

const (
	// witnessPool is how many witnesses the CA knows. VerifyProver scans the
	// whole list, so a fixed pool keeps the per-proof cost stationary however
	// many areas a world runs.
	witnessPool = 64
	// lifecycleAreasEVM and lifecycleAreasAlgorand size one world (areas of
	// core.MaxUsers proofs each) at about 2.5 s of window on the 2-core
	// reference host, so a run fits four worlds.
	lifecycleAreasEVM      = 125
	lifecycleAreasAlgorand = 25
)

// tracedConnector records a span around each call that crosses the
// connector boundary. It embeds the interface and overrides only the calls
// the proof pipeline makes, so a change to the rest of core.Connector does
// not touch it.
type tracedConnector struct {
	core.Connector
	rec *recorder
}

func (t *tracedConnector) Deploy(acct *core.Account, compiled *lang.Compiled, args []lang.Value) (*core.Handle, *core.OpResult, error) {
	defer t.rec.end(t.rec.begin("connector.deploy"))
	return t.Connector.Deploy(acct, compiled, args)
}

func (t *tracedConnector) Invoke(acct *core.Account, h *core.Handle, api string, opts core.CallOpts, args ...lang.Value) (lang.Value, *core.OpResult, error) {
	defer t.rec.end(t.rec.begin("connector.invoke_" + api))
	return t.Connector.Invoke(acct, h, api, opts, args...)
}

func (t *tracedConnector) ReadMap(h *core.Handle, mapName string, key uint64) (lang.Value, bool, error) {
	defer t.rec.end(t.rec.begin("connector.read"))
	return t.Connector.ReadMap(h, mapName, key)
}

func (t *tracedConnector) ReadGlobal(h *core.Handle, name string) (lang.Value, error) {
	defer t.rec.end(t.rec.begin("connector.read"))
	return t.Connector.ReadGlobal(h, name)
}

func (t *tracedConnector) View(h *core.Handle, name string) (lang.Value, error) {
	defer t.rec.end(t.rec.begin("connector.read"))
	return t.Connector.View(h, name)
}

// proofFlipper is the faultFlipProof decorator: it corrupts one byte of the
// staged proof of the at-th insert_data call, which the verifier must then
// reject.
type proofFlipper struct {
	core.Connector
	at, seen int
}

func (f *proofFlipper) Invoke(acct *core.Account, h *core.Handle, api string, opts core.CallOpts, args ...lang.Value) (lang.Value, *core.OpResult, error) {
	if api == "insert_data" {
		if f.seen == f.at {
			data := slices.Clone(args[0].Bytes)
			data[len(data)/2] ^= 0x01
			args = append([]lang.Value{lang.BytesValue(data)}, args[1:]...)
		}
		f.seen++
	}
	return f.Connector.Invoke(acct, h, api, opts, args...)
}

// lifecycleInputs are the generated inputs of one lifecycle world: where the
// areas are and what each prover reports. They depend on the seed only.
type lifecycleInputs struct {
	centers []geo.LatLng   // OLC cell centre of each area
	provers [][]geo.LatLng // position of each prover, within the cell
	reports [][]core.Report
	parking geo.LatLng // where unused witnesses wait, far from every area
}

func newLifecycleInputs(seed uint64, areas int) (*lifecycleInputs, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	origin := geo.LatLng{Lat: 40 + 6*rng.Float64(), Lng: 8 + 6*rng.Float64()}
	categories := []string{"water-pollution", "air-quality", "noise", "waste", "road-damage"}
	in := &lifecycleInputs{parking: geo.Offset(origin, -5000, -5000)}
	for g := 0; g < areas; g++ {
		// A 200 m grid: cells of different areas never share an OLC code and
		// their witnesses are out of each other's Bluetooth range.
		at := geo.Offset(origin, float64(g/32)*200, float64(g%32)*200)
		code, err := olc.Encode(at.Lat, at.Lng, olc.DefaultCodeLength)
		if err != nil {
			return nil, err
		}
		cell, err := olc.Decode(code)
		if err != nil {
			return nil, err
		}
		lat, lng := cell.Center()
		center := geo.LatLng{Lat: lat, Lng: lng}
		in.centers = append(in.centers, center)
		var pos []geo.LatLng
		var reps []core.Report
		for k := 0; k < core.MaxUsers; k++ {
			// ±2 m keeps every prover inside the ~14 m cell and within
			// range of the witness standing at its centre.
			pos = append(pos, geo.Offset(center, 4*rng.Float64()-2, 4*rng.Float64()-2))
			reps = append(reps, core.Report{
				Title:       fmt.Sprintf("report-%d-%d", g, k),
				Description: strings.Repeat("x", 40+rng.Intn(160)),
				Category:    categories[rng.Intn(len(categories))],
				OLC:         code,
			})
		}
		in.provers = append(in.provers, pos)
		in.reports = append(in.reports, reps)
	}
	return in, nil
}

// lifecycle is one world of a lifecycle workload.
type lifecycle struct {
	cfg    worldConfig
	res    *worldResult
	sys    *core.System
	conn   core.Connector // what the actors call: traced and fault-wrapped
	raw    core.Connector // what the checks read through
	reward uint64

	verifier  *core.Verifier
	witnesses []*core.Witness
	in        *lifecycleInputs

	opFees *big.Int // Σ OpResult.Fee over the window, base units
}

// runLifecycle runs one world of lifecycle_evm or lifecycle_algorand: a
// warm-up area, then `areas` areas of core.MaxUsers full proof lifecycles.
func runLifecycle(family string, cfg worldConfig) (*worldResult, error) {
	// The proof pipeline runs on the calling goroutine: one busy core.
	l := &lifecycle{cfg: cfg, res: newWorldResult(1), opFees: new(big.Int)}
	l.res.setup.start()
	var head func() uint64
	var digest, root func() chain.Hash32
	var areas int
	switch family {
	case "evm":
		c := eth.NewChain(eth.Goerli(), cfg.seed)
		l.raw, l.reward = core.NewEVMConnector(c), 1e15
		head = func() uint64 { return c.Head().Number }
		digest, root = c.Digest, c.StateRoot
		areas = scaled(lifecycleAreasEVM, cfg.scale, 2)
	case "algorand":
		c := algorand.NewChain(algorand.Testnet(), cfg.seed)
		l.raw, l.reward = core.NewAlgorandConnector(c), 100_000
		head = func() uint64 { return c.Head().Round }
		digest, root = c.Digest, c.StateRoot
		areas = scaled(lifecycleAreasAlgorand, cfg.scale, 2)
	default:
		return nil, fmt.Errorf("bench: unknown chain family %q", family)
	}
	l.conn = l.raw
	if cfg.fault == faultFlipProof {
		// Index 0..3 are the warm-up area's proofs; corrupt a measured one.
		l.conn = &proofFlipper{Connector: l.conn, at: core.MaxUsers + 2}
	}

	var err error
	if l.sys, err = core.NewSystem(cfg.seed); err != nil {
		return nil, err
	}
	if l.in, err = newLifecycleInputs(cfg.seed, areas+1); err != nil {
		return nil, err
	}
	if l.verifier, err = core.NewVerifier(l.sys); err != nil {
		return nil, err
	}
	verifierAcct, err := l.verifier.EnsureAccount(l.conn, 1000)
	if err != nil {
		return nil, err
	}
	for i := 0; i < witnessPool; i++ {
		w, err := core.NewWitness(l.sys, geo.Offset(l.in.parking, float64(i)*100, 0))
		if err != nil {
			return nil, err
		}
		l.witnesses = append(l.witnesses, w)
	}
	provers := make([][]*core.Prover, areas+1)
	for g := range provers {
		for k := 0; k < core.MaxUsers; k++ {
			p, err := core.NewProver(l.sys, l.in.provers[g][k])
			if err != nil {
				return nil, err
			}
			if _, err := p.EnsureAccount(l.conn, 10); err != nil {
				return nil, err
			}
			provers[g] = append(provers[g], p)
		}
	}
	// Warm-up: area 0 runs the whole pipeline once, untraced and unmeasured.
	// The set-up clock laps before it, so construction and warm-up are each
	// divided by the host slowdown probed around them.
	l.res.setup.lap()
	warm := *l
	warm.res, warm.opFees = newWorldResult(1), new(big.Int)
	warm.cfg.rec = nil
	warm.runArea(0, provers[0])
	if warm.res.failed() > 0 {
		return nil, fmt.Errorf("bench: lifecycle warm-up failed: %v", warm.res.failures)
	}
	if cfg.rec != nil {
		l.conn = &tracedConnector{Connector: l.conn, rec: cfg.rec}
	}
	l.res.setup.stop()

	// wallets sums what the window's accounts hold: the measured provers
	// and the verifier.
	wallets := func() *big.Int {
		sum := new(big.Int).Set(l.raw.Balance(verifierAcct).Base)
		for _, group := range provers[1:] {
			for _, p := range group {
				acct, _ := p.Account(l.raw)
				sum.Add(sum, l.raw.Balance(acct).Base)
			}
		}
		return sum
	}
	funded := wallets()
	headStart, simStart := head(), l.raw.Now()

	// One timed section per area, so a host probe sits between every two.
	runtime.GC()
	for g := 1; g <= areas; g++ {
		l.res.window.start()
		walls := l.runArea(g, provers[g])
		_, slow := l.res.window.stop()
		for k, d := range walls {
			l.res.addOp((g-1)*core.MaxUsers+k, d, slow)
		}
	}

	l.res.simSeconds = (l.raw.Now() - simStart).Seconds()
	l.res.counts["blocks"] = float64(head() - headStart)
	l.res.digest, l.res.stateRoot = digest(), root()

	// Fee identity: what the window's accounts lost, net of the rewards that
	// moved between them and of the escrow deposits still locked in the
	// contracts, is exactly the fees the operations reported.
	paid := new(big.Int).Sub(funded, wallets())
	paid.Sub(paid, new(big.Int).SetUint64(uint64(areas)*l.raw.EscrowFunding()))
	if l.res.failed() == 0 && paid.Cmp(l.opFees) != 0 {
		l.res.failAll("fee identity: accounts paid %v, operations reported %v", paid, l.opFees)
	}
	l.res.feeEUR = chain.NewAmount(paid, l.raw.Unit()).Euros()

	l.res.liveHeap = liveHeap()
	runtime.KeepAlive(l)
	runtime.KeepAlive(provers)
	return l.res, nil
}

// runArea takes the provers of one area through the full lifecycle. The
// first prover deploys the area contract and the verifier funds it; the
// others attach. Each prover is one operation; the wall time of each is
// returned.
func (l *lifecycle) runArea(g int, provers []*core.Prover) (walls []time.Duration) {
	rec := l.cfg.rec
	witness := l.witnesses[g%witnessPool]
	witness.Device.MoveTo(l.in.centers[g])

	var handle *core.Handle
	var cids []string
	for k, p := range provers {
		op := (g-1)*core.MaxUsers + k
		l.res.attempted++
		rec.setOp(op)
		start := time.Now()
		root := rec.begin("op")
		h, cid, ok := l.prove(op, g, k, p, witness, handle)
		rec.end(root)
		walls = append(walls, time.Since(start))
		if h != nil {
			handle = h
		}
		if ok {
			cids = append(cids, cid)
		}
	}

	// Area-level checks: the reward pool is spent and every verified CID is
	// in the area's hypercube entry.
	defer rec.end(rec.begin("bench.check"))
	lastOp := g*core.MaxUsers - 1
	if handle == nil {
		return
	}
	if bal := l.raw.ContractBalance(handle); bal != uint64(core.MaxUsers-len(cids))*l.reward {
		l.res.fail(lastOp, "area %d: contract holds %d after %d rewards", g, bal, len(cids))
	}
	code := l.in.reports[g][0].OLC
	target, err := l.sys.NodeIDForOLC(code)
	if err != nil {
		l.res.fail(lastOp, "area %d: %v", g, err)
		return
	}
	entry, _, found, err := l.sys.Cube.Get(0, target, code)
	if err != nil || !found {
		l.res.fail(lastOp, "area %d: no hypercube entry (%v)", g, err)
		return
	}
	for _, cid := range cids {
		if !slices.Contains(entry.CIDs, cid) {
			l.res.fail(lastOp, "area %d: CID %s missing from hypercube entry", g, cid)
		}
	}
	return walls
}

// prove is one proof lifecycle: upload → discover → witness exchange →
// on-chain submission (→ funding, for the deployer) → verification, reward
// and DHT publication. It returns the area handle once known, and the CID
// with ok=true when the proof was accepted and every per-proof check held.
func (l *lifecycle) prove(op, g, k int, p *core.Prover, want *core.Witness, handle *core.Handle) (*core.Handle, string, bool) {
	rec, res := l.cfg.rec, l.res
	acct, _ := p.Account(l.raw)

	id := rec.begin("core.upload_report")
	cid, err := p.UploadReport(l.in.reports[g][k])
	rec.end(id)
	if err != nil {
		res.fail(op, "upload: %v", err)
		return handle, "", false
	}

	id = rec.begin("core.discover_witness")
	nearby := p.DiscoverWitnesses()
	rec.end(id)
	if len(nearby) == 0 || nearby[0] != want {
		res.fail(op, "discovery found %d witnesses, not the area's", len(nearby))
		return handle, "", false
	}

	id = rec.begin("core.request_proof")
	proof, err := p.RequestProof(nearby[0], cid, acct.Address())
	rec.end(id)
	if err != nil {
		res.fail(op, "request proof: %v", err)
		return handle, "", false
	}

	id = rec.begin("core.submit_proof")
	sub, err := p.SubmitProof(l.conn, proof, l.reward)
	rec.end(id)
	if err != nil {
		res.fail(op, "submit: %v", err)
		return handle, "", false
	}
	l.countOp(sub.Op)
	res.counts["hops"] += float64(sub.Hops)
	kind := "attach"
	if sub.Deployed {
		kind = "deploy"
	}
	res.counts[kind] += 1
	res.counts["sim_"+kind+"_s"] += sub.Op.Latency.Seconds()
	res.counts["fee_"+kind+"_eur"] += sub.Op.Fee.Euros()
	if sub.Deployed != (k == 0) {
		res.fail(op, "deployed=%v for prover %d of the area", sub.Deployed, k)
	}
	handle = sub.Handle

	if sub.Deployed {
		id = rec.begin("core.fund_contract")
		fund, err := l.verifier.FundContract(l.conn, handle, core.MaxUsers*l.reward)
		rec.end(id)
		if err != nil {
			res.fail(op, "fund: %v", err)
			return handle, "", false
		}
		l.countOp(fund)
	}

	before := l.raw.Balance(acct).Base
	id = rec.begin("core.verify_prover")
	ver, err := l.verifier.VerifyProver(l.conn, handle, p.DID)
	rec.end(id)
	if err != nil {
		res.fail(op, "verify: %v", err)
		return handle, "", false
	}
	if !ver.Accepted {
		res.fail(op, "rejected: %s", ver.Reason)
		return handle, "", false
	}
	l.countOp(ver.Op)
	res.counts["verify"] += 1
	res.counts["sim_verify_s"] += ver.Op.Latency.Seconds()
	res.counts["fee_verify_eur"] += ver.Op.Fee.Euros()

	defer rec.end(rec.begin("bench.check"))
	grew := new(big.Int).Sub(l.raw.Balance(acct).Base, before)
	if !grew.IsUint64() || grew.Uint64() != l.reward {
		res.fail(op, "prover wallet grew by %v, reward is %d", grew, l.reward)
		return handle, "", false
	}
	if ver.CID != cid {
		res.fail(op, "verified CID %s, uploaded %s", ver.CID, cid)
		return handle, "", false
	}
	return handle, string(cid), !res.failedOps[op]
}

// countOp folds one connector operation's receipt totals into the window.
func (l *lifecycle) countOp(op *core.OpResult) {
	l.res.gas += op.GasUsed
	l.res.counts["retries"] += float64(op.Retries)
	if op.Fee.Base != nil {
		l.opFees.Add(l.opFees, op.Fee.Base)
	}
}
