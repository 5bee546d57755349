package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/polcrypto"
)

const (
	soakAreas  = 64
	soakShards = 2
	// soakRetention bounds resident blocks and receipts; the round just
	// sealed is always within it, which is all the checks read.
	soakRetention = 16
	// soakUsers and soakRounds size one world at about 2.5 s of timed
	// sections on the 2-core reference host.
	soakUsers      = 2000
	soakRounds     = 25
	soakWarmRounds = 2
)

// soakChain is what the batched check-in driver needs from a chain family.
// eth and algorand expose the same batch path (SubmitBatch, Step, receipts,
// shard statistics) over different transaction types; the two
// implementations below adapt them.
type soakChain interface {
	// prefix names the family's spans and layer metrics: "eth" or "algorand".
	prefix() string
	// deploy publishes one check-in contract per area through SubmitBatch
	// and seals them.
	deploy(areas int) error
	// addUsers derives and funds n user accounts.
	addUsers(n int)
	// build encodes and signs every user's check-in for a round.
	build(round int) error
	// dropBuilt removes the i-th built transaction (faultDropTx).
	dropBuilt(i int)
	// submit hands the built round to SubmitBatch.
	submit() []error
	// step seals one block and returns the hashes it included.
	step() []chain.Hash32
	receipt(h chain.Hash32) (*chain.Receipt, bool)
	pending() int
	now() time.Duration
	unit() chain.Unit
	balance(user int) *big.Int
	checkins(area int) (uint64, error)
	digest() chain.Hash32
	stateRoot() chain.Hash32
	shardStats() *chain.ShardStats
}

// soakKeys is the benchmark-owned key stream: deployer first, then one key
// per user, independent of the chain's own random streams.
func soakKeys(seed uint64) *chain.Rand { return chain.NewRand(seed).Fork("bench:soak-keys") }

func soakAreaCode(i int) string { return fmt.Sprintf("7H36SOAK+%03X", i) }

// --- Ethereum family ---

type evmSoak struct {
	c        *eth.Chain
	conn     *core.EVMConnector
	compiled *lang.Compiled
	api      *lang.API
	gasLimit uint64
	keys     *chain.Rand
	users    []*eth.Account
	nonces   []uint64
	handles  []*core.Handle
	built    []*eth.Tx
}

var (
	evmUserFunds = big.NewInt(1e18)
	evmTip       = big.NewInt(2_000_000_000)
)

// soakConfigEVM trims Goerli's ambient congestion so the check-ins, not the
// synthetic background, fill the blocks, and scales the block gas limit so
// one round fits one block.
func soakConfigEVM(users int) eth.Config {
	cfg := eth.Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	cfg.BlockGasLimit = max(cfg.BlockGasLimit, uint64(users)*200_000)
	return cfg
}

func newEVMSoak(seed uint64, users int, compiled *lang.Compiled) (*evmSoak, error) {
	s := &evmSoak{compiled: compiled, keys: soakKeys(seed), api: compiled.Program.FindAPI("checkin")}
	if s.api == nil {
		return nil, fmt.Errorf("bench: checkin API missing from compiled contract")
	}
	s.gasLimit = eth.DefaultGasLimit
	for _, m := range compiled.Analysis.Methods {
		if m.Name == "checkin" {
			s.gasLimit = m.TotalEVMGas() + m.TotalEVMGas()/4
		}
	}
	s.attach(eth.NewChain(soakConfigEVM(users), seed))
	s.c.SetShards(soakShards)
	s.c.SetRetention(soakRetention)
	return s, nil
}

// attach points the driver at a chain: the fresh one, or the one persist_evm
// reopened from disk.
func (s *evmSoak) attach(c *eth.Chain) {
	s.c, s.conn = c, core.NewEVMConnector(c)
}

func (s *evmSoak) account() *eth.Account {
	kp := polcrypto.MustGenerateKeyPair(s.keys)
	return &eth.Account{Key: kp, Address: chain.AddressFromPublicKey(kp.Public)}
}

func (s *evmSoak) prefix() string { return "eth" }

func (s *evmSoak) deploy(areas int) error {
	deployer := s.account()
	s.c.Fund(deployer.Address, new(big.Int).Mul(big.NewInt(int64(areas)+100), big.NewInt(1e18)))
	gasLimit := s.compiled.Analysis.EVMDeployGas + s.compiled.Analysis.EVMDeployGas/4
	// Headroom for the base-fee climb across the deploy blocks.
	maxFee := new(big.Int).Add(new(big.Int).Mul(s.c.BaseFee(), big.NewInt(8)), evmTip)
	var txs []*eth.Tx
	for i := 0; i < areas; i++ {
		ctor, err := lang.EncodeArgsEVM(lang.CtorMethodName, s.compiled.Program.Ctor.Params,
			[]lang.Value{lang.BytesValue([]byte(soakAreaCode(i)))})
		if err != nil {
			return err
		}
		tx := &eth.Tx{
			From: deployer.Address, Nonce: uint64(i), Value: big.NewInt(0),
			Data: eth.PackDeployData(s.compiled.EVMCode, ctor), GasLimit: gasLimit,
			MaxFee: maxFee, MaxTip: evmTip,
		}
		tx.Sign(deployer)
		txs = append(txs, tx)
		s.handles = append(s.handles, &core.Handle{
			Connector: s.conn.Name(), Compiled: s.compiled,
			EVMAddr: chain.ContractAddress(deployer.Address, uint64(i)),
		})
	}
	if _, errs := s.c.SubmitBatch(txs); slices.ContainsFunc(errs, isErr) {
		return fmt.Errorf("bench: deploy batch rejected: %v", errs)
	}
	for i := 0; i < areas+200 && s.c.PendingCount() > 0; i++ {
		s.c.Step()
	}
	for i, h := range s.handles {
		if _, ok := s.c.ContractCode(h.EVMAddr); !ok {
			return fmt.Errorf("bench: area %d holds no code after deployment", i)
		}
	}
	return nil
}

func (s *evmSoak) addUsers(n int) {
	for i := 0; i < n; i++ {
		u := s.account()
		s.c.Fund(u.Address, evmUserFunds)
		s.users = append(s.users, u)
	}
	s.nonces = make([]uint64, n)
}

func (s *evmSoak) build(round int) error {
	maxFee := new(big.Int).Add(new(big.Int).Mul(s.c.BaseFee(), big.NewInt(2)), evmTip)
	s.built = s.built[:0]
	for ui, u := range s.users {
		data, err := lang.EncodeArgsEVM("checkin", s.api.Params, []lang.Value{
			lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round)),
		})
		if err != nil {
			return err
		}
		to := s.handles[ui%len(s.handles)].EVMAddr
		tx := &eth.Tx{
			From: u.Address, Nonce: s.nonces[ui], To: &to, Value: big.NewInt(0),
			Data: data, GasLimit: s.gasLimit, MaxFee: maxFee, MaxTip: evmTip,
		}
		tx.Sign(u)
		s.nonces[ui]++
		s.built = append(s.built, tx)
	}
	return nil
}

func (s *evmSoak) dropBuilt(i int) { s.built = slices.Delete(s.built, i, i+1) }

func (s *evmSoak) submit() []error {
	_, errs := s.c.SubmitBatch(s.built)
	return errs
}

func (s *evmSoak) step() []chain.Hash32 { return s.c.Step().TxHashes }

func (s *evmSoak) receipt(h chain.Hash32) (*chain.Receipt, bool) { return s.c.Receipt(h) }
func (s *evmSoak) pending() int                                  { return s.c.PendingCount() }
func (s *evmSoak) now() time.Duration                            { return s.c.Now() }
func (s *evmSoak) unit() chain.Unit                              { return s.c.Config().Unit }
func (s *evmSoak) balance(user int) *big.Int                     { return s.c.Balance(s.users[user].Address).Base }
func (s *evmSoak) digest() chain.Hash32                          { return s.c.Digest() }
func (s *evmSoak) stateRoot() chain.Hash32                       { return s.c.StateRoot() }
func (s *evmSoak) shardStats() *chain.ShardStats                 { return s.c.ShardStats() }

func (s *evmSoak) checkins(area int) (uint64, error) {
	v, err := s.conn.View(s.handles[area], "getCheckins")
	return v.Uint, err
}

// --- Algorand ---

type algoSoak struct {
	c        *algorand.Chain
	conn     *core.AlgorandConnector
	compiled *lang.Compiled
	api      *lang.API
	keys     *chain.Rand
	users    []*algorand.Account
	handles  []*core.Handle
	built    []algorand.Group
}

const algoUserFunds uint64 = 10_000_000

func newAlgoSoak(seed uint64, compiled *lang.Compiled) (*algoSoak, error) {
	c := algorand.NewChain(algorand.Testnet(), seed)
	s := &algoSoak{
		c: c, conn: core.NewAlgorandConnector(c), compiled: compiled,
		keys: soakKeys(seed), api: compiled.Program.FindAPI("checkin"),
	}
	if s.api == nil {
		return nil, fmt.Errorf("bench: checkin API missing from compiled contract")
	}
	c.SetShards(soakShards)
	c.SetRetention(soakRetention)
	return s, nil
}

func (s *algoSoak) account() *algorand.Account {
	kp := polcrypto.MustGenerateKeyPair(s.keys)
	return &algorand.Account{Key: kp, Address: chain.AddressFromPublicKey(kp.Public)}
}

func (s *algoSoak) prefix() string { return "algorand" }

func (s *algoSoak) deploy(areas int) error {
	deployer := s.account()
	s.c.Fund(deployer.Address, 100_000_000+uint64(areas)*2*algorand.MinFee)
	var groups []algorand.Group
	for i := 0; i < areas; i++ {
		args, err := lang.EncodeArgsTEAL("", s.compiled.Program.Ctor.Params,
			[]lang.Value{lang.BytesValue([]byte(soakAreaCode(i)))})
		if err != nil {
			return err
		}
		tx := &algorand.Tx{
			Type: algorand.TxAppCreate, Sender: deployer.Address, Fee: algorand.MinFee,
			Source: s.compiled.TEALSource, Args: args,
		}
		tx.Sign(deployer)
		groups = append(groups, algorand.Group{tx})
		// Application ids are allocated sequentially from 1.
		s.handles = append(s.handles, &core.Handle{Connector: s.conn.Name(), AppID: uint64(i) + 1, Compiled: s.compiled})
	}
	if _, errs := s.c.SubmitBatch(groups); slices.ContainsFunc(errs, isErr) {
		return fmt.Errorf("bench: deploy batch rejected: %v", errs)
	}
	for i := 0; i < 50 && s.c.PendingCount() > 0; i++ {
		s.c.Step()
	}
	for i, h := range s.handles {
		if _, ok := s.c.App(h.AppID); !ok {
			return fmt.Errorf("bench: area %d has no application %d after deployment", i, h.AppID)
		}
	}
	return nil
}

func (s *algoSoak) addUsers(n int) {
	for i := 0; i < n; i++ {
		u := s.account()
		s.c.Fund(u.Address, algoUserFunds)
		s.users = append(s.users, u)
	}
}

func (s *algoSoak) build(round int) error {
	s.built = s.built[:0]
	for ui, u := range s.users {
		args, err := lang.EncodeArgsTEAL("checkin", s.api.Params, []lang.Value{
			lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round)),
		})
		if err != nil {
			return err
		}
		call := &algorand.Tx{
			Type: algorand.TxAppCall, Sender: u.Address, Fee: algorand.MinFee,
			AppID: s.handles[ui%len(s.handles)].AppID, Args: args,
		}
		call.Sign(u)
		s.built = append(s.built, algorand.Group{call})
	}
	return nil
}

func (s *algoSoak) dropBuilt(i int) { s.built = slices.Delete(s.built, i, i+1) }

func (s *algoSoak) submit() []error {
	_, errs := s.c.SubmitBatch(s.built)
	return errs
}

func (s *algoSoak) step() []chain.Hash32 { return s.c.Step().Groups }

func (s *algoSoak) receipt(h chain.Hash32) (*chain.Receipt, bool) { return s.c.Receipt(h) }
func (s *algoSoak) pending() int                                  { return s.c.PendingCount() }
func (s *algoSoak) now() time.Duration                            { return s.c.Now() }
func (s *algoSoak) unit() chain.Unit                              { return s.c.Config().Unit }
func (s *algoSoak) balance(user int) *big.Int                     { return s.c.Balance(s.users[user].Address).Base }
func (s *algoSoak) digest() chain.Hash32                          { return s.c.Digest() }
func (s *algoSoak) stateRoot() chain.Hash32                       { return s.c.StateRoot() }
func (s *algoSoak) shardStats() *chain.ShardStats                 { return s.c.ShardStats() }

func (s *algoSoak) checkins(area int) (uint64, error) {
	v, err := s.conn.View(s.handles[area], "getCheckins")
	return v.Uint, err
}

func isErr(err error) bool { return err != nil }

// --- the driver ---

// persister is persist_evm's storage side: a disk store the chain commits
// into at the end of every round.
type persister struct {
	dir   string
	store *diskstore.Store
	es    *evmSoak
	seed  uint64
}

// commit makes the chain's current state durable: checkpoint + JSON encode,
// trie commit into the store, then flush, fsync and manifest replace.
func (p *persister) commit(rec *recorder) error {
	id := rec.begin("eth.checkpoint")
	ck, err := p.es.c.Checkpoint()
	var blob []byte
	if err == nil {
		blob, err = json.Marshal(ck)
	}
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("mstate.commit")
	root, err := p.es.c.CommitState(p.store)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("diskstore.commit")
	err = p.store.Commit(root, blob)
	rec.end(id)
	return err
}

// tearTail closes the store and appends garbage to its newest segment, as a
// crash in the middle of an append would leave it.
func (p *persister) tearTail() error {
	if err := p.store.Close(); err != nil {
		return err
	}
	segs, err := filepath.Glob(filepath.Join(p.dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("bench: no segment files in %s (%v)", p.dir, err)
	}
	slices.Sort(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(make([]byte, 37)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reopen rebuilds the chain from the committed root: index scan of the
// store, then a full trie load and checkpoint restore.
func (p *persister) reopen(rec *recorder) error {
	id := rec.begin("diskstore.open")
	store, err := diskstore.Open(p.dir, diskstore.Options{})
	rec.end(id)
	if err != nil {
		return err
	}
	p.store = store
	root, ok := store.Root()
	if !ok {
		return fmt.Errorf("bench: reopened store holds no committed root")
	}
	defer rec.end(rec.begin("mstate.load"))
	var ck eth.Checkpoint
	if err := json.Unmarshal(store.Meta(), &ck); err != nil {
		return err
	}
	c, err := eth.Open(eth.Options{
		Config: soakConfigEVM(len(p.es.users)), Seed: p.seed,
		Store: store, Root: root, Checkpoint: &ck,
	})
	if err != nil {
		return err
	}
	p.es.attach(c)
	return nil
}

// dirBytes sums the sizes of the files directly inside dir.
func dirBytes(dir string) (int64, int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	var total int64
	segments := 0
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		if ok, _ := filepath.Match("seg-*.log", e.Name()); ok {
			segments++
		}
	}
	return total, segments
}

// runSoak runs one world of soak_evm, soak_algorand or persist_evm: users
// check in to their home area once per round through the batched submission
// path. Building and signing a round's transactions is the load generator
// and stays outside the timed section; SubmitBatch, Step and (persist_evm)
// the commit to disk are inside it.
func runSoak(workload string, cfg worldConfig) (*worldResult, error) {
	// Admission and sharded execution keep soakShards cores busy.
	res := newWorldResult(soakShards)
	res.setup.start()
	users := scaled(soakUsers, cfg.scale, 64)
	rounds := scaled(soakRounds, cfg.scale, 3)

	compiled, err := core.CompileCheckin()
	if err != nil {
		return nil, err
	}
	var sc soakChain
	var persist *persister
	switch workload {
	case "soak_evm", "persist_evm":
		es, err := newEVMSoak(cfg.seed, users, compiled)
		if err != nil {
			return nil, err
		}
		sc = es
		if workload == "persist_evm" {
			dir, err := cfg.tmp.make("state-*")
			if err != nil {
				return nil, err
			}
			store, err := diskstore.Open(dir, diskstore.Options{})
			if err != nil {
				return nil, err
			}
			persist = &persister{dir: dir, store: store, es: es, seed: cfg.seed}
			defer func() { persist.store.Close() }()
		}
	case "soak_algorand":
		if sc, err = newAlgoSoak(cfg.seed, compiled); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown soak workload %q", workload)
	}
	// The set-up clock laps between phases, so each is divided by the host
	// slowdown probed around it.
	if err := sc.deploy(soakAreas); err != nil {
		return nil, err
	}
	res.setup.lap()
	sc.addUsers(users)
	res.setup.lap()
	pfx := sc.prefix()

	var (
		rec      *recorder // nil through the warm-up rounds
		feeSum   = new(big.Int)
		included int
		blocks   int
	)
	// seal accounts for one sealed block: every included hash must have a
	// successful receipt.
	seal := func(hashes []chain.Hash32, measured bool) {
		if !measured {
			return
		}
		blocks++
		for _, h := range hashes {
			r, ok := sc.receipt(h)
			if !ok || r.Reverted {
				continue
			}
			included++
			res.gas += r.GasUsed
			feeSum.Add(feeSum, r.Fee.Base)
		}
	}
	round := func(r int, measured bool) error {
		buildStart := time.Now()
		if err := sc.build(r); err != nil {
			return err
		}
		built := time.Since(buildStart)
		if measured {
			if cfg.fault == faultDropTx && r == soakWarmRounds+2 {
				sc.dropBuilt(users / 2)
			}
			rec.setOp(r - soakWarmRounds - 1)
			// Collect the load generator's garbage before the timed section,
			// so the section pays only for the GC work of its own allocations.
			runtime.GC()
			res.window.start()
		}
		root := rec.begin("round")
		id := rec.begin(pfx + ".submit_batch")
		errs := sc.submit()
		rec.end(id)
		id = rec.begin(pfx + ".step")
		hashes := sc.step()
		rec.end(id)
		var commitErr error
		if persist != nil {
			commitErr = persist.commit(rec)
		}
		rec.end(root)
		if measured {
			d, slow := res.window.stop()
			res.addOp(r-soakWarmRounds-1, d, slow)
			res.buildSign = addStat(res.buildSign, spanStat{Count: users, Total: time.Duration(float64(built) / slow)})
		}
		if commitErr != nil {
			return commitErr
		}
		if i := slices.IndexFunc(errs, isErr); i >= 0 {
			// Counted below: a rejected check-in never produces a receipt.
			res.note("round %d: submission %d rejected: %v", r, i, errs[i])
		}
		seal(hashes, measured)
		return nil
	}
	drain := func(measured bool) {
		for i := 0; i < rounds*10+50 && sc.pending() > 0; i++ {
			if measured {
				res.window.start()
			}
			id := rec.begin(pfx + ".drain_step")
			hashes := sc.step()
			rec.end(id)
			if measured {
				_, res.opSlow[int32(rounds)] = res.window.stop()
				res.counts["drain_steps"]++
			}
			seal(hashes, measured)
		}
	}

	for r := 1; r <= soakWarmRounds; r++ {
		if err := round(r, false); err != nil {
			return nil, err
		}
		res.setup.lap()
	}
	drain(false)
	if persist != nil {
		if err := persist.commit(nil); err != nil {
			return nil, err
		}
	}
	res.setup.stop()

	rec = cfg.rec
	res.attempted = users * rounds
	funded := new(big.Int)
	for u := 0; u < users; u++ {
		funded.Add(funded, sc.balance(u))
	}
	simStart := sc.now()
	shards0 := sc.shardStats()
	var bytes0 int64
	var nodes0 int
	if persist != nil {
		bytes0, _ = dirBytes(persist.dir)
		nodes0 = persist.store.Len()
	}

	for r := soakWarmRounds + 1; r <= soakWarmRounds+rounds; r++ {
		if err := round(r, true); err != nil {
			return nil, err
		}
	}
	rec.setOp(rounds)
	drain(true)
	if persist != nil && res.counts["drain_steps"] > 0 {
		// The drain moved the state past the last round's commit.
		res.window.start()
		err := persist.commit(rec)
		_, res.opSlow[int32(rounds)] = res.window.stop()
		if err != nil {
			return nil, err
		}
	}

	res.simSeconds = (sc.now() - simStart).Seconds()
	res.digest, res.stateRoot = sc.digest(), sc.stateRoot()
	res.counts["users"] = float64(users)
	res.counts["blocks"] = float64(blocks)
	res.counts["included"] = float64(included)
	shards1 := sc.shardStats()
	res.counts["parallel_batches"] = float64(shards1.ParallelBatches - shards0.ParallelBatches)
	var shardTotal, shardMin uint64
	for i := range shards1.Txs {
		d := shards1.Txs[i] - shards0.Txs[i]
		shardTotal += d
		if i == 0 || d < shardMin {
			shardMin = d
		}
	}
	res.counts["shard_util_min"] = ratio(float64(shardMin), float64(shardTotal))

	// Whole-world checks.
	res.failN(res.attempted-included, "%d of %d check-ins never produced a successful receipt", res.attempted-included, res.attempted)
	if n := sc.pending(); n != 0 {
		res.failAll("%d transactions still pending after the drain", n)
	}
	balances := make([]*big.Int, users)
	left := new(big.Int)
	for u := range balances {
		balances[u] = sc.balance(u)
		left.Add(left, balances[u])
	}
	paid := new(big.Int).Sub(funded, left)
	if paid.Cmp(feeSum) != 0 {
		res.failAll("fee identity: users paid %v, receipts report %v", paid, feeSum)
	}
	res.feeEUR = chain.NewAmount(paid, sc.unit()).Euros()
	counters := make([]uint64, soakAreas)
	var total uint64
	for a := range counters {
		if counters[a], err = sc.checkins(a); err != nil {
			return nil, err
		}
		total += counters[a]
	}
	if want := uint64(users * (soakWarmRounds + rounds)); total != want {
		res.failAll("areas count %d check-ins, want %d", total, want)
	}
	res.liveHeap = liveHeap()
	runtime.KeepAlive(sc)

	if persist != nil {
		bytes1, segments := dirBytes(persist.dir)
		res.counts["disk_bytes"] = float64(bytes1)
		res.counts["disk_bytes_window"] = float64(bytes1 - bytes0)
		res.counts["nodes_window"] = float64(persist.store.Len() - nodes0)
		res.counts["nodes_total"] = float64(persist.store.Len())
		res.counts["segments"] = float64(segments)
		if err := persist.tearTail(); err != nil {
			return nil, err
		}
		// Reopen and read-back are part of persist_evm's window: a store that
		// commits faster but reopens slower must show in ops_per_s.
		rec.setOp(rounds + 1)
		res.window.start()
		root := rec.begin("reopen")
		err := persist.reopen(rec)
		rec.end(root)
		d, slow := res.window.stop()
		res.opSlow[int32(rounds+1)] = slow
		res.counts["reopen_s"] = d.Seconds() / slow
		if err != nil {
			return nil, fmt.Errorf("bench: reopen after torn tail: %w", err)
		}
		if sc.digest() != res.digest || sc.stateRoot() != res.stateRoot {
			res.failAll("reopened chain has digest %v root %v, closed with %v %v",
				sc.digest(), sc.stateRoot(), res.digest, res.stateRoot)
		}
		rec.setOp(rounds + 2)
		res.window.start()
		id := rec.begin("eth.readback")
		mismatches := 0
		for u := range balances {
			if sc.balance(u).Cmp(balances[u]) != 0 {
				mismatches++
			}
		}
		for a := range counters {
			if n, err := sc.checkins(a); err != nil || n != counters[a] {
				mismatches++
			}
		}
		rec.end(id)
		_, res.opSlow[int32(rounds+2)] = res.window.stop()
		if mismatches > 0 {
			res.failAll("%d balances or counters differ after reopen", mismatches)
		}
	}
	return res, nil
}
