package sim

import (
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/obs"
)

// SoakSpec describes a sustained-load run: M areas × K users × T rounds of
// simulated time, executed on a chain partitioned into Shards. Every user
// checks in to their home area every round, so the workload is dominated by
// disjoint per-area contract traffic — the case the sharded block builder
// is designed to parallelize.
type SoakSpec struct {
	// Chain selects the network preset (see AllChains).
	Chain ChainName
	// Areas (M) is the number of per-area check-in contracts deployed.
	Areas int
	// Users (K) is the number of accounts issuing check-ins.
	Users int
	// Rounds (T) is how many blocks of sustained load to drive; the drain
	// phase afterwards runs until the mempool is empty.
	Rounds int
	// Shards partitions block execution; 1 is the serial baseline.
	Shards int
	// Seed drives every random stream of the run.
	Seed uint64
	// Obs optionally attaches an observability bundle.
	Obs *obs.Obs

	// StateDir, when set, persists the run into a diskstore at that path:
	// the world state is committed and a manifest checkpoint written after
	// setup, every CheckpointEvery load rounds, and after the drain. A run
	// killed at any point resumes from the last durable checkpoint.
	StateDir string
	// CheckpointEvery is the round cadence of mid-run checkpoints; zero or
	// negative keeps only the setup and final checkpoints.
	CheckpointEvery int
	// Resume continues the run recorded in StateDir instead of starting
	// fresh. The manifest is authoritative for Chain/Areas/Users/Rounds/
	// Seed — leave them zero or set them to matching values.
	Resume bool
	// StopAfterRounds > 0 checkpoints and returns (Result.Stopped) once
	// that many total rounds are done — an in-process stand-in for kill -9
	// that lets tests exercise the resume path deterministically. Requires
	// StateDir.
	StopAfterRounds int
}

// SoakResult aggregates one soak run.
type SoakResult struct {
	Chain  ChainName
	Areas  int
	Users  int
	Rounds int
	Shards int
	// Seed echoes the resolved experiment seed — on a resume it comes from
	// the state dir's manifest, not the (zero) caller spec.
	Seed uint64

	// Submitted and Included count user transactions (congestion traffic
	// excluded); after a full drain they are equal.
	Submitted uint64
	Included  uint64
	// Blocks is how many blocks the run produced, drain included.
	Blocks uint64

	// Simulated is the chain-clock time the load phase covered.
	Simulated time.Duration

	// Utilization is each shard's share of executed transactions;
	// ParallelBatches counts blocks that actually fanned out.
	Utilization     []float64
	ParallelBatches uint64

	// Digest fingerprints the chain's end state: two runs of the same spec
	// must produce the same digest regardless of Shards or GOMAXPROCS.
	Digest chain.Hash32
	// StateRoot is the world-state Merkle root at the end of the run —
	// a pure function of the live key/value set, so runs that differ only
	// in scheduling must agree on it.
	StateRoot chain.Hash32

	// FeesPaid is the total transaction fees the user accounts spent, in the
	// chain's native base units: every check-in moves zero value, so each
	// user's fees are exactly their funding minus their final balance, and
	// the sum is exact even across a checkpoint/resume split. MeanFeeEuro is
	// the euro cost per included transaction — the unit the paper compares
	// backends in; zero for stopped runs (inclusion is finalized on resume).
	FeesPaid    chain.Amount
	MeanFeeEuro float64

	// Resumed marks a run reconstructed from a StateDir manifest rather
	// than started fresh.
	Resumed bool
	// Stopped marks a run that checkpointed and returned early at
	// StopAfterRounds. Submitted, Blocks, Digest and StateRoot reflect the
	// stop point; Included stays zero — inclusion accounting is finalized
	// by the resumed run that drains the mempool.
	Stopped bool
}

// TxsPerSecSimulated is the included transactions per simulated
// chain-clock second — a property of the workload, not the host.
func (r *SoakResult) TxsPerSecSimulated() float64 {
	if r.Simulated <= 0 {
		return 0
	}
	return float64(r.Included) / r.Simulated.Seconds()
}

// soakAreaCode synthesizes the i-th area's Open Location Code-style
// identifier. Distinct codes are all the contract requires.
func soakAreaCode(i int) string { return fmt.Sprintf("7H36SOAK+%03X", i) }

// soakRetention bounds how many blocks (and their receipts) a soak chain
// keeps resident — enough for any confirmation depth, small enough that a
// million-user run's memory is set by live state, not by history.
const soakRetention = 16

// soakShape is what the soak workload sets per chain family: the funds
// each user gets, the deployer's (deployBase plus deployPerArea per area,
// since selection reserves each pending deployment's worst-case fee up
// front), and how the area contracts go out — deployBatch creations per
// SubmitItems call, or, at zero, one at a time through the connector's
// submit-and-wait path, one creation per block.
type soakShape struct {
	userFunds, deployBase, deployPerArea *big.Int
	deployBatch                          int
}

var (
	// At 100k+ areas one signed deployment per block would take days of
	// wall clock, so EVM deployments go through the batched path.
	evmSoakShape = soakShape{
		userFunds:     big.NewInt(1e18),
		deployBase:    new(big.Int).Mul(big.NewInt(100), big.NewInt(1e18)),
		deployPerArea: big.NewInt(1e18),
		deployBatch:   4096,
	}
	// Algorand deploys one application per round, which is what pins the
	// application ids to 1..areas.
	algorandSoakShape = soakShape{
		userFunds:     big.NewInt(10_000_000),
		deployBase:    big.NewInt(100_000_000),
		deployPerArea: big.NewInt(2 * algorand.MinFee),
	}
)

// soak is one sustained-load run: the chain family under load, the
// connector over it, and where the run stands.
type soak struct {
	spec     SoakSpec
	run      *soakRun
	store    *diskstore.Store // the state dir; nil when not persisting
	family   core.Family
	conn     core.Connector
	shape    soakShape
	compiled *lang.Compiled
	api      *lang.API
	// keys is the soak-owned key stream: the deployer first, then one
	// user per index, so a resumed process re-derives the same accounts.
	keys     *chain.Rand
	deployer *chain.Account
}

// openSoak validates spec, opens its state dir (resolving a resume
// against the manifest there) and the chain under soak — fresh, or
// reopened from the committed root and checkpoint — behind its family.
// Ethereum-family presets get their ambient congestion traffic trimmed so
// the measured workload — not the synthetic background — fills the
// blocks; the congestion stream stays on, seeded, and deterministic. The
// block gas limit scales with the user count so a round's check-ins fit a
// bounded number of blocks — at the paper's scales (≤ a few hundred
// users) the preset limit already dominates and nothing changes.
func openSoak(spec SoakSpec) (_ *soak, err error) {
	if spec.Resume {
		if spec.StateDir == "" {
			return nil, fmt.Errorf("sim: soak resume requires StateDir")
		}
	} else if spec.Areas < 1 || spec.Users < 1 || spec.Rounds < 1 {
		return nil, fmt.Errorf("sim: soak needs areas, users and rounds >= 1 (got %d/%d/%d)",
			spec.Areas, spec.Users, spec.Rounds)
	}
	if spec.StopAfterRounds > 0 && spec.StateDir == "" {
		return nil, fmt.Errorf("sim: StopAfterRounds without StateDir would abandon the run unrecoverably")
	}

	s := &soak{run: &soakRun{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if spec.StateDir != "" {
		if s.store, err = diskstore.Open(spec.StateDir, diskstore.Options{}); err != nil {
			return nil, err
		}
		if spec.Resume {
			if spec, s.run, err = loadSoakManifest(s.store, spec); err != nil {
				return nil, err
			}
		} else if _, committed := s.store.Root(); committed {
			return nil, fmt.Errorf("sim: %s already holds a committed soak; set Resume or use a fresh directory", spec.StateDir)
		}
		s.run.persist = &soakPersist{store: s.store}
	}
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	if s.run.persist != nil {
		s.run.persist.meta = soakCheckpoint{
			Version: soakCheckpointVersion, Chain: spec.Chain,
			Areas: spec.Areas, Users: spec.Users, Rounds: spec.Rounds,
			Shards: spec.Shards, Seed: spec.Seed,
		}
	}
	s.spec = spec

	if s.compiled, err = core.CompileCheckin(); err != nil {
		return nil, err
	}
	if s.api = s.compiled.Program.FindAPI("checkin"); s.api == nil {
		return nil, fmt.Errorf("sim: checkin API missing from compiled contract")
	}
	s.keys = soakKeyStream(spec.Seed)
	s.deployer = chain.NewAccount(s.keys)

	s.shape = evmSoakShape
	if spec.Chain == ChainAlgorand {
		s.shape = algorandSoakShape
	}
	s.family, err = openFamily(spec.Chain, spec.Seed, func(cfg *eth.Config) {
		cfg.CongestionMeanGas = 1_000_000
		cfg.SpikeProb = 0
		cfg.BlockGasLimit = max(cfg.BlockGasLimit, uint64(spec.Users)*200_000)
	})
	if err != nil {
		return nil, err
	}
	if s.run.resumed {
		if len(s.run.checkpoint) == 0 {
			return nil, fmt.Errorf("sim: soak manifest for %s carries no chain checkpoint", spec.Chain)
		}
		if err := s.family.Restore(s.store, s.run.root, s.run.checkpoint); err != nil {
			return nil, err
		}
	}
	s.conn = core.NewConnector(s.family)
	s.family.Instrument(spec.Obs)
	return s, nil
}

// close releases the run's state dir.
func (s *soak) close() {
	if s.store != nil {
		s.store.Close()
	}
}

// handle is area i's contract handle, and whether the contract is
// deployed yet. The soak's deployment is sequential, so identities are a
// pure function of the spec and a resumed run need not replay it.
func (s *soak) handle(i int) (*core.Handle, bool) {
	at, deployed := s.family.ContractAt(s.deployer.Address, uint64(i))
	return &core.Handle{Connector: s.family.Name(), EVMAddr: at.Addr, AppID: at.App, Compiled: s.compiled}, deployed
}

// deploy publishes one check-in contract per area, area i's at handle(i).
func (s *soak) deploy(areas int) error {
	f := s.family
	f.Fund(s.deployer.Address, new(big.Int).Add(s.shape.deployBase,
		new(big.Int).Mul(big.NewInt(int64(areas)), s.shape.deployPerArea)))
	args := func(i int) []lang.Value { return []lang.Value{lang.BytesValue([]byte(soakAreaCode(i)))} }
	if s.shape.deployBatch == 0 {
		deployer := &core.Account{Account: *s.deployer}
		for i := 0; i < areas; i++ {
			h, _, err := s.conn.Deploy(deployer, s.compiled, args(i))
			if err != nil {
				return fmt.Errorf("sim: deploy area %s: %w", soakAreaCode(i), err)
			}
			if want, _ := s.handle(i); h.ID() != want.ID() {
				return fmt.Errorf("sim: area %s deployed as %s, want %s (resume derivation relies on sequential ids)",
					soakAreaCode(i), h.ID(), want.ID())
			}
		}
		return nil
	}
	items := make([]chain.Item, 0, s.shape.deployBatch)
	for i := 0; i < areas; i++ {
		item, err := f.DeployItem(s.deployer, uint64(i), s.compiled, args(i))
		if err != nil {
			return err
		}
		items = append(items, item)
		if len(items) == s.shape.deployBatch || i == areas-1 {
			if err := submitErr(f.SubmitItems(items)); err != nil {
				return fmt.Errorf("sim: deploy: %w", err)
			}
			items = items[:0]
		}
	}
	for i := 0; i < areas+200 && f.PendingCount() > 0; i++ {
		f.Seal()
	}
	if n := f.PendingCount(); n != 0 {
		return fmt.Errorf("sim: %d deployments never included", n)
	}
	for i := 0; i < areas; i++ {
		if _, ok := s.handle(i); !ok {
			return fmt.Errorf("sim: deployment of area %s reverted", soakAreaCode(i))
		}
	}
	return nil
}

// submitErr names the first rejected submission of a batch.
func submitErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("submission %d: %w", i, err)
		}
	}
	return nil
}

// submitRound builds, signs and batch-submits users[i]'s check-in to
// targets[i] for the round. Each user submits exactly one check-in per
// round, so an EVM user's nonce is the round number.
func (s *soak) submitRound(round int, users []*chain.Account, targets []chain.Contract) error {
	items := make([]chain.Item, len(users))
	for ui, u := range users {
		var err error
		items[ui], err = s.family.CallItem(u, uint64(round), targets[ui], s.compiled, s.api, []lang.Value{
			lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round) + 1),
		})
		if err != nil {
			return err
		}
	}
	return submitErr(s.family.SubmitItems(items))
}

// RunSoak drives the sustained-load harness: deploy one check-in contract
// per area, then have every user check in to their home area every round
// through the chain's batched submission path. The returned digest and
// state root let callers assert that shard count, scheduling and restarts
// never change the chain's final state; timing the run is bench/'s job.
// Runs share nothing but an optional Obs, so several may run concurrently.
// Everything here is written once over core.Family; what the workload sets
// per family is a soakShape.
func RunSoak(spec SoakSpec) (*SoakResult, error) {
	s, err := openSoak(spec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	spec, run := s.spec, s.run
	var sc *obs.Scope
	if spec.Obs != nil {
		sc = spec.Obs.Tracer.NewScope(nil)
	}
	sp := sc.Start("sim.soak",
		obs.L("chain", string(spec.Chain)),
		obs.L("areas", fmt.Sprint(spec.Areas)),
		obs.L("users", fmt.Sprint(spec.Users)),
		obs.L("shards", fmt.Sprint(spec.Shards)))
	defer sp.End()

	// Deployment phase: one contract per area. A resumed run skips
	// deployment entirely — the contracts are already in the loaded state —
	// and only spot-checks that the derived handles exist there.
	s.family.SetRetention(soakRetention)
	if run.resumed {
		for _, i := range []int{0, spec.Areas - 1} {
			if h, ok := s.handle(i); !ok {
				return nil, fmt.Errorf("sim: resumed state holds no contract %s for area %s", h.ID(), soakAreaCode(i))
			}
		}
	} else if err := s.deploy(spec.Areas); err != nil {
		return nil, err
	}

	res := &SoakResult{
		Chain: spec.Chain, Areas: spec.Areas, Users: spec.Users,
		Rounds: spec.Rounds, Shards: spec.Shards, Seed: spec.Seed,
		Resumed: run.resumed,
	}
	if err := s.load(res); err != nil {
		return nil, err
	}
	return res, nil
}

// load runs the load phase: every user checks in once per round to their
// home area (user ui's is area ui mod Areas), a block is sealed per round,
// checkpoints are written at the configured cadence, and the pool is
// drained at the end.
func (s *soak) load(res *SoakResult) error {
	spec, run, f := s.spec, s.run, s.family
	f.SetShards(spec.Shards)

	// Only a fresh run funds the users.
	users := make([]*chain.Account, spec.Users)
	targets := make([]chain.Contract, spec.Users)
	for ui := range users {
		users[ui] = chain.NewAccount(s.keys)
		if !run.resumed {
			f.Fund(users[ui].Address, s.shape.userFunds)
		}
		h, _ := s.handle(ui % spec.Areas)
		targets[ui] = chain.Contract{Addr: h.EVMAddr, App: h.AppID}
	}

	blocksBefore := f.Height()
	simStart := f.Now()
	if run.resumed {
		blocksBefore = run.blocksAtLoadStart
		simStart = run.simStart
	}
	if run.persist != nil {
		run.persist.meta.BlocksAtLoadStart = blocksBefore
		run.persist.meta.SimStart = simStart
		if !run.resumed {
			if err := run.persist.commit(f, 0, 0, false); err != nil {
				return err
			}
		}
	}
	res.Submitted = run.submitted0
	finish := func() {
		res.Simulated = f.Now() - simStart
		res.Blocks = f.Height() - blocksBefore
		if st := f.ShardStats(); st != nil {
			res.Utilization = st.Utilization()
			res.ParallelBatches = st.ParallelBatches
		}
		res.Digest = f.Digest()
		res.StateRoot = f.StateRoot()
		// Check-ins move zero value, so funding minus final balance is
		// exactly the fees a user paid.
		fees := new(big.Int)
		for _, u := range users {
			bal := f.Balance(u.Address)
			fees.Add(fees, new(big.Int).Sub(s.shape.userFunds, bal.Base))
			res.FeesPaid = chain.Amount{Base: fees, Unit: bal.Unit}
		}
	}
	for round := run.startRound; round < spec.Rounds; round++ {
		if err := s.submitRound(round, users, targets); err != nil {
			return fmt.Errorf("sim: soak round %d: %w", round, err)
		}
		res.Submitted += uint64(len(users))
		f.Seal()
		roundsDone := round + 1
		stop := spec.StopAfterRounds > 0 && roundsDone >= spec.StopAfterRounds && roundsDone < spec.Rounds
		if run.persist != nil && (stop || (spec.CheckpointEvery > 0 && roundsDone%spec.CheckpointEvery == 0)) {
			if err := run.persist.commit(f, roundsDone, res.Submitted, false); err != nil {
				return err
			}
		}
		if stop {
			res.Stopped = true
			finish()
			return nil
		}
	}
	for i := 0; i < spec.Rounds*10+50 && f.PendingCount() > 0; i++ {
		f.Seal()
	}
	if n := f.PendingCount(); n != 0 {
		return fmt.Errorf("sim: soak drain incomplete: %d submissions pending", n)
	}
	finish()
	res.Included = res.Submitted
	if res.Included > 0 {
		res.MeanFeeEuro = res.FeesPaid.Euros() / float64(res.Included)
	}
	if run.persist != nil {
		return run.persist.commit(f, spec.Rounds, res.Submitted, true)
	}
	return nil
}
