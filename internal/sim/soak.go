package sim

import (
	"fmt"
	"math/big"
	"time"

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
	// Telemetry optionally attaches a live-telemetry session: the sampler
	// is ticked — one registry sample plus an SLO evaluation — after every
	// load round and once after the drain, so /metrics, /timeseries and
	// /health evolve while the soak is still running.
	Telemetry *obs.Telemetry

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

// newSoakBackend builds the chain under soak — fresh, or reopened from the
// run's committed root and manifest checkpoint — behind its family's
// adapter. EVM presets get their ambient congestion traffic trimmed so the
// measured workload — not the synthetic background — fills the blocks; the
// congestion stream stays on, seeded, and deterministic. The block gas
// limit scales with the user count so a round's check-ins fit a bounded
// number of blocks — at the paper's scales (≤ a few hundred users) the
// preset limit already dominates and nothing changes.
func newSoakBackend(spec SoakSpec, run *soakRun, deployer soakAccount, compiled *lang.Compiled) (soakBackend, error) {
	api := compiled.Program.FindAPI("checkin")
	if api == nil {
		return nil, fmt.Errorf("sim: checkin API missing from compiled contract")
	}
	var cfg eth.Config
	switch spec.Chain {
	case ChainRopsten:
		cfg = eth.Ropsten()
	case ChainGoerli:
		cfg = eth.Goerli()
	case ChainPolygon:
		cfg = eth.PolygonMumbai()
	case ChainAlgorand:
		return newAlgorandSoak(spec, run, deployer, compiled, api)
	default:
		return nil, fmt.Errorf("sim: unknown chain %q", spec.Chain)
	}
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	cfg.BlockGasLimit = max(cfg.BlockGasLimit, uint64(spec.Users)*200_000)
	return newEVMSoak(cfg, spec, run, deployer, compiled, api)
}

// RunSoak drives the sustained-load harness: deploy one check-in contract
// per area, register the handles in an AreaRegistry, then have every user
// check in to their home area every round through the chain's batched
// submission path. The returned digest and state root let callers assert
// that shard count, scheduling and restarts never change the chain's final
// state; timing the run is bench/'s job. Everything here is family-independent: what differs
// between the chain families sits behind soakBackend.
func RunSoak(spec SoakSpec) (*SoakResult, error) {
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

	run := &soakRun{}
	if spec.StateDir != "" {
		store, err := diskstore.Open(spec.StateDir, diskstore.Options{})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		if spec.Resume {
			spec, run, err = loadSoakManifest(store, spec)
			if err != nil {
				return nil, err
			}
		} else if _, committed := store.Root(); committed {
			return nil, fmt.Errorf("sim: %s already holds a committed soak; set Resume or use a fresh directory", spec.StateDir)
		}
		run.persist = &soakPersist{store: store}
	}
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	if run.persist != nil {
		run.persist.meta = soakCheckpoint{
			Version: soakCheckpointVersion, Chain: spec.Chain,
			Areas: spec.Areas, Users: spec.Users, Rounds: spec.Rounds,
			Shards: spec.Shards, Seed: spec.Seed,
		}
	}

	compiled, err := core.CompileCheckin()
	if err != nil {
		return nil, err
	}
	// Every key comes from the soak-owned stream — the deployer first, then
	// one per user index — so a resumed process re-derives the identical
	// accounts.
	keys := soakKeyStream(spec.Seed)
	deployer := nextSoakAccount(keys)

	b, err := newSoakBackend(spec, run, deployer, compiled)
	if err != nil {
		return nil, err
	}
	InstrumentConnector(b.connector(), spec.Obs)

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

	// Deployment phase: one contract per area, registered for routing.
	// Contract identities are a pure function of the spec
	// (soakBackend.handle), so a resumed run skips deployment entirely —
	// the contracts are already in the loaded state — and only spot-checks
	// that the derived handles exist there.
	b.SetRetention(soakRetention)
	reg := core.NewAreaRegistry(spec.Shards)
	for i := 0; i < spec.Areas; i++ {
		if err := reg.Register(soakAreaCode(i), b.handle(i)); err != nil {
			return nil, err
		}
	}
	if run.resumed {
		for _, i := range []int{0, spec.Areas - 1} {
			if h := b.handle(i); !b.deployed(h) {
				return nil, fmt.Errorf("sim: resumed state holds no contract %s for area %s", h.ID(), soakAreaCode(i))
			}
		}
	} else if err := b.deploy(spec.Areas); err != nil {
		return nil, err
	}

	res := &SoakResult{
		Chain: spec.Chain, Areas: spec.Areas, Users: spec.Users,
		Rounds: spec.Rounds, Shards: spec.Shards, Seed: spec.Seed,
		Resumed: run.resumed,
	}
	if err := soakLoad(spec, b, keys, reg, res, run); err != nil {
		return nil, err
	}
	return res, nil
}

// soakLoad runs the load phase: every user checks in once per round, a
// block is sealed per round, checkpoints are written at the configured
// cadence, and the pool is drained at the end.
func soakLoad(spec SoakSpec, b soakBackend, keys *chain.Rand, reg *core.AreaRegistry, res *SoakResult, run *soakRun) error {
	b.SetShards(spec.Shards)

	// Only a fresh run funds the users. Each user submits exactly one
	// check-in per round, which backends rely on (an EVM user's nonce is
	// the round number).
	users := make([]soakAccount, spec.Users)
	targets := make([]*core.Handle, spec.Users)
	areas := reg.Areas()
	for ui := range users {
		users[ui] = nextSoakAccount(keys)
		if !run.resumed {
			b.fund(users[ui].Address)
		}
		h, ok := reg.Lookup(areas[ui%len(areas)])
		if !ok {
			return fmt.Errorf("sim: area %s not registered", areas[ui%len(areas)])
		}
		targets[ui] = h
	}

	blocksBefore := b.height()
	simStart := b.Now()
	if run.resumed {
		blocksBefore = run.blocksAtLoadStart
		simStart = run.simStart
	}
	if run.persist != nil {
		run.persist.meta.BlocksAtLoadStart = blocksBefore
		run.persist.meta.SimStart = simStart
		if !run.resumed {
			if err := run.persist.commit(b, 0, 0, false); err != nil {
				return err
			}
		}
	}
	res.Submitted = run.submitted0
	finish := func() {
		res.Simulated = b.Now() - simStart
		res.Blocks = b.height() - blocksBefore
		if st := b.ShardStats(); st != nil {
			res.Utilization = st.Utilization()
			res.ParallelBatches = st.ParallelBatches
		}
		res.Digest = b.Digest()
		res.StateRoot = b.StateRoot()
		// Check-ins move zero value, so funding minus final balance is
		// exactly the fees a user paid.
		fees := new(big.Int)
		for _, u := range users {
			bal := b.Balance(u.Address)
			fees.Add(fees, new(big.Int).Sub(b.funding(), bal.Base))
			res.FeesPaid = chain.Amount{Base: fees, Unit: bal.Unit}
		}
	}
	for round := run.startRound; round < spec.Rounds; round++ {
		if err := b.submitRound(round, users, targets); err != nil {
			return fmt.Errorf("sim: soak round %d: %w", round, err)
		}
		res.Submitted += uint64(len(users))
		b.step()
		spec.Telemetry.Tick()
		roundsDone := round + 1
		stop := spec.StopAfterRounds > 0 && roundsDone >= spec.StopAfterRounds && roundsDone < spec.Rounds
		if run.persist != nil && (stop || (spec.CheckpointEvery > 0 && roundsDone%spec.CheckpointEvery == 0)) {
			if err := run.persist.commit(b, roundsDone, res.Submitted, false); err != nil {
				return err
			}
		}
		if stop {
			res.Stopped = true
			finish()
			return nil
		}
	}
	for i := 0; i < spec.Rounds*10+50 && b.PendingCount() > 0; i++ {
		b.step()
	}
	spec.Telemetry.Tick()
	if n := b.PendingCount(); n != 0 {
		return fmt.Errorf("sim: soak drain incomplete: %d submissions pending", n)
	}
	finish()
	res.Included = res.Submitted
	if res.Included > 0 {
		res.MeanFeeEuro = res.FeesPaid.Euros() / float64(res.Included)
	}
	if run.persist != nil {
		return run.persist.commit(b, spec.Rounds, res.Submitted, true)
	}
	return nil
}
