package sim

import (
	"encoding/json"
	"fmt"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
)

// soakCheckpointVersion guards the manifest-meta layout; a resumed process
// refuses manifests written by an incompatible harness.
const soakCheckpointVersion = 2

// soakCheckpoint is the JSON blob a persisted soak parks in the diskstore
// manifest's meta field next to the committed state root: the spec that
// produced the run plus everything the load loop needs to continue from
// the recorded round — the chain-level checkpoint, how many rounds and
// submissions are already behind us, and the measurement baselines
// (block height and simulated clock at load start) so the resumed result
// reports totals for the whole run, not just its own slice.
type soakCheckpoint struct {
	Version int
	Chain   ChainName
	Areas   int
	Users   int
	Rounds  int
	Shards  int
	Seed    uint64

	// RoundsDone is how many load rounds the run had completed when the
	// checkpoint was taken; a resumed process continues at this round.
	RoundsDone int
	// Submitted is the user-transaction count across all completed rounds,
	// including transactions still pending in the chain checkpoint.
	Submitted uint64
	// BlocksAtLoadStart and SimStart anchor the Blocks/Simulated result
	// fields to the original load start across any number of restarts.
	BlocksAtLoadStart uint64
	SimStart          time.Duration
	// Drained marks the post-drain final checkpoint: the run is complete
	// and resuming it is a digest-preserving no-op.
	Drained bool

	// Checkpoint is the chain's own checkpoint (core.Family's
	// MarshalCheckpoint).
	Checkpoint json.RawMessage
}

// soakPersist writes soak checkpoints into a diskstore: commit the trie
// nodes, capture the chain checkpoint, and publish both atomically via the
// store's manifest. meta carries the static spec fields; the per-commit
// progress fields are stamped on each write.
type soakPersist struct {
	store *diskstore.Store
	meta  soakCheckpoint
}

// commit captures the chain's checkpoint, commits its world state and
// publishes both — with the progress fields — in one manifest write.
func (p *soakPersist) commit(f core.Family, roundsDone int, submitted uint64, drained bool) (err error) {
	m := p.meta
	m.RoundsDone = roundsDone
	m.Submitted = submitted
	m.Drained = drained
	if m.Checkpoint, err = f.MarshalCheckpoint(); err != nil {
		return err
	}
	root, err := f.CommitState(p.store)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("sim: encode soak checkpoint: %w", err)
	}
	return p.store.Commit(root, blob)
}

// soakRun carries the restart position through RunSoak's setup into the
// load loops. The zero value is a fresh, non-persisted run.
type soakRun struct {
	persist *soakPersist

	resumed           bool
	startRound        int
	submitted0        uint64
	blocksAtLoadStart uint64
	simStart          time.Duration

	// root and the chain's checkpoint are what a resumed run restores
	// the chain onto (core.Family's Restore).
	root       mstate.Hash
	checkpoint json.RawMessage
}

// loadSoakManifest reads the committed soak checkpoint out of an opened
// store and reconciles it with the caller's spec: the manifest is
// authoritative for the workload shape (chain, areas, users, rounds,
// seed), and any non-zero caller value that contradicts it is an error
// rather than a silently different workload. Shards may be overridden —
// the fan-out width does not reach the digest.
func loadSoakManifest(store *diskstore.Store, spec SoakSpec) (SoakSpec, *soakRun, error) {
	root, ok := store.Root()
	if !ok {
		return spec, nil, fmt.Errorf("sim: %s holds no committed soak state to resume", spec.StateDir)
	}
	var ck soakCheckpoint
	if err := json.Unmarshal(store.Meta(), &ck); err != nil {
		return spec, nil, fmt.Errorf("sim: decode soak manifest in %s: %w", spec.StateDir, err)
	}
	if ck.Version != soakCheckpointVersion {
		return spec, nil, fmt.Errorf("sim: soak manifest version %d, this harness speaks %d", ck.Version, soakCheckpointVersion)
	}
	if spec.Chain != "" && spec.Chain != ck.Chain {
		return spec, nil, fmt.Errorf("sim: resume chain %q does not match manifest chain %q", spec.Chain, ck.Chain)
	}
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"areas", spec.Areas, ck.Areas},
		{"users", spec.Users, ck.Users},
		{"rounds", spec.Rounds, ck.Rounds},
	} {
		if f.got != 0 && f.got != f.want {
			return spec, nil, fmt.Errorf("sim: resume %s=%d does not match manifest %s=%d", f.name, f.got, f.name, f.want)
		}
	}
	if spec.Seed != 0 && spec.Seed != ck.Seed {
		return spec, nil, fmt.Errorf("sim: resume seed=%d does not match manifest seed=%d", spec.Seed, ck.Seed)
	}
	spec.Chain = ck.Chain
	spec.Areas, spec.Users, spec.Rounds = ck.Areas, ck.Users, ck.Rounds
	spec.Seed = ck.Seed
	if spec.Shards < 1 {
		spec.Shards = ck.Shards
	}
	run := &soakRun{
		resumed:           true,
		startRound:        ck.RoundsDone,
		submitted0:        ck.Submitted,
		blocksAtLoadStart: ck.BlocksAtLoadStart,
		simStart:          ck.SimStart,
		root:              root,
		checkpoint:        ck.Checkpoint,
	}
	return spec, run, nil
}

// soakKeyStream is the soak-owned key-derivation stream: forked from the
// spec seed, never from the chain's own rng, so a resumed process can
// re-derive the exact same accounts without replaying the chain's stream.
// Draw order is fixed — the deployer first, then one user per index.
func soakKeyStream(seed uint64) *chain.Rand { return chain.NewRand(seed).Fork("soak:keys") }
