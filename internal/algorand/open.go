package algorand

import (
	"errors"
	"fmt"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/mstate"
)

// ErrNoParticipants is Open's refusal of a Config whose sortition has
// nobody to select.
var ErrNoParticipants = errors.New("algorand: no consensus participants")

// Options configures Open. Config and Seed behave exactly as in
// NewChain; Store/Root/Checkpoint select the restart-from-root path.
type Options struct {
	Config Config
	Seed   uint64
	// Store supplies committed trie nodes (e.g. a diskstore.Store). Nil
	// means the purely in-memory path: Open degenerates to NewChain.
	Store mstate.NodeStore
	// Root is the committed ledger root to load from Store. The zero
	// root loads an empty ledger.
	Root mstate.Hash
	// Checkpoint restores the non-state chain position captured by
	// Chain.Checkpoint. Nil opens a fresh chain over the loaded ledger.
	Checkpoint *Checkpoint
}

// PendingGroup is one pending-pool entry inside a Checkpoint.
type PendingGroup struct {
	Group     Group
	Submitted time.Duration
	Delayed   bool
}

// Checkpoint is everything besides the ledger trie a chain needs to
// continue bit-identically after a restart. JSON-serializable so
// callers can park it in a diskstore manifest's meta blob.
type Checkpoint struct {
	chain.Position
	HeadRound uint64
	// HeadSeed feeds the next round's sortition (Step reads prev.Seed).
	HeadSeed chain.Hash32
	AppSeq   uint64
	AssetSeq uint64
	Pending  []PendingGroup
}

// Checkpoint captures the chain's restart point. The ledger trie is not
// included — commit it separately with CommitState — and the snapshot
// borrows the live pending groups, so serialize it before mutating the
// chain further. Chains with a fault injector attached refuse to
// checkpoint (chain.Position.Mark).
func (c *Chain) Checkpoint() (*Checkpoint, error) {
	head := c.Head()
	ck := &Checkpoint{
		Position:  chain.Position{Name: c.cfg.Name, HeadHash: head.Hash, HeadTime: head.Time, StateRoot: c.led.root()},
		HeadRound: head.Round,
		HeadSeed:  head.Seed,
		AppSeq:    c.led.appSeq,
		AssetSeq:  c.led.assetSeq,
	}
	if err := ck.Mark("algorand", c.Faults(), c.clock, c.rng, &c.rcpts); err != nil {
		return nil, err
	}
	for _, p := range c.pool.Entries() {
		ck.Pending = append(ck.Pending, PendingGroup{Group: p.Item, Submitted: p.Submitted, Delayed: p.Delayed})
	}
	return ck, nil
}

// CommitState writes the ledger's trie nodes into store and returns the
// state root. Pair it with Checkpoint, then make both durable (e.g.
// diskstore.Store.Commit with the serialized checkpoint as meta).
func (c *Chain) CommitState(store mstate.NodeStore) (mstate.Hash, error) {
	return c.led.t.Commit(store)
}

// Open builds a chain per Options. With no Store it is exactly
// NewChain: a fresh in-memory chain (NewChain itself is a thin wrapper
// over this path). With a Store it reconstructs the ledger from the
// committed Root instead of replaying rounds, and — when a Checkpoint
// is given — repositions the chain so the next Step continues the
// interrupted run bit-identically. Program and asset caches are warmed
// from the loaded trie (the trie stores TEAL source; parsed programs
// are a pure function of it).
func Open(o Options) (*Chain, error) {
	if o.Config.ParticipantCount < 1 {
		return nil, fmt.Errorf("%w: ParticipantCount is %d", ErrNoParticipants, o.Config.ParticipantCount)
	}
	c := newChain(o.Config, o.Seed)
	if err := c.load(o.Store, o.Root, o.Checkpoint); err != nil {
		return nil, err
	}
	return c, nil
}

// load is Open's restart-from-root half, on a freshly built chain.
func (c *Chain) load(store mstate.NodeStore, root mstate.Hash, ck *Checkpoint) error {
	t, err := chain.LoadState("algorand", store, root, ck != nil)
	if t == nil {
		return err
	}
	c.led.t = t
	c.led.kv = t
	if ck == nil {
		return nil
	}
	if err := ck.Resume("algorand", c.cfg.Name, c.led.root(), c.clock, c.rng, &c.rcpts); err != nil {
		return err
	}
	c.blocks = []*Block{{
		Round:     ck.HeadRound,
		Time:      ck.HeadTime,
		Seed:      ck.HeadSeed,
		Hash:      ck.HeadHash,
		StateRoot: ck.StateRoot,
	}}
	c.led.appSeq = ck.AppSeq
	c.led.assetSeq = ck.AssetSeq
	c.led.round = ck.HeadRound
	c.led.time = uint64(ck.HeadTime / time.Second)
	pending := make([]*chain.Pending[Group], len(ck.Pending))
	for i, p := range ck.Pending {
		pending[i] = &chain.Pending[Group]{Item: p.Group, Submitted: p.Submitted, Delayed: p.Delayed}
	}
	c.pool.Restore(pending)
	// Warm the program and asset caches so post-restart app calls do
	// not re-parse TEAL on every execution (ledgerKV.app's fallback is
	// correct but parses per call), each distinct source once. The leaves
	// come from an external store, so this is also where a malformed one
	// is reported.
	for id := uint64(1); id <= c.led.appSeq; id++ {
		enc, ok := c.led.kv.Get(appMetaKey(id))
		if !ok {
			continue
		}
		a, err := decodeAppMeta(id, enc)
		if err != nil {
			return err
		}
		if a.Deleted {
			continue
		}
		if a.Program, err = c.led.program(a.Source); err != nil {
			return fmt.Errorf("algorand: reparse app %d from state: %w", id, err)
		}
		a.Source = a.Program.Source
		c.led.progs[id] = a
	}
	for id := uint64(1); id <= c.led.assetSeq; id++ {
		enc, ok := c.led.kv.Get(assetMetaKey(id))
		if !ok {
			continue
		}
		a, err := decodeAssetMeta(id, enc)
		if err != nil {
			return err
		}
		c.led.assets[id] = a
	}
	return nil
}

// Fund credits addr out of thin air, like a genesis allocation. Soak
// harnesses use it with keys they derive themselves, so account setup
// never consumes the chain's own rng stream — which a resumed run could
// not replay. A zero amount is a no-op (no phantom entries).
func (c *Chain) Fund(addr chain.Address, microAlgos uint64) {
	c.led.credit(addr, microAlgos)
}
