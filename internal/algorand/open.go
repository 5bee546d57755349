package algorand

import (
	"errors"
	"fmt"
	"slices"
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
	// means the purely in-memory path: Open degenerates to NewChain. A
	// Store needs a Checkpoint.
	Store mstate.NodeStore
	// Root is the committed ledger root to load from Store. The zero
	// root loads an empty ledger.
	Root mstate.Hash
	// Checkpoint restores the non-state chain position captured by
	// Chain.Checkpoint with the ledger at Root. It is required with a
	// Store and refused without one.
	Checkpoint *Checkpoint
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
	Pending  []*chain.Pending[Group]
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
		Pending:   slices.Clone(c.pool.Entries()),
	}
	if err := ck.Mark("algorand", c.Faults(), c.clock, c.rng, &c.rcpts); err != nil {
		return nil, err
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
// over this path). With a Store and its Checkpoint it reconstructs the
// ledger from the committed Root instead of replaying rounds and
// repositions the chain so the next Step continues the interrupted run
// bit-identically. The app table is rebuilt from the loaded trie (the
// trie stores TEAL source; parsed programs are a pure function of it). A
// checkpointed pending group runs through admission again — Verify, then
// the non-empty and fee-floor checks, none of which reads the ledger — and
// one that fails it fails Open with that check's error.
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
	if err := ck.Resume("algorand", c.cfg.Name, c.led.root(), c.clock, c.rng, &c.rcpts); err != nil {
		return err
	}
	c.head = &Block{
		Round:     ck.HeadRound,
		Time:      ck.HeadTime,
		Seed:      ck.HeadSeed,
		Hash:      ck.HeadHash,
		StateRoot: ck.StateRoot,
	}
	c.led.appSeq = ck.AppSeq
	c.led.assetSeq = ck.AssetSeq
	c.led.time = uint64(ck.HeadTime / time.Second)
	for i, p := range ck.Pending {
		if p == nil {
			return fmt.Errorf("%w: algorand: pending group %d is null", chain.ErrBadCheckpoint, i)
		}
		if err := p.Item.Verify(); err != nil {
			return fmt.Errorf("%w: algorand: pending group %d: %w", chain.ErrBadCheckpoint, i, err)
		}
		if err := admit(p.Item); err != nil {
			return fmt.Errorf("%w: algorand: pending group %d: %w", chain.ErrBadCheckpoint, i, err)
		}
	}
	c.pool.Restore(ck.Pending)
	// Rebuild the app table, parsing each distinct source once. The leaves
	// come from an external store, so this is also where a malformed app or
	// asset leaf is reported. Apps take ids 1, 2, … in turn and a failed
	// creation hands its id back, so there is a leaf for every id up to
	// AppSeq and none past it; an AppSeq short of the leaves would let the
	// next creation take a live app's id and globals.
	for id := uint64(1); id <= c.led.appSeq; id++ {
		enc, ok := c.led.kv.Get(appMetaKey(id))
		if !ok {
			return fmt.Errorf("%w: app %d of %d has no metadata", ErrCorruptState, id, c.led.appSeq)
		}
		src, err := decodeAppMeta(id, enc)
		if err != nil {
			return err
		}
		p, err := c.led.program(src)
		if err != nil {
			return fmt.Errorf("algorand: reparse app %d from state: %w", id, err)
		}
		c.led.apps[id] = p
	}
	if c.led.kv.Has(appMetaKey(c.led.appSeq + 1)) {
		return fmt.Errorf("%w: app %d exists past the checkpoint's AppSeq", ErrCorruptState, c.led.appSeq+1)
	}
	for id := uint64(1); id <= c.led.assetSeq; id++ {
		if enc, ok := c.led.kv.Get(assetMetaKey(id)); ok {
			if _, err := decodeAssetMeta(id, enc); err != nil {
				return err
			}
		}
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
