package eth

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"agnopol/internal/chain"
	"agnopol/internal/mstate"
	"agnopol/internal/u256"
)

// ErrNoValidators is Open's refusal of a Config with no validator to
// propose a block.
var ErrNoValidators = errors.New("eth: no validators")

// Options configures Open. Config and Seed behave exactly as in
// NewChain; Store/Root/Checkpoint select the restart-from-root path.
type Options struct {
	Config Config
	Seed   uint64
	// Store supplies committed trie nodes (e.g. a diskstore.Store). Nil
	// means the purely in-memory path: Open degenerates to NewChain. A
	// Store needs a Checkpoint.
	Store mstate.NodeStore
	// Root is the committed state root to load from Store. The zero
	// root loads an empty state.
	Root mstate.Hash
	// Checkpoint restores the non-state chain position (head block, fee
	// accounting, clock, rng, mempool) captured by Chain.Checkpoint with
	// the state at Root. It is required with a Store and refused without
	// one.
	Checkpoint *Checkpoint
}

// Checkpoint is everything besides the world state a chain needs to
// continue bit-identically after a restart: restoring it next to the
// state trie makes Step produce the same blocks, and Digest the same
// value, as a process that never stopped. It is JSON-serializable so
// callers can park it in a diskstore manifest's meta blob. The fee
// figures are minimal big-endian bytes, never nil: zero is an empty slice,
// as big.Int.Bytes returns it, so it serializes as "" and not null.
type Checkpoint struct {
	chain.Position
	HeadNumber  uint64
	HeadBaseFee []byte
	BaseFee     []byte
	Burned      []byte
	Tipped      []byte
	// SpikeBlocksLeft carries an in-flight congestion episode across the
	// restart; the demand model continues it instead of resampling.
	SpikeBlocksLeft int
	Mempool         []*chain.Pending[*Tx]
}

// Checkpoint captures the chain's restart point. The world state is not
// included — commit it separately with CommitState — and the snapshot
// borrows the live mempool transactions, so serialize it before
// mutating the chain further. Chains with a fault injector attached
// refuse to checkpoint (chain.Position.Mark).
func (c *Chain) Checkpoint() (*Checkpoint, error) {
	head := c.Head()
	ck := &Checkpoint{
		Position:        chain.Position{Name: c.cfg.Name, HeadHash: head.Hash, HeadTime: head.Time, StateRoot: c.st.Root()},
		HeadNumber:      head.Number,
		HeadBaseFee:     head.BaseFee.AppendBytes([]byte{}),
		BaseFee:         c.baseFee.AppendBytes([]byte{}),
		Burned:          c.burned.AppendBytes([]byte{}),
		Tipped:          c.tipped.AppendBytes([]byte{}),
		SpikeBlocksLeft: c.spikeBlocksLeft,
		Mempool:         slices.Clone(c.pool.Entries()),
	}
	if err := ck.Mark("eth", c.Faults(), c.clock, c.rng, &c.rcpts); err != nil {
		return nil, err
	}
	return ck, nil
}

// CommitState writes the world state's trie nodes into store and
// returns the state root. Pair it with Checkpoint, then make both
// durable (e.g. diskstore.Store.Commit with the serialized checkpoint
// as the manifest meta).
func (c *Chain) CommitState(store mstate.NodeStore) (mstate.Hash, error) {
	return c.st.t.Commit(store)
}

// Open builds a chain per Options. With no Store it is exactly
// NewChain: a fresh in-memory chain (NewChain itself is a thin wrapper
// over this path). With a Store and its Checkpoint it reconstructs the
// world state from the committed Root instead of replaying blocks and
// repositions the chain so the next Step continues the interrupted run
// bit-identically. A checkpointed mempool entry runs through admission's
// stateless half again — Verify, then the gas-limit bounds and the fee
// floor — and one that fails it fails Open with that check's error. The
// stateful half, nonce and balance, does not re-run: an entry admitted
// against an earlier state may fail it now, and the resumed chain must
// include what the uninterrupted one would. A Config with no validators
// is refused (ErrNoValidators): no block would have a proposer.
func Open(o Options) (*Chain, error) {
	if o.Config.ValidatorCount < 1 {
		return nil, fmt.Errorf("%w: ValidatorCount is %d", ErrNoValidators, o.Config.ValidatorCount)
	}
	c := newChain(o.Config, o.Seed)
	if err := c.load(o.Store, o.Root, o.Checkpoint); err != nil {
		return nil, err
	}
	return c, nil
}

// load is Open's restart-from-root half, on a freshly built chain.
func (c *Chain) load(store mstate.NodeStore, root mstate.Hash, ck *Checkpoint) error {
	t, err := chain.LoadState("eth", store, root, ck != nil)
	if t == nil {
		return err
	}
	c.st = &state{stateView: stateView{kv: t}, t: t}
	if err := ck.Resume("eth", c.cfg.Name, c.st.Root(), c.clock, c.rng, &c.rcpts); err != nil {
		return err
	}
	c.head = &Block{
		Number:    ck.HeadNumber,
		Time:      ck.HeadTime,
		Hash:      ck.HeadHash,
		BaseFee:   u256.SetBytes(ck.HeadBaseFee),
		StateRoot: ck.StateRoot,
	}
	c.baseFee = u256.SetBytes(ck.BaseFee)
	c.burned = u256.SetBytes(ck.Burned)
	c.tipped = u256.SetBytes(ck.Tipped)
	c.spikeBlocksLeft = ck.SpikeBlocksLeft
	for i, p := range ck.Mempool {
		if p == nil || p.Item == nil {
			return fmt.Errorf("%w: eth: mempool entry %d is empty", chain.ErrBadCheckpoint, i)
		}
		if err := p.Item.Verify(); err != nil {
			return fmt.Errorf("%w: eth: mempool entry %d: %w", chain.ErrBadCheckpoint, i, err)
		}
		if err := c.limits(p.Item); err != nil {
			return fmt.Errorf("%w: eth: mempool entry %d: %w", chain.ErrBadCheckpoint, i, err)
		}
	}
	c.pool.Restore(ck.Mempool)
	return nil
}

// Fund credits addr out of thin air, like a genesis allocation. Soak
// harnesses use it with keys they derive themselves, so account setup
// never consumes the chain's own rng stream — which a resumed run could
// not replay. An amount no 256-bit word holds — nil, negative, 2^256 or
// more — credits nothing, and one that would take addr's balance past
// 2^256-1 panics (stateView.AddBalance).
func (c *Chain) Fund(addr chain.Address, amount *big.Int) {
	if v, err := amountWord(amount); err == nil {
		c.st.AddBalance(addr, v)
	}
}
