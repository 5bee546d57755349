package eth

import (
	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/mstate"
)

// What eth supplies to chain.RunSharded, the block-application kernel both
// families share: each transaction's conflict keys, and an executor over a
// state view that is either the canonical state or a write-buffer overlay
// of it. Overlays touch disjoint state by construction, so committing them
// and then applying the serialized effects (proposer tip, burn tally,
// explorer rows) in canonical order yields a block bit-identical to the
// serial path at any shard count — TestShardedBlockBitIdentity is the gate.

// ConflictKeys names the state a transaction may touch: its sender's
// account (nonce + balance), the target's account (value credit) and the
// target contract's code and storage. For deployments the target is the
// deterministic contract address. Beneficiaries named only in calldata
// (e.g. a wallet argument the contract pays out to) are not derivable
// without executing, so they carry no key; in the PoL workloads such
// payouts always come from the area contract already in the component, and
// the bit-identity tests verify the assumption.
func (tx *Tx) ConflictKeys() []chain.ConflictKey {
	var target chain.Address
	if tx.To == nil {
		target = chain.ContractAddress(tx.From, tx.Nonce)
	} else {
		target = *tx.To
	}
	return []chain.ConflictKey{
		chain.AccountKey(tx.From),
		chain.AccountKey(target),
		chain.ContractKey(target),
	}
}

// execState is the world-state surface transaction execution needs: the
// EVM's StateDB plus nonce and code management. Both the canonical state
// and the per-shard overlays implement it.
type execState interface {
	evm.StateDB
	Nonce(chain.Address) uint64
	SetNonce(chain.Address, uint64)
	Code(chain.Address) ([]byte, bool)
	SetCode(chain.Address, []byte)
	DeleteCode(chain.Address)
}

var (
	_ execState = (*state)(nil)
	_ execState = (*shardState)(nil)
)

// shardState is a write-buffer overlay over the canonical state: its own
// writes are buffered as final key values and read before the canonical
// trie, which stands still while the overlay is read, and the buffer
// replays onto the canonical trie at commit. All state semantics
// (delete-on-zero storage, phantom-account and negative-balance
// invariants, code copying) come from the shared stateView, so the
// overlay cannot drift from the serial path.
type shardState struct {
	stateView
	ov   *mstate.Overlay
	base *state
}

func newShardState(base *state) *shardState {
	ov := mstate.NewOverlay(base.t)
	return &shardState{stateView: stateView{kv: ov}, ov: ov, base: base}
}

// commit replays the overlay's buffered writes onto the base trie. Overlays from
// different shards hold disjoint key sets, so commit order across shards
// does not matter; within an overlay every key holds its final value, so
// replay order does not matter either.
func (s *shardState) commit() {
	s.ov.CommitTo(s.base.t)
}

// Digest hashes the chain's externally observable end state — head block,
// fee accounting, the world-state Merkle root and the rolling receipt
// accumulator — into one value. The determinism gates compare digests
// across shard counts and GOMAXPROCS settings: equal digests mean
// bit-identical blocks and state. The world state enters through the
// state root (every entry is a trie leaf) and receipts are folded into
// the accumulator at inclusion time in canonical block order, so Digest
// is O(1) instead of a full-world sort-and-hash — which also makes it
// independent of how much pruned history (SetRetention) is still held.
// A receipt's fee is folded in encodeBalance's layout.
func (c *Chain) Digest() chain.Hash32 {
	var h chain.Hasher
	head := c.Head()
	h.Bytes(head.Hash[:])
	h.U64(head.Number)
	h.Bytes(c.baseFee.AppendBytes(nil))
	h.Bytes(c.burned.AppendBytes(nil))
	h.Bytes(c.tipped.AppendBytes(nil))
	root := c.st.Root()
	h.Bytes(root[:])
	c.rcpts.Digest(&h)
	return h.Sum()
}
