package algorand

import (
	"agnopol/internal/chain"
	"agnopol/internal/mstate"
)

// What algorand supplies to chain.RunSharded, the block-application kernel
// both families share: each group's conflict keys — over senders, payment
// receivers and called applications — and write-buffer overlays of the
// ledger: one per shard, or one for the whole round on the serial path.
// executeGroup rolls a failed group back inside its overlay through the
// overlay's revert point. Rounds containing application or asset creation
// (which advance chain-global sequence counters) run serially wholesale,
// so creation order is always canonical.

// ConflictKeys names the state an atomic group may touch. Application calls
// carry the app's key and its escrow account (inner payments debit it);
// beneficiary wallets named only in call arguments are paid from the
// escrow, which is already in the component, so they need no key of their
// own — the bit-identity tests verify the assumption on the PoL workloads.
func (g Group) ConflictKeys() []chain.ConflictKey {
	keys := make([]chain.ConflictKey, 0, 2*len(g))
	for _, tx := range g {
		keys = append(keys, chain.AccountKey(tx.Sender))
		switch tx.Type {
		case TxPay:
			keys = append(keys, chain.AccountKey(tx.Receiver))
		case TxAppCall:
			keys = append(keys,
				chain.AppKey(tx.AppID),
				chain.AccountKey(appEscrowAddress(tx.AppID)))
		case TxAppCreate, TxAssetCreate:
			keys = append(keys, chain.GlobalKey())
		case TxAssetOptIn:
			keys = append(keys, chain.AssetKey(tx.AssetID))
		case TxAssetTransfer:
			keys = append(keys,
				chain.AssetKey(tx.AssetID),
				chain.AccountKey(tx.Receiver))
		}
	}
	return keys
}

// shardable reports whether a group may run on the concurrent path:
// payments and application calls only. Creation and asset traffic advances
// global sequences, so any such group serializes the whole round.
func (g Group) shardable() bool {
	for _, tx := range g {
		if tx.Type != TxPay && tx.Type != TxAppCall {
			return false
		}
	}
	return true
}

// roundConflictKeys is the keysOf a round hands chain.RunSharded: each
// group's own ConflictKeys, unless the round holds a group that is not
// shardable — creations and asset transactions advance ledger-wide
// sequences and caches, so every group of such a round conflicts on the
// global key, which leaves one component and the serial path.
func roundConflictKeys(sel []*chain.Pending[Group]) func(int) []chain.ConflictKey {
	for _, p := range sel {
		if !p.Item.shardable() {
			return func(int) []chain.ConflictKey { return []chain.ConflictKey{chain.GlobalKey()} }
		}
	}
	return func(i int) []chain.ConflictKey { return sel[i].Item.ConflictKeys() }
}

// ledgerOverlay is a write-buffer view over the ledger: an mstate.Overlay
// buffers its writes and reads the rest from the canonical trie, and every
// ledger semantic — value encodings, opt-in markers, pay errors — comes
// from the shared ledgerKV accessor layer, so the overlay cannot drift
// from the canonical ledger.
type ledgerOverlay struct {
	ledgerKV
	ov *mstate.Overlay
}

// fork opens a write-buffer overlay over the canonical ledger, which must
// not be written while the overlay is read (mstate.NewOverlay).
func (l *ledger) fork() *ledgerOverlay {
	ov := mstate.NewOverlay(l.t)
	return &ledgerOverlay{ledgerKV{kv: ov, led: l}, ov}
}

// adopt replays an overlay's buffered writes onto the canonical trie. Overlays
// from different shards hold disjoint key sets, so commit order across
// shards does not matter; within an overlay every key holds its final
// value, so replay order does not matter either.
func (l *ledger) adopt(child *ledgerOverlay) { child.ov.CommitTo(l.t) }

// Digest hashes the chain's externally observable end state — head block,
// sequence counters, the ledger's Merkle root and the rolling receipt
// accumulator — into one value. The determinism gates compare digests
// across shard counts and GOMAXPROCS settings: equal digests mean
// bit-identical rounds and state. The whole ledger (balances, app
// key/value state, assets, holdings) enters through the state root, and
// receipts fold into the accumulator at inclusion time in canonical round
// order, so Digest is O(1) instead of a full-world sort-and-hash — which
// also makes it independent of how much pruned history (SetRetention) is
// still held.
func (c *Chain) Digest() chain.Hash32 {
	var h chain.Hasher
	head := c.Head()
	h.Bytes(head.Hash[:])
	h.U64(head.Round)
	h.U64(c.led.appSeq)
	h.U64(c.led.assetSeq)
	root := c.led.root()
	h.Bytes(root[:])
	c.rcpts.Digest(&h)
	return h.Sum()
}
