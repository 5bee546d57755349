package algorand

import (
	"encoding/binary"
	"fmt"
	"sync"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/mstate"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// Sharded round application. Groups touching disjoint state — determined by
// conflict keys over senders, payment receivers and called applications —
// execute concurrently on copy-on-write ledger overlays; the per-group
// atomic rollback the serial path gets from whole-ledger snapshots is
// provided by forking a second overlay per group, which is also far
// cheaper than snapshotting the world. Rounds containing application or
// asset creation (which advance chain-global sequence counters) fall back
// to the serial path wholesale, so creation order is always canonical.

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

// ledgerView is the surface group execution needs from its backing state:
// the AVM's Ledger plus app lookup, raw balance writes, and overlay
// forking. Both the canonical ledger and overlays implement it, so
// overlays stack — a shard overlay over the ledger, a per-group rollback
// overlay over the shard's.
type ledgerView interface {
	avm.Ledger
	app(id uint64) *App
	setBalance(addr chain.Address, v uint64)
	fork() *ledgerOverlay
	adopt(*ledgerOverlay)
}

var (
	_ ledgerView = (*ledger)(nil)
	_ ledgerView = (*ledgerOverlay)(nil)
)

// ledgerOverlay is a copy-on-write view over the ledger or another
// overlay: an mstate.Overlay absorbs reads and writes against a private
// trie fork, and every ledger semantic — value encodings, opt-in
// markers, pay errors — comes from the shared ledgerKV accessor layer,
// so the overlay cannot drift from the serial path.
type ledgerOverlay struct {
	ledgerKV
	ov *mstate.Overlay
}

// fork opens a copy-on-write overlay over the canonical ledger.
func (l *ledger) fork() *ledgerOverlay {
	ov := mstate.NewOverlay(l.t)
	return &ledgerOverlay{ledgerKV{kv: ov, led: l}, ov}
}

// adopt replays an overlay's journal onto the canonical trie. Overlays
// from different shards hold disjoint key sets, so commit order across
// shards does not matter; within an overlay every key holds its final
// value, so replay order does not matter either.
func (l *ledger) adopt(child *ledgerOverlay) { child.ov.CommitTo(l.t) }

// fork opens a nested overlay (per-group atomic rollback inside a shard).
func (o *ledgerOverlay) fork() *ledgerOverlay {
	ov := o.ov.Fork()
	return &ledgerOverlay{ledgerKV{kv: ov, led: o.led}, ov}
}

// adopt folds a nested overlay's writes into this one.
func (o *ledgerOverlay) adopt(child *ledgerOverlay) { o.ov.Adopt(child.ov) }

// groupEffects carries a group's deferred globals out of the sharded
// executor: the fee-sink credit and the fee-counter increment touch state
// shared by every shard, so Step applies them at merge time in canonical
// order.
type groupEffects struct {
	// feeSink is the µAlgo credit owed to the fee sink (the fees actually
	// collected — on a revert, only from senders who could still pay).
	feeSink uint64
	// fees is the group's total fee for the obs counter; zero when the
	// initial fee debit failed and nothing was charged.
	fees uint64
}

// executeGroupSharded applies one atomic group on top of parent — a shard's
// overlay — mirroring executeGroup exactly for the shardable transaction
// types. Atomic rollback is a forked overlay that is simply discarded on
// failure; fees are then re-charged from a fresh fork, as the serial
// path does after restoring its snapshot.
func (c *Chain) executeGroupSharded(parent ledgerView, g Group, blk *Block) (*chain.Receipt, groupEffects) {
	rcpt := &chain.Receipt{
		TxHash:      g.Hash(),
		BlockNumber: blk.Round,
		Included:    blk.Time,
	}
	var eff groupEffects

	totalFee := uint64(0)
	for _, tx := range g {
		totalFee += tx.Fee
	}

	o := parent.fork()

	// Fees first; insufficient fee balance fails the group outright.
	for _, tx := range g {
		bal := o.Balance(tx.Sender)
		if bal < tx.Fee {
			rcpt.Reverted = true
			rcpt.RevertMsg = "insufficient balance for fee"
			rcpt.Fee = chain.NewAmount(microToBig(0), c.cfg.Unit)
			return rcpt, eff
		}
		o.setBalance(tx.Sender, bal-tx.Fee)
	}
	eff.fees = totalFee

	// The group's payment (if any) feeds `gtxn 0 Amount`.
	payAmount := uint64(0)

	var prof obs.Profiler
	if c.obs != nil {
		prof = c.obs.prof
	}

	err := func() error {
		for _, tx := range g {
			switch tx.Type {
			case TxPay:
				if err := o.Pay(tx.Sender, tx.Receiver, tx.Amount); err != nil {
					return err
				}
				payAmount = tx.Amount
			case TxAppCall:
				app := o.app(tx.AppID)
				if app == nil {
					return fmt.Errorf("algorand: no application %d", tx.AppID)
				}
				res := avm.Execute(app.Program, o, avm.TxContext{
					Sender: tx.Sender, AppID: tx.AppID,
					Args: tx.Args, OnCompletion: tx.OnCompletion,
					PayAmount: payAmount, Fee: tx.Fee,
					BudgetTxns: len(g), Profiler: prof,
				})
				rcpt.GasUsed += res.Cost
				rcpt.Logs = append(rcpt.Logs, res.Logs...)
				if !res.Approved {
					return fmt.Errorf("algorand: call rejected: %w", errOf(res))
				}
				if res.Return != nil {
					rcpt.ReturnValue = res.Return
				}
			default:
				// applyRound never routes other types here.
				return fmt.Errorf("algorand: tx type %d not shardable", tx.Type)
			}
		}
		return nil
	}()

	if err != nil {
		// Discard the group's overlay — everything except the fees rolls
		// back — then re-charge fees where the pre-group balance allows.
		fees := make(map[chain.Address]uint64)
		for _, tx := range g {
			fees[tx.Sender] += tx.Fee
		}
		o = parent.fork()
		for addr, fee := range fees {
			if bal := o.Balance(addr); bal >= fee {
				o.setBalance(addr, bal-fee)
				eff.feeSink += fee
			}
		}
		rcpt.Reverted = true
		rcpt.RevertMsg = err.Error()
	} else {
		eff.feeSink = totalFee
	}
	parent.adopt(o)
	rcpt.Fee = chain.NewAmount(microToBig(totalFee), c.cfg.Unit)
	return rcpt, eff
}

// SetShards configures how many execution shards Step may fan out to; n <= 1
// keeps the serial path. The setting changes scheduling only — round
// contents are identical at every value.
func (c *Chain) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	c.shards = n
	c.shardStats = chain.NewShardStats(n)
}

// Shards returns the configured shard count.
func (c *Chain) Shards() int {
	if c.shards < 1 {
		return 1
	}
	return c.shards
}

// ShardStats returns a copy of the per-shard execution tallies accumulated
// since SetShards, or nil when sharding was never configured.
func (c *Chain) ShardStats() *chain.ShardStats {
	if c.shardStats == nil {
		return nil
	}
	cp := chain.NewShardStats(len(c.shardStats.Txs))
	copy(cp.Txs, c.shardStats.Txs)
	copy(cp.Gas, c.shardStats.Gas)
	cp.ParallelBatches = c.shardStats.ParallelBatches
	return cp
}

// applyRound executes one round's propagated groups and returns their
// receipts plus deferred effects. Rounds of payments and app calls fan out
// across conflict components when sharding is configured; anything else
// runs the serial executeGroup path, which applies its effects inline
// (their effects entries stay zero).
func (c *Chain) applyRound(sel []*pendingGroup, blk *Block) ([]*chain.Receipt, []groupEffects) {
	receipts := make([]*chain.Receipt, len(sel))
	effects := make([]groupEffects, len(sel))
	if len(sel) == 0 {
		return receipts, effects
	}
	serial := func() {
		var gas uint64
		for i, p := range sel {
			receipts[i] = c.executeGroup(p.group, blk)
			gas += receipts[i].GasUsed
		}
		c.shardStats.Record(0, uint64(len(sel)), gas)
	}
	if c.shards <= 1 || len(sel) < 2 {
		serial()
		return receipts, effects
	}
	for _, p := range sel {
		if !p.group.shardable() {
			serial()
			return receipts, effects
		}
	}
	comps := chain.Partition(len(sel), func(i int) []chain.ConflictKey {
		return sel[i].group.ConflictKeys()
	})
	if len(comps) < 2 {
		serial()
		return receipts, effects
	}
	nshards := c.shards
	if nshards > len(comps) {
		nshards = len(comps)
	}
	bins := chain.Assign(comps, nshards, func(i int) uint64 {
		return uint64(len(sel[i].group))
	})
	overlays := make([]*ledgerOverlay, nshards)
	shardTxs := make([]uint64, nshards)
	shardGas := make([]uint64, nshards)
	var wg sync.WaitGroup
	for si := 0; si < nshards; si++ {
		overlays[si] = c.led.fork()
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for _, comp := range bins[si] {
				for _, i := range comp {
					receipts[i], effects[i] = c.executeGroupSharded(overlays[si], sel[i].group, blk)
					shardTxs[si]++
					shardGas[si] += receipts[i].GasUsed
				}
			}
		}(si)
	}
	wg.Wait()
	for si, o := range overlays {
		c.led.adopt(o)
		c.shardStats.Record(si, shardTxs[si], shardGas[si])
	}
	if c.shardStats != nil {
		c.shardStats.ParallelBatches++
	}
	return receipts, effects
}

// SubmitBatch validates and queues a batch of signed groups in one call.
// Signature verification runs concurrently when sharding is configured;
// admission (fee floor, fault draws, pending append) stays serial in slice
// order, so the pending pool and fault streams are identical to len(gs)
// Submit calls. Result slot i is the hash or error for gs[i].
func (c *Chain) SubmitBatch(gs []Group) ([]chain.Hash32, []error) {
	hashes := make([]chain.Hash32, len(gs))
	errs := make([]error, len(gs))
	chain.FanOut(len(gs), c.Shards(), func(i int) {
		for _, tx := range gs[i] {
			if errs[i] = tx.Verify(); errs[i] != nil {
				return
			}
		}
	})
	for i, g := range gs {
		if errs[i] == nil {
			hashes[i], errs[i] = c.submitVerified(g)
		}
	}
	return hashes, errs
}

// PendingCount reports the pending-pool depth.
func (c *Chain) PendingCount() int { return len(c.pending) }

// Digest hashes the chain's externally observable end state — head block,
// sequence counters, the ledger's Merkle root and the rolling receipt
// accumulator — into one value. The determinism gates compare digests
// across shard counts and GOMAXPROCS settings: equal digests mean
// bit-identical rounds and state. The whole ledger (balances, app
// key/value state, assets, holdings) enters through the state root, and
// receipts fold into the accumulator at inclusion time in canonical round
// order, so Digest is O(1) instead of a full-world sort-and-hash — which
// also makes it independent of how much pruned history (SetRetention) is
// still held. Algorand amounts are uint64, so no sign encoding is needed
// here (contrast eth's encodeBalance).
func (c *Chain) Digest() chain.Hash32 {
	var buf []byte
	put := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		buf = append(buf, n[:]...)
		buf = append(buf, b...)
	}
	putU64 := func(v uint64) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], v)
		buf = append(buf, n[:]...)
	}
	head := c.Head()
	put(head.Hash[:])
	putU64(head.Round)
	putU64(c.led.appSeq)
	putU64(c.led.assetSeq)
	root := c.led.root()
	put(root[:])
	put(c.rcptAcc[:])
	putU64(c.rcptCount)
	return chain.Hash32(polcrypto.Hash(buf))
}

// foldReceipt absorbs one included receipt into the rolling digest
// accumulator. Called from Step's canonical merge loop, so the fold order
// is round order — identical at every shard count. Fees are µAlgo uint64
// amounts and cannot be negative, so the raw magnitude encoding is
// unambiguous.
func (c *Chain) foldReceipt(h chain.Hash32, r *chain.Receipt) {
	var buf []byte
	put := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		buf = append(buf, n[:]...)
		buf = append(buf, b...)
	}
	putU64 := func(v uint64) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], v)
		buf = append(buf, n[:]...)
	}
	put(c.rcptAcc[:])
	put(h[:])
	putU64(r.BlockNumber)
	putU64(r.GasUsed)
	putU64(uint64(r.Submitted))
	putU64(uint64(r.Included))
	if r.Reverted {
		putU64(1)
	} else {
		putU64(0)
	}
	put([]byte(r.RevertMsg))
	put(r.ReturnValue)
	if r.Fee.Base != nil {
		put(r.Fee.Base.Bytes())
	}
	c.rcptAcc = chain.Hash32(polcrypto.Hash(buf))
	c.rcptCount++
}
