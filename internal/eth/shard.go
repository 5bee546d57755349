package eth

import (
	"encoding/binary"
	"sync"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/mstate"
	"agnopol/internal/polcrypto"
)

// Sharded block application. Selected transactions are partitioned into
// conflict components (chain.Partition over each transaction's
// ConflictKeys), components are packed onto shards, and each shard executes
// its components serially against a copy-on-write overlay of the world
// state while shards run concurrently. Overlays touch disjoint state by
// construction, so committing them and then applying the serialized
// effects (proposer tip, burn tally, explorer rows) in canonical order
// yields a block bit-identical to the serial path at any shard count —
// TestShardedBlockBitIdentity is the gate.

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

// shardState is a copy-on-write overlay over the canonical state: a
// private trie fork absorbs reads and writes, and a journal of final key
// values replays onto the canonical trie at commit. All state semantics
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

// commit replays the overlay's journal onto the base trie. Overlays from
// different shards hold disjoint key sets, so commit order across shards
// does not matter; within an overlay every key holds its final value, so
// replay order does not matter either.
func (s *shardState) commit() {
	s.ov.CommitTo(s.base.t)
}

// SetShards configures how many execution shards Step may fan out to; n <= 1
// keeps the serial path. The setting changes scheduling only — block
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

// applyBatch executes one block's selected transactions and returns their
// receipts plus the serialized effects (fee burn, proposer tip, explorer
// row) the caller applies in canonical order. With more than one shard
// configured and more than one conflict component present, components run
// concurrently on copy-on-write overlays; otherwise everything runs
// serially against the canonical state.
func (c *Chain) applyBatch(sel []*pendingTx, blk *Block) ([]*chain.Receipt, []txEffects) {
	receipts := make([]*chain.Receipt, len(sel))
	effects := make([]txEffects, len(sel))
	if len(sel) == 0 {
		return receipts, effects
	}
	serial := func() {
		var gas uint64
		for i, p := range sel {
			receipts[i], effects[i] = c.executeOn(c.st, p.tx, blk)
			gas += receipts[i].GasUsed
		}
		c.shardStats.Record(0, uint64(len(sel)), gas)
	}
	if c.shards <= 1 || len(sel) < 2 {
		serial()
		return receipts, effects
	}
	comps := chain.Partition(len(sel), func(i int) []chain.ConflictKey {
		return sel[i].tx.ConflictKeys()
	})
	if len(comps) < 2 {
		serial()
		return receipts, effects
	}
	nshards := c.shards
	if nshards > len(comps) {
		nshards = len(comps)
	}
	bins := chain.Assign(comps, nshards, func(i int) uint64 { return sel[i].tx.GasLimit })
	overlays := make([]*shardState, nshards)
	shardTxs := make([]uint64, nshards)
	shardGas := make([]uint64, nshards)
	var wg sync.WaitGroup
	for si := 0; si < nshards; si++ {
		overlays[si] = newShardState(c.st)
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			ss := overlays[si]
			for _, comp := range bins[si] {
				for _, i := range comp {
					receipts[i], effects[i] = c.executeOn(ss, sel[i].tx, blk)
					shardTxs[si]++
					shardGas[si] += receipts[i].GasUsed
				}
			}
		}(si)
	}
	wg.Wait()
	for si, ss := range overlays {
		ss.commit()
		c.shardStats.Record(si, shardTxs[si], shardGas[si])
	}
	if c.shardStats != nil {
		c.shardStats.ParallelBatches++
	}
	return receipts, effects
}

// SubmitBatch validates and queues a batch of signed transactions in one
// call. Signature verification — the dominant per-transaction cost — runs
// concurrently when sharding is configured; admission (fee, nonce and
// balance checks, fault draws, mempool append) stays serial in slice order,
// so the mempool and fault streams are identical to len(txs) Submit calls.
// Result slot i is the hash or error for txs[i].
func (c *Chain) SubmitBatch(txs []*Tx) ([]chain.Hash32, []error) {
	hashes := make([]chain.Hash32, len(txs))
	errs := make([]error, len(txs))
	chain.FanOut(len(txs), c.Shards(), func(i int) { errs[i] = txs[i].Verify() })
	for i, tx := range txs {
		if errs[i] == nil {
			hashes[i], errs[i] = c.submitVerified(tx)
		}
	}
	return hashes, errs
}

// PendingCount reports the mempool depth.
func (c *Chain) PendingCount() int { return len(c.mempool) }

// Digest hashes the chain's externally observable end state — head block,
// fee accounting, the world-state Merkle root and the rolling receipt
// accumulator — into one value. The determinism gates compare digests
// across shard counts and GOMAXPROCS settings: equal digests mean
// bit-identical blocks and state. The world state enters through the
// state root (every entry is a trie leaf) and receipts are folded into
// the accumulator at inclusion time in canonical block order, so Digest
// is O(1) instead of a full-world sort-and-hash — which also makes it
// independent of how much pruned history (SetRetention) is still held.
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
	putU64(head.Number)
	put(c.baseFee.Bytes())
	put(c.burned.Bytes())
	put(c.tipped.Bytes())
	root := c.st.Root()
	put(root[:])
	put(c.rcptAcc[:])
	putU64(c.rcptCount)
	return chain.Hash32(polcrypto.Hash(buf))
}

// foldReceipt absorbs one included receipt into the rolling digest
// accumulator. Called from Step's canonical merge loop, so the fold
// order is block order — identical at every shard count. Fee components
// are encoded with an explicit sign byte (encodeBalance) so a sign flip
// can never digest identically.
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
		put(encodeBalance(r.Fee.Base))
	}
	c.rcptAcc = chain.Hash32(polcrypto.Hash(buf))
	c.rcptCount++
}
