package eth

import (
	"cmp"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/faults"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
	"agnopol/internal/u256"
)

// Tx is an EIP-1559-style transaction. Its amounts are big integers, the
// form it is signed and serialized in; the chain reads them once, as
// 256-bit words, through amounts.
type Tx struct {
	From     chain.Address
	Nonce    uint64
	To       *chain.Address // nil deploys a contract
	Value    *big.Int
	Data     []byte
	GasLimit uint64
	MaxFee   *big.Int // max total fee per gas
	MaxTip   *big.Int // max priority fee per gas
	PubKey   ed25519.PublicKey
	Sig      []byte
}

// Hash returns the transaction hash.
func (tx *Tx) Hash() chain.Hash32 {
	msg := tx.sigMessage()
	buf := append(make([]byte, 0, len(msg)+ed25519.SignatureSize), msg[:]...)
	return chain.Hash32(polcrypto.Hash1(append(buf, tx.Sig...)))
}

// sigMessage is the digest the signature covers. The preimage buffer is
// sized once: a call fits the stack buffer, anything longer (a deployment
// carrying its code) gets one heap buffer of its exact size.
func (tx *Tx) sigMessage() [32]byte {
	need := 2*len(tx.From) + 16 + len(tx.Data)
	for _, v := range [...]*big.Int{tx.Value, tx.MaxFee, tx.MaxTip} {
		if v != nil {
			need += (v.BitLen() + 7) / 8
		}
	}
	buf := make([]byte, 0, 512)
	if need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	// appendBig appends what v.Bytes() holds without allocating it; a nil
	// amount contributes what zero does, nothing. Such a transaction signs
	// and hashes, and admission refuses it (amounts).
	appendBig := func(v *big.Int) {
		if v == nil {
			return
		}
		n := len(buf) + (v.BitLen()+7)/8
		v.FillBytes(buf[len(buf):n])
		buf = buf[:n]
	}
	buf = append(buf, tx.From[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.Nonce)
	if tx.To != nil {
		buf = append(buf, tx.To[:]...)
	}
	appendBig(tx.Value)
	buf = append(buf, tx.Data...)
	buf = binary.BigEndian.AppendUint64(buf, tx.GasLimit)
	appendBig(tx.MaxFee)
	appendBig(tx.MaxTip)
	return polcrypto.Hash1(buf)
}

// Sign attaches the account's signature and public key.
func (tx *Tx) Sign(acct *Account) {
	tx.PubKey = acct.Key.Public
	msg := tx.sigMessage()
	tx.Sig = acct.Key.Sign(msg[:])
}

// Verify is admission's stateless half: the sender address matches the
// key, the signature verifies, and the amounts are 256-bit words (amounts).
func (tx *Tx) Verify() error {
	if chain.AddressFromPublicKey(tx.PubKey) != tx.From {
		return errors.New("eth: sender address does not match public key")
	}
	if msg := tx.sigMessage(); !polcrypto.Verify(tx.PubKey, msg[:], tx.Sig) {
		return polcrypto.ErrBadSignature
	}
	_, err := tx.amounts()
	return err
}

// Block is a produced block.
type Block struct {
	Number     uint64
	Time       time.Duration
	ParentHash chain.Hash32
	Hash       chain.Hash32
	Proposer   chain.Address
	BaseFee    u256.Word
	GasUsed    uint64
	// StateRoot is the Merkle root of the world state after executing
	// this block; it is part of the block hash.
	StateRoot chain.Hash32
	TxHashes  []chain.Hash32
}

// Chain is one simulated Ethereum-family network.
type Chain struct {
	cfg      Config
	tipScale float64 // cfg.TipScale, as selection's outbid model divides by it
	clock    *chain.Clock
	rng      *chain.Rand
	st       *state
	// proposers are the validators' addresses. Every validator stakes the
	// same 32 ETH, so each is equally likely to propose.
	proposers []chain.Address
	baseFee   u256.Word

	// head is the latest block. Earlier blocks are not kept: what is read
	// of them is their receipts, which rcpts holds for the retention
	// window.
	head *Block

	// spikeBlocksLeft tracks the remaining blocks of an ongoing
	// congestion episode.
	spikeBlocksLeft int
	// faultSpike marks the current episode as fault-injected; its end is
	// the recovery.
	faultSpike bool

	// burned and tipped are the fee tallies: every base fee burned, every
	// tip credited to a proposer. Like every amount they are words: a
	// tally past 2^256-1 wei would wrap.
	burned, tipped u256.Word

	// The family-independent half of block building lives in package
	// chain: the fan-out width and execution tallies (SetShards, Shards,
	// ShardStats), the mempool with its admission pipeline, and the
	// receipts with their rolling digest and retention window — one row
	// per included transaction, which also carries the explorer's columns
	// (explorer.go). The columns name sender and target by their ids in
	// addrs, which outlives the rows: it keeps every address a row ever
	// named.
	chain.Sharder
	pool  *chain.Pool[*Tx]
	rcpts chain.Receipts
	addrs addrTable

	// clientRng is the pre-forked stream clients draw their simulated
	// RPC/API latencies from; see newChain for why it is not forked
	// lazily. Every client attached to the chain shares it.
	clientRng *chain.Rand

	// obs holds the chain's instrumentation; nil when uninstrumented.
	obs *chainObs
}

// NewChain creates a network from a preset and a deterministic seed. It
// is a thin wrapper over Open's in-memory path; chains that should
// restart from a committed state root go through Open directly.
func NewChain(cfg Config, seed uint64) *Chain {
	c, err := Open(Options{Config: cfg, Seed: seed})
	if err != nil {
		// The in-memory path fails only on a Config with no validators
		// (ErrNoValidators), which no preset has.
		panic("eth: " + err.Error())
	}
	return c
}

func newChain(cfg Config, seed uint64) *Chain {
	c := &Chain{
		cfg:      cfg,
		tipScale: weiFloat(u256.FromBig(cfg.TipScale)),
		clock:    chain.NewClock(),
		rng:      chain.NewRand(seed).Fork("eth:" + cfg.Name),
		st:       newState(),
		baseFee:  u256.FromBig(cfg.InitialBaseFee),
	}
	// An injected tx_delay stalls propagation for up to three slots.
	c.pool = chain.NewPool(c.clock, "eth.mempool", 3*cfg.SlotDuration, c.admit)
	// The client stream is forked here, at a fixed point in construction,
	// rather than lazily in NewClient: forking consumes a draw from the
	// chain rng, and a lazy fork would make the chain's stream position
	// depend on whether — and when — a client is attached. A chain
	// reopened from a checkpoint re-forks this stream at the same point,
	// so attaching a client to it never perturbs the restored rng state.
	c.clientRng = c.rng.Fork("client")
	keyRng := c.rng.Fork("validators")
	for i := 0; i < cfg.ValidatorCount; i++ {
		kp := polcrypto.MustGenerateKeyPair(keyRng)
		c.proposers = append(c.proposers, chain.AddressFromPublicKey(kp.Public))
	}
	genesis := &Block{Number: 0, Time: 0, BaseFee: c.baseFee}
	genesis.Hash = chain.Hash32(polcrypto.Hash([]byte("genesis:" + cfg.Name)))
	c.head = genesis
	return c
}

// Config returns the network configuration.
func (c *Chain) Config() Config { return c.cfg }

// SetFaults attaches a fault injector to the mempool and demand model.
func (c *Chain) SetFaults(inj *faults.Injector) { c.pool.SetFaults(inj) }

// Faults returns the attached fault injector, nil when off.
func (c *Chain) Faults() *faults.Injector { return c.pool.Faults() }

// Now returns the current simulated time.
func (c *Chain) Now() time.Duration { return c.clock.Now() }

// BaseFee returns the current base fee per gas in wei.
func (c *Chain) BaseFee() *big.Int { return c.baseFee.ToBig() }

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.head }

// NewAccount creates and funds an externally-owned account.
func (c *Chain) NewAccount(balance *big.Int) *Account {
	acct := chain.NewAccount(c.rng.Fork("account"))
	c.Fund(acct.Address, balance)
	return acct
}

// Balance returns an address's balance as an Amount in the chain's unit.
func (c *Chain) Balance(addr chain.Address) chain.Amount {
	return chain.Amount{Base: c.st.GetBalance(addr).ToBig(), Unit: c.cfg.Unit}
}

// ContractCode returns the deployed code at an address, if any.
func (c *Chain) ContractCode(addr chain.Address) ([]byte, bool) {
	return c.st.Code(addr)
}

// StateRoot returns the Merkle root of the current world state.
func (c *Chain) StateRoot() chain.Hash32 { return c.st.Root() }

// Digest hashes the chain's externally observable end state — head block,
// fee accounting, the world-state Merkle root and the rolling receipt
// accumulator — into one value. The determinism gates compare digests
// across fan-out widths and GOMAXPROCS settings: equal digests mean
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

// SetRetention keeps receipts and explorer history only for the most
// recent n blocks; n <= 0 (the default) retains everything. No block body
// is kept either way: the chain holds its head alone. Long soaks set a
// small window so the receipt log stays bounded; the digest is unaffected
// because receipts fold into the rolling accumulator at inclusion time.
// The explorer's address table is not pruned: however small the window,
// it holds one entry (≈ 55 B) per distinct address a row ever named as
// sender or target. That is state's accounts plus every empty address
// that a zero-value transfer or a reverted creation named, so a mix that
// keeps naming fresh addresses grows the heap by that much per
// transaction, window or not.
func (c *Chain) SetRetention(n int) { c.rcpts.Retention = n }

// Submit errors.
var (
	ErrUnderpriced      = errors.New("eth: max fee below base fee floor")
	ErrInsufficientEth  = errors.New("eth: insufficient balance for gas + value")
	ErrNonceTooLow      = errors.New("eth: nonce too low")
	ErrGasLimitTooLow   = errors.New("eth: gas limit below intrinsic cost")
	ErrGasAboveBlockCap = errors.New("eth: gas limit exceeds block gas limit")
	ErrNegativeAmount   = errors.New("eth: negative amount")
	ErrMissingAmount    = errors.New("eth: missing amount")
	ErrAmountTooLarge   = errors.New("eth: amount past 2^256-1")
)

// txAmounts is what the chain reads of a transaction's Value, MaxFee and
// MaxTip.
type txAmounts struct {
	value, maxFee, maxTip u256.Word
}

// amounts is the one place the chain reads a transaction's amounts. It
// refuses what no 256-bit word holds: a nil, a negative or a 2^256-and-up
// amount.
func (tx *Tx) amounts() (txAmounts, error) {
	value, errValue := amountWord(tx.Value)
	maxFee, errFee := amountWord(tx.MaxFee)
	maxTip, errTip := amountWord(tx.MaxTip)
	return txAmounts{value, maxFee, maxTip}, cmp.Or(errValue, errFee, errTip)
}

func amountWord(v *big.Int) (u256.Word, error) {
	switch {
	case v == nil:
		return u256.Zero, ErrMissingAmount
	case v.Sign() < 0:
		return u256.Zero, ErrNegativeAmount
	case v.BitLen() > 256:
		return u256.Zero, ErrAmountTooLarge
	}
	return u256.FromBig(v), nil
}

// upfront is maxFee×gasLimit+value, the most a transaction can cost its
// sender; ok is false when that passes 2^256-1, which no balance covers.
func (a *txAmounts) upfront(gasLimit uint64) (cost u256.Word, ok bool) {
	cost, mulOver := a.maxFee.MulOverflow(u256.FromUint64(gasLimit))
	cost, addOver := cost.AddOverflow(a.value)
	return cost, !mulOver && !addOver
}

// effectiveTip is min(maxTip, maxFee - baseFee), the EIP-1559 priority fee
// the proposer actually receives, or zero when maxFee is below baseFee.
func (a *txAmounts) effectiveTip(baseFee u256.Word) u256.Word {
	if a.maxFee.Lt(baseFee) {
		return u256.Zero
	}
	if headroom := a.maxFee.Sub(baseFee); headroom.Lt(a.maxTip) {
		return headroom
	}
	return a.maxTip
}

// Submit validates a signed transaction and queues it. The returned hash
// identifies the eventual receipt.
func (c *Chain) Submit(tx *Tx) (chain.Hash32, error) { return c.pool.Submit(tx) }

// SubmitBatch validates and queues a batch of signed transactions in one
// call: signatures verify concurrently at the SetShards width,
// admission stays serial in slice order, so the mempool and fault streams
// are identical to len(txs) Submit calls. Result slot i is the hash or
// error for txs[i].
func (c *Chain) SubmitBatch(txs []*Tx) ([]chain.Hash32, []error) {
	return c.pool.SubmitBatch(txs, &c.Sharder)
}

// PendingCount reports the mempool depth.
func (c *Chain) PendingCount() int { return c.pool.Len() }

// limits is the half of admission that reads no state, for a transaction
// that passed Verify: a gas limit between the intrinsic cost and the block
// cap, and a fee cap at or above the floor. admit runs it, and so does Open
// on every restored mempool entry.
func (c *Chain) limits(tx *Tx) error {
	if tx.GasLimit > c.cfg.BlockGasLimit {
		return ErrGasAboveBlockCap
	}
	intrinsic := evm.IntrinsicGas(tx.Data, tx.To == nil)
	if tx.GasLimit < intrinsic {
		return fmt.Errorf("%w: limit %d < intrinsic %d", ErrGasLimitTooLow, tx.GasLimit, intrinsic)
	}
	if maxFee, _ := amountWord(tx.MaxFee); maxFee.Lt(u256.FromBig(c.cfg.MinBaseFee)) {
		return ErrUnderpriced
	}
	return nil
}

// admit is the mempool's admission check for a transaction that passed
// Verify: limits, then nonce and balance. Amounts are words,
// never negative, so the upfront cost the balance check and Step's
// selection reserve is the most execution can debit
// (state.SubBalance).
func (c *Chain) admit(tx *Tx) error {
	if err := c.limits(tx); err != nil {
		return err
	}
	a, _ := tx.amounts() // Verify refused amounts that do not convert
	if n := c.st.Nonce(tx.From); tx.Nonce < n {
		return fmt.Errorf("%w: %d < %d", ErrNonceTooLow, tx.Nonce, n)
	}
	if upfront, ok := a.upfront(tx.GasLimit); !ok || c.st.GetBalance(tx.From).Lt(upfront) {
		return ErrInsufficientEth
	}
	return nil
}

// PendingNonce is the next usable nonce for an account: the state nonce,
// advanced past any transactions already queued in the mempool.
func (c *Chain) PendingNonce(addr chain.Address) uint64 {
	n := c.st.Nonce(addr)
	for _, p := range c.pool.Entries() {
		if p.Item.From == addr && p.Item.Nonce >= n {
			n = p.Item.Nonce + 1
		}
	}
	return n
}

// Receipt returns the receipt for a transaction hash once included.
func (c *Chain) Receipt(h chain.Hash32) (*chain.Receipt, bool) {
	return c.rcpts.Get(h)
}

// nextSlotTime is the production time of the next block.
func (c *Chain) nextSlotTime() time.Duration {
	return time.Duration(c.Head().Number+1) * c.cfg.SlotDuration
}

// Step produces the next block: selects the proposer, fills the block with
// background demand plus the queued client transactions that outbid it,
// executes them and updates the base fee.
func (c *Chain) Step() *Block {
	blockTime := c.nextSlotTime()
	c.clock.AdvanceTo(blockTime)
	parent := c.Head()

	proposer := c.pickProposer(parent.Hash, parent.Number+1)
	demand := c.backgroundDemand()

	blk := &Block{
		Number:     parent.Number + 1,
		Time:       blockTime,
		ParentHash: parent.Hash,
		Proposer:   proposer,
		BaseFee:    c.baseFee,
	}

	// Highest tips first; FIFO within equal tips; nonces must be in order
	// per sender. What selection reads of each pending transaction — its
	// amounts, tip and upfront cost, its sender's nonce and balance — is
	// read once, at its position in the unsorted pool, and at the pool's
	// width: state does not change until selection is over, so reading it
	// ahead is exact. reads[order[i]] belongs to the i-th entry of the
	// sorted pool.
	pending := c.pool.Entries()
	reads := make([]pendingRead, len(pending))
	chain.FanOut(len(pending), c.Shards(), func(i int) {
		tx := pending[i].Item
		// Every entry passed Verify at admission or restore; one whose
		// amounts a caller changed since is never affordable.
		a, err := tx.amounts()
		cost, ok := a.upfront(tx.GasLimit)
		tip := a.effectiveTip(c.baseFee)
		reads[i] = pendingRead{a, tip, cost, weiFloat(tip), ok && err == nil, c.st.Nonce(tx.From), c.st.GetBalance(tx.From)}
	})
	order := c.pool.Sort(func(i, j int) bool {
		if ti, tj := reads[i].tip, reads[j].tip; ti != tj {
			return tj.Lt(ti)
		}
		return pending[i].Submitted < pending[j].Submitted
	})
	// Selection pass: decide the block's transaction set before executing
	// anything. Capacity is reserved by gas limit, not actual usage, so
	// selection never depends on execution results. senders tracks,
	// per sender selected earlier in this block, the next nonce and the
	// reserved upfront cost (maxFee·gasLimit + value), so a sender whose
	// balance shrank since admission — or who queued more transactions than
	// the balance covers — is deferred instead of being executed into an
	// overdraft.
	type senderSel struct {
		nonce uint64
		spent u256.Word
	}
	var (
		reserved uint64
		senders  map[chain.Address]senderSel
		// upfront is the candidate's cost on top of what its sender already
		// reserved.
		upfront u256.Word
		// picked holds the amounts of the selected transactions, in
		// selection order.
		picked []*txAmounts
	)
	nextNonce := func(tx *Tx, r *pendingRead) uint64 {
		if s, ok := senders[tx.From]; ok {
			return s.nonce
		}
		return r.nonce
	}
	covered := func(tx *Tx, r *pendingRead) bool {
		var overflow bool
		upfront, overflow = r.cost.AddOverflow(senders[tx.From].spent)
		return r.costOK && !overflow && !r.balance.Lt(upfront)
	}
	sel := c.pool.Take(blockTime, func(i int, p *chain.Pending[*Tx]) bool {
		tx, r := p.Item, &reads[order[i]]
		affordable := covered(tx, r)
		switch {
		case p.Submitted >= blockTime:
			// Not yet propagated when the block was built.
			return false
		case r.maxFee.Lt(c.baseFee):
			// Base fee above the cap: wait for it to drop.
		case tx.Nonce != nextNonce(tx, r):
			// Nonce gap: wait for the earlier transaction.
		case !affordable:
			// The sender's balance no longer covers every selected
			// transaction's worst case; defer rather than overdraw.
		default:
			outbid := demand * math.Exp(-r.tipFloat/c.tipScale)
			if uint64(outbid)+reserved+tx.GasLimit <= c.cfg.BlockGasLimit {
				if senders == nil {
					senders = make(map[chain.Address]senderSel)
				}
				senders[tx.From] = senderSel{tx.Nonce + 1, upfront}
				reserved += tx.GasLimit
				picked = append(picked, &r.txAmounts)
				return true
			}
		}
		if c.obs != nil {
			// Propagated but priced out (or nonce-gapped) this block.
			c.obs.txsDeferred.Inc()
		}
		return false
	})

	// Execution, in canonical order on the state: each transaction runs,
	// pays its fee and is included where it stands. One credit of the
	// tips' sum leaves the same state as one credit per transaction, and
	// nothing reads the proposer's balance between the credit and the root.
	if len(sel) > 0 {
		blk.TxHashes = make([]chain.Hash32, len(sel))
	}
	c.rcpts.Begin(blk.Number, len(sel))
	var credit u256.Word
	for i, p := range sel {
		credit = credit.Add(c.execute(p, picked[i], blk))
		blk.TxHashes[i] = p.Hash
	}
	if !credit.IsZero() {
		c.st.AddBalance(blk.Proposer, credit)
		c.tipped = c.tipped.Add(credit)
	}
	blk.StateRoot = c.st.Root()
	c.Record(uint64(len(sel)), blk.GasUsed)

	// The transactions' gas, topped up with what the background demand
	// takes of the rest of the block.
	bg := uint64(demand)
	if bg+blk.GasUsed > c.cfg.BlockGasLimit {
		bg = c.cfg.BlockGasLimit - blk.GasUsed
	}
	blk.GasUsed += bg

	c.rcpts.End()
	blk.Hash = blockHash(blk)
	c.head = blk
	c.updateBaseFee(blk)
	if c.obs != nil {
		c.obs.blocksProduced.Inc()
		c.obs.blockGasUsed.Add(blk.GasUsed)
		c.obs.baseFee.Set(weiFloat(c.baseFee))
	}
	return blk
}

// pendingRead is what Step's selection reads of one pending transaction:
// its amounts, effective tip (also as weiFloat renders it) and upfront cost
// (costOK is false when that passes 2^256-1 or the amounts no longer
// convert), and its sender's state nonce and balance.
type pendingRead struct {
	txAmounts
	tip, cost u256.Word
	tipFloat  float64
	costOK    bool
	nonce     uint64
	balance   u256.Word
}

// weiFloat is w rounded to the nearest float64, with zero read as 1 wei:
// the fee-market model divides by it.
func weiFloat(w u256.Word) float64 {
	if w.IsUint64() {
		return max(float64(w.Uint64()), 1)
	}
	f, _ := new(big.Float).SetInt(w.ToBig()).Float64()
	return f
}

// backgroundDemand samples the gas demanded by the rest of the network for
// the next block. Demand is lognormal around the configured mean; spike
// episodes multiply it for a geometric number of blocks.
func (c *Chain) backgroundDemand() float64 {
	mean := c.cfg.CongestionMeanGas
	if c.cfg.CongestionElasticity > 0 {
		ratio := weiFloat(u256.FromBig(c.cfg.InitialBaseFee)) / weiFloat(c.baseFee)
		mean *= math.Pow(ratio, c.cfg.CongestionElasticity)
	}
	d := mean * math.Exp(c.cfg.CongestionSigma*c.rng.NormFloat64()-c.cfg.CongestionSigma*c.cfg.CongestionSigma/2)
	if c.spikeBlocksLeft == 0 {
		if hit, mag := c.Faults().Draw(faults.ClassCongestion, "eth.demand"); hit {
			// Injected storm: blocks fill for one to five blocks; the
			// episode's end is the recovery.
			c.spikeBlocksLeft = 1 + int(mag*4)
			c.faultSpike = true
			if c.obs != nil {
				c.obs.congestionSpikes.Inc()
			}
		}
	}
	if c.spikeBlocksLeft > 0 {
		c.spikeBlocksLeft--
		if c.spikeBlocksLeft == 0 && c.faultSpike {
			c.faultSpike = false
			c.Faults().Recover(faults.ClassCongestion)
		}
		return d * c.cfg.SpikeFactor
	}
	if c.rng.Float64() < c.cfg.SpikeProb {
		mean := c.cfg.SpikeBlocksMean
		if mean < 1 {
			mean = 1
		}
		c.spikeBlocksLeft = 1 + int(c.rng.ExpFloat64()*(mean-1)+0.5)
		c.spikeBlocksLeft--
		if c.obs != nil {
			c.obs.congestionSpikes.Inc()
		}
		return d * c.cfg.SpikeFactor
	}
	return d
}

// pickProposer performs the RANDAO-style proposer selection for a slot:
// a seed drawn from the parent hash and the slot picks one 32-ETH stake
// unit out of all of them, and its validator proposes.
func (c *Chain) pickProposer(parentHash chain.Hash32, slot uint64) chain.Address {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], slot)
	h := polcrypto.Hash(parentHash[:], buf[:])
	seed := binary.BigEndian.Uint64(h[:8])
	n := uint64(len(c.proposers))
	return c.proposers[seed%(32*n)/32]
}

func blockHash(b *Block) chain.Hash32 {
	buf := make([]byte, 0, 8+32+20+32+32+32*len(b.TxHashes))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], b.Number)
	buf = append(buf, n[:]...)
	buf = append(buf, b.ParentHash[:]...)
	buf = append(buf, b.Proposer[:]...)
	buf = b.BaseFee.AppendBytes(buf)
	buf = append(buf, b.StateRoot[:]...)
	for _, h := range b.TxHashes {
		buf = append(buf, h[:]...)
	}
	return chain.Hash32(polcrypto.Hash(buf))
}

// updateBaseFee applies the EIP-1559 adjustment: ±1/8 of the deviation from
// the gas target per block, at most 12.5%.
//
// The change is baseFee×diff/(8×target), rounded down, computed as
// q×diff + r×diff/(8×target) for baseFee = q×(8×target) + r: no term
// passes 2^256, since the change is at most an eighth of the base fee and
// r×diff is below 2^128. A base fee the change would take past 2^256-1
// stays at 2^256-1.
func (c *Chain) updateBaseFee(blk *Block) {
	target := c.cfg.BlockGasLimit / 2
	used := blk.GasUsed
	diff := target - used
	if used > target {
		diff = used - target
	}
	d, n := u256.FromUint64(target*8), u256.FromUint64(diff)
	q, r := c.baseFee.DivMod(d)
	delta := q.Mul(n).Add(r.Mul(n).Div(d))
	if used > target {
		var overflow bool
		if c.baseFee, overflow = c.baseFee.AddOverflow(delta); overflow {
			c.baseFee = u256.Zero.Not()
		}
	} else {
		c.baseFee = c.baseFee.Sub(delta)
	}
	if floor := u256.FromBig(c.cfg.MinBaseFee); c.baseFee.Lt(floor) {
		c.baseFee = floor
	}
}

// execute runs one selected transaction (p.Hash is its pool-computed
// tx.Hash()) on the state, charges its fee and includes its receipt.
// State changes of reverted executions are undone inside the EVM; fees are
// charged regardless, as on the real network. It returns the tip, which
// Step credits to the proposer with the block's other tips.
func (c *Chain) execute(p *chain.Pending[*Tx], a *txAmounts, blk *Block) (tip u256.Word) {
	tx := p.Item
	price := blk.BaseFee.Add(a.effectiveTip(blk.BaseFee))

	rcpt := chain.Receipt{
		TxHash:      p.Hash,
		BlockNumber: blk.Number,
		Submitted:   p.Submitted,
		Included:    blk.Time,
	}

	isCreate := tx.To == nil
	intrinsic := evm.IntrinsicGas(tx.Data, isCreate)
	var target chain.Address
	if isCreate {
		target = chain.ContractAddress(tx.From, tx.Nonce)
	} else {
		target = *tx.To
	}
	c.st.SetNonce(tx.From, tx.Nonce+1)

	depositGas := uint64(0)
	code, _ := c.st.Code(target)
	callData := tx.Data
	if isCreate {
		// Our compiler produces runtime code directly; deployment stores
		// it and runs the constructor calldata against it, charging the
		// per-byte code deposit. The connector frames the payload as
		// code||ctorData — see PackDeployData.
		code, callData = splitDeployData(tx.Data)
		depositGas = uint64(len(code)) * evm.GasCodeDeposit
	}

	gasBudget := tx.GasLimit - intrinsic
	if depositGas > gasBudget {
		// Cannot afford the code deposit: the deployment fails consuming
		// everything, before reaching the EVM, so the explorer logs no row.
		rcpt.GasUsed = tx.GasLimit
		rcpt.Reverted = true
		rcpt.RevertMsg = "out of gas: code deposit"
		return c.settle(tx, price, blk, &rcpt, nil)
	}
	gasBudget -= depositGas

	// Credit the call value before execution; undo if it fails.
	if !a.value.IsZero() {
		c.st.SubBalance(tx.From, a.value)
		c.st.AddBalance(target, a.value)
	}
	if isCreate {
		c.st.SetCode(target, code)
	}

	var prof obs.Profiler
	if c.obs != nil {
		prof = c.obs.prof
	}
	res := evm.Execute(evm.Context{
		State:     c.st,
		Caller:    tx.From,
		Address:   target,
		Value:     a.value,
		CallData:  callData,
		GasLimit:  gasBudget,
		Timestamp: uint64(blk.Time / time.Second),
		Profiler:  prof,
	}, code)

	gasUsed := intrinsic + depositGas + res.GasUsed
	if res.Err == nil && !res.Reverted {
		// EIP-3529: refunds capped at gasUsed/5.
		refund := res.Refund
		if cap := gasUsed / 5; refund > cap {
			refund = cap
		}
		gasUsed -= refund
	} else {
		if !a.value.IsZero() {
			c.st.AddBalance(tx.From, a.value)
			c.st.SubBalance(target, a.value)
		}
		if isCreate {
			c.st.DeleteCode(target)
		}
	}

	rcpt.GasUsed = gasUsed
	rcpt.Reverted = res.Reverted || res.Err != nil
	if res.Err != nil {
		rcpt.RevertMsg = res.Err.Error()
	} else {
		rcpt.RevertMsg = res.RevertMsg
	}
	rcpt.ReturnValue = res.ReturnData
	for _, l := range res.Logs {
		rcpt.Logs = append(rcpt.Logs, string(l.Data))
	}
	var cols [explorerColumnsLen]byte
	return c.settle(tx, price, blk, &rcpt, c.explorerColumns(cols[:0], tx, target, a.value))
}

// settle debits the sender's fee for rcpt.GasUsed at price, records it
// on the receipt and includes the receipt with the explorer columns side
// (none when side is empty). The gas goes to the block, the burn to the
// chain's tally, and the tip is returned. No product wraps: price is at
// most maxFee and the gas at most gasLimit, whose product selection
// checked.
func (c *Chain) settle(tx *Tx, price u256.Word, blk *Block, rcpt *chain.Receipt, side []byte) (tip u256.Word) {
	gas := u256.FromUint64(rcpt.GasUsed)
	fee := price.Mul(gas)
	burn := blk.BaseFee.Mul(gas)
	c.st.SubBalance(tx.From, fee)
	rcpt.Fee.Unit = c.cfg.Unit
	// The fold takes the fee in its balance encoding, the record its
	// magnitude: the same bytes past the sign byte.
	var enc [1 + 32]byte
	fold := appendBalance(enc[:0], fee)
	c.rcpts.Add(rcpt, fold, fold[1:], side, "")
	blk.GasUsed += rcpt.GasUsed
	c.burned = c.burned.Add(burn)
	return fee.Sub(burn)
}

// deployPrefix frames code||ctorData in deployment calldata.
const deployPrefixLen = 4

// PackDeployData frames runtime code and constructor calldata into a single
// deployment payload.
func PackDeployData(code, ctorData []byte) []byte {
	out := make([]byte, deployPrefixLen, deployPrefixLen+len(code)+len(ctorData))
	binary.BigEndian.PutUint32(out, uint32(len(code)))
	out = append(out, code...)
	return append(out, ctorData...)
}

// splitDeployData splits a deployment payload back into code and
// constructor calldata.
func splitDeployData(data []byte) (code, ctorData []byte) {
	if len(data) < deployPrefixLen {
		return nil, nil
	}
	n := binary.BigEndian.Uint32(data)
	if int(n) > len(data)-deployPrefixLen {
		return data[deployPrefixLen:], nil
	}
	return data[deployPrefixLen : deployPrefixLen+int(n)], data[deployPrefixLen+int(n):]
}
