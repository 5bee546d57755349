package eth

import (
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
)

// Tx is an EIP-1559-style transaction.
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
		need += (v.BitLen() + 7) / 8
	}
	buf := make([]byte, 0, 512)
	if need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	// appendBig appends what v.Bytes() holds without allocating it.
	appendBig := func(v *big.Int) {
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

// Verify checks the signature and that the sender address matches the key.
func (tx *Tx) Verify() error {
	if chain.AddressFromPublicKey(tx.PubKey) != tx.From {
		return errors.New("eth: sender address does not match public key")
	}
	if msg := tx.sigMessage(); !polcrypto.Verify(tx.PubKey, msg[:], tx.Sig) {
		return polcrypto.ErrBadSignature
	}
	return nil
}

// Block is a produced block.
type Block struct {
	Number     uint64
	Time       time.Duration
	ParentHash chain.Hash32
	Hash       chain.Hash32
	Proposer   chain.Address
	BaseFee    *big.Int
	GasUsed    uint64
	// StateRoot is the Merkle root of the world state after executing
	// this block; it is part of the block hash.
	StateRoot chain.Hash32
	TxHashes  []chain.Hash32
}

// Validator is a staked consensus participant.
type Validator struct {
	Key     *polcrypto.KeyPair
	Address chain.Address
	Stake   uint64
}

// Chain is one simulated Ethereum-family network.
type Chain struct {
	cfg        Config
	tipScale   float64 // cfg.TipScale, as selection's outbid model divides by it
	clock      *chain.Clock
	rng        *chain.Rand
	st         *state
	blocks     []*Block
	validators []*Validator
	baseFee    *big.Int

	justified uint64
	finalized uint64

	// spikeBlocksLeft tracks the remaining blocks of an ongoing
	// congestion episode.
	spikeBlocksLeft int
	// faultSpike marks the current episode as fault-injected; its end is
	// the recovery.
	faultSpike bool

	burned *big.Int
	tipped *big.Int

	// The family-independent half of block building lives in package
	// chain: the shard setting and tallies (SetShards, Shards, ShardStats),
	// the mempool with its admission pipeline, and the receipts with their
	// rolling digest and retention window — one row per included
	// transaction, which also carries the explorer's columns (explorer.go).
	chain.Sharder
	pool  *chain.Pool[*Tx]
	rcpts chain.Receipts

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
		// Unreachable: the in-memory path has no failure modes.
		panic("eth: " + err.Error())
	}
	return c
}

func newChain(cfg Config, seed uint64) *Chain {
	c := &Chain{
		cfg:      cfg,
		tipScale: bigToFloat(cfg.TipScale),
		clock:    chain.NewClock(),
		rng:      chain.NewRand(seed).Fork("eth:" + cfg.Name),
		st:       newState(),
		baseFee:  new(big.Int).Set(cfg.InitialBaseFee),
		burned:   new(big.Int),
		tipped:   new(big.Int),
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
		c.validators = append(c.validators, &Validator{
			Key:     kp,
			Address: chain.AddressFromPublicKey(kp.Public),
			Stake:   32, // every validator stakes exactly 32 ETH
		})
	}
	genesis := &Block{Number: 0, Time: 0, BaseFee: new(big.Int).Set(cfg.InitialBaseFee)}
	genesis.Hash = chain.Hash32(polcrypto.Hash([]byte("genesis:" + cfg.Name)))
	c.blocks = append(c.blocks, genesis)
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
func (c *Chain) BaseFee() *big.Int { return new(big.Int).Set(c.baseFee) }

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.blocks[len(c.blocks)-1] }

// NewAccount creates and funds an externally-owned account.
func (c *Chain) NewAccount(balance *big.Int) *Account {
	acct := chain.NewAccount(c.rng.Fork("account"))
	c.Fund(acct.Address, balance)
	return acct
}

// Balance returns an address's balance as an Amount in the chain's unit.
func (c *Chain) Balance(addr chain.Address) chain.Amount {
	return chain.NewAmount(c.st.GetBalance(addr), c.cfg.Unit)
}

// ContractCode returns the deployed code at an address, if any.
func (c *Chain) ContractCode(addr chain.Address) ([]byte, bool) {
	return c.st.Code(addr)
}

// StateRoot returns the Merkle root of the current world state.
func (c *Chain) StateRoot() chain.Hash32 { return c.st.Root() }

// SetRetention keeps receipts, explorer history and block bodies only for
// the most recent n blocks; n <= 0 (the default) retains everything.
// Long soaks set a small window so memory is bounded by live state, not
// by rounds: the digest is unaffected because receipts fold into the
// rolling accumulator at inclusion time.
func (c *Chain) SetRetention(n int) { c.rcpts.Retention = n }

// Submit errors.
var (
	ErrUnderpriced      = errors.New("eth: max fee below base fee floor")
	ErrInsufficientEth  = errors.New("eth: insufficient balance for gas + value")
	ErrNonceTooLow      = errors.New("eth: nonce too low")
	ErrGasLimitTooLow   = errors.New("eth: gas limit below intrinsic cost")
	ErrGasAboveBlockCap = errors.New("eth: gas limit exceeds block gas limit")
	ErrNegativeAmount   = errors.New("eth: negative value or tip")
)

// Submit validates a signed transaction and queues it. The returned hash
// identifies the eventual receipt.
func (c *Chain) Submit(tx *Tx) (chain.Hash32, error) { return c.pool.Submit(tx) }

// SubmitBatch validates and queues a batch of signed transactions in one
// call: signatures verify concurrently when sharding is configured,
// admission stays serial in slice order, so the mempool and fault streams
// are identical to len(txs) Submit calls. Result slot i is the hash or
// error for txs[i].
func (c *Chain) SubmitBatch(txs []*Tx) ([]chain.Hash32, []error) {
	return c.pool.SubmitBatch(txs, c.Shards())
}

// PendingCount reports the mempool depth.
func (c *Chain) PendingCount() int { return c.pool.Len() }

// admit is the mempool's admission check for a transaction whose signature
// already verified: a non-negative value and tip, gas bounds, fee floor,
// nonce and balance. A negative value would shrink the upfront cost the
// balance check and Step's selection reserve, and a negative tip would
// price gas below the base fee, down to a negative fee; refusing both is
// what keeps every debit in execution covered (stateView.SubBalance).
func (c *Chain) admit(tx *Tx) error {
	if tx.Value.Sign() < 0 || tx.MaxTip.Sign() < 0 {
		return ErrNegativeAmount
	}
	if tx.GasLimit > c.cfg.BlockGasLimit {
		return ErrGasAboveBlockCap
	}
	intrinsic := evm.IntrinsicGas(tx.Data, tx.To == nil)
	if tx.GasLimit < intrinsic {
		return fmt.Errorf("%w: limit %d < intrinsic %d", ErrGasLimitTooLow, tx.GasLimit, intrinsic)
	}
	if tx.MaxFee.Cmp(c.cfg.MinBaseFee) < 0 {
		return ErrUnderpriced
	}
	if n := c.st.Nonce(tx.From); tx.Nonce < n {
		return fmt.Errorf("%w: %d < %d", ErrNonceTooLow, tx.Nonce, n)
	}
	upfront := new(big.Int).Mul(tx.MaxFee, new(big.Int).SetUint64(tx.GasLimit))
	upfront.Add(upfront, tx.Value)
	if c.st.GetBalance(tx.From).Cmp(upfront) < 0 {
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
		Proposer:   proposer.Address,
		BaseFee:    new(big.Int).Set(c.baseFee),
	}

	// Highest tips first; FIFO within equal tips; nonces must be in order
	// per sender. What selection reads of each pending transaction — its
	// tip, the tip as a float, its sender's nonce and balance — is read
	// once, at its position in the unsorted pool, and at the pool's width:
	// state does not change until selection is over, so reading it ahead
	// is exact. reads[order[i]] belongs to the i-th entry of the sorted
	// pool.
	pending := c.pool.Entries()
	reads := make([]pendingRead, len(pending))
	chain.FanOut(len(pending), c.Shards(), func(i int) {
		tx := pending[i].Item
		tip := effectiveTip(tx, c.baseFee)
		reads[i] = pendingRead{tip, bigToFloat(tip), c.st.Nonce(tx.From), c.st.GetBalance(tx.From)}
	})
	order := c.pool.Sort(func(i, j int) bool {
		if cmp := reads[i].tip.Cmp(reads[j].tip); cmp != 0 {
			return cmp > 0
		}
		return pending[i].Submitted < pending[j].Submitted
	})
	// Selection pass: decide the block's transaction set before executing
	// anything. Capacity is reserved by gas limit, not actual usage, so
	// selection never depends on execution results and the set is the same
	// whether execution later runs serially or sharded. selNonces tracks
	// nonces consumed by earlier selections in this block; selSpend tracks
	// each sender's reserved upfront cost (maxFee·gasLimit + value) so a
	// sender whose balance shrank since admission — or who queued more
	// transactions than the balance covers — is deferred instead of being
	// executed into an overdraft.
	var (
		reserved  uint64
		selNonces map[chain.Address]uint64
		selSpend  map[chain.Address]*big.Int
		// upfront is the candidate's cost on top of what its sender already
		// reserved; it and gasLimit are reused from candidate to candidate.
		upfront, gasLimit big.Int
	)
	nextNonce := func(tx *Tx, r *pendingRead) uint64 {
		if n, ok := selNonces[tx.From]; ok {
			return n
		}
		return r.nonce
	}
	covered := func(tx *Tx, r *pendingRead) bool {
		upfront.Mul(tx.MaxFee, gasLimit.SetUint64(tx.GasLimit))
		upfront.Add(&upfront, tx.Value)
		if prior, ok := selSpend[tx.From]; ok {
			upfront.Add(&upfront, prior)
		}
		return upfront.Cmp(r.balance) <= 0
	}
	sel := c.pool.Take(blockTime, func(i int, p *chain.Pending[*Tx]) bool {
		tx, r := p.Item, &reads[order[i]]
		affordable := covered(tx, r)
		switch {
		case p.Submitted >= blockTime:
			// Not yet propagated when the block was built.
			return false
		case tx.MaxFee.Cmp(c.baseFee) < 0:
			// Base fee above the cap: wait for it to drop.
		case tx.Nonce != nextNonce(tx, r):
			// Nonce gap: wait for the earlier transaction.
		case !affordable:
			// The sender's balance no longer covers every selected
			// transaction's worst case; defer rather than overdraw.
		default:
			outbid := demand * math.Exp(-r.tipFloat/c.tipScale)
			if uint64(outbid)+reserved+tx.GasLimit <= c.cfg.BlockGasLimit {
				if selNonces == nil {
					selNonces = make(map[chain.Address]uint64)
					selSpend = make(map[chain.Address]*big.Int)
				}
				selNonces[tx.From] = tx.Nonce + 1
				selSpend[tx.From] = new(big.Int).Set(&upfront)
				reserved += tx.GasLimit
				return true
			}
		}
		if c.obs != nil {
			// Propagated but priced out (or nonce-gapped) this block.
			c.obs.txsDeferred.Inc()
		}
		return false
	})

	// Execution (serial or sharded — chain.RunSharded decides), then the
	// block's tail in its two halves, which RunSharded runs side by side
	// when the block fanned out. Shard workers leave the proposer tip, the
	// burn tally and the explorer columns to the tail, which applies them
	// in canonical order exactly as the serial path would.
	receipts := make([]chain.Receipt, len(sel))
	effects := make([]txEffects, len(sel))
	chain.RunSharded(&c.Sharder, len(sel),
		func(i int) []chain.ConflictKey { return sel[i].Item.ConflictKeys() },
		func(i int) uint64 { return sel[i].Item.GasLimit },
		execState(c.st),
		func() (execState, func()) {
			ss := newShardState(c.st)
			return ss, ss.commit
		},
		func(st execState, i int) uint64 {
			receipts[i], effects[i] = c.executeOn(st, sel[i].Item, sel[i].Hash, blk)
			return receipts[i].GasUsed
		},
		func() {
			// State side. Every shard has merged, and the only thing left to
			// move is the proposer's tips: one credit of their sum leaves the
			// same state as one credit per transaction, and nothing reads
			// the proposer's balance between the credit and the root.
			credit := new(big.Int)
			for i := range effects {
				credit.Add(credit, effects[i].tip)
			}
			if credit.Sign() > 0 {
				c.st.AddBalance(blk.Proposer, credit)
				c.tipped.Add(c.tipped, credit)
			}
			blk.StateRoot = c.st.Root()
		},
		func() {
			// Receipt side: everything about the block that is not state.
			var fee, side []byte
			if len(sel) > 0 {
				blk.TxHashes = make([]chain.Hash32, len(sel))
			}
			for i, p := range sel {
				rcpt, eff := &receipts[i], &effects[i]
				rcpt.Submitted = p.Submitted
				fee = appendBalance(fee[:0], rcpt.Fee.Base)
				side = appendExplorerColumns(side[:0], p.Item, eff)
				c.rcpts.Include(rcpt, fee, side)
				blk.TxHashes[i] = rcpt.TxHash
				blk.GasUsed += rcpt.GasUsed
				c.burned.Add(c.burned, eff.burn)
			}
		})

	// The transactions' gas, topped up with what the background demand
	// takes of the rest of the block.
	bg := uint64(demand)
	if bg+blk.GasUsed > c.cfg.BlockGasLimit {
		bg = c.cfg.BlockGasLimit - blk.GasUsed
	}
	blk.GasUsed += bg

	blk.Hash = blockHash(blk)
	c.blocks = append(c.blocks, blk)
	c.updateBaseFee(blk)
	c.updateFinality()
	c.pruneRetention()
	if c.obs != nil {
		c.obs.blocksProduced.Inc()
		c.obs.blockGasUsed.Add(blk.GasUsed)
		bf, _ := new(big.Float).SetInt(c.baseFee).Float64()
		c.obs.baseFee.Set(bf)
	}
	return blk
}

// pendingRead is what Step's selection reads of one pending transaction:
// its effective tip, that tip as bigToFloat renders it, and its sender's
// state nonce and balance.
type pendingRead struct {
	tip      *big.Int
	tipFloat float64
	nonce    uint64
	balance  *big.Int
}

// effectiveTip is min(maxTip, maxFee - baseFee), the EIP-1559 priority fee
// the proposer actually receives. The result is tx.MaxTip itself when that
// is the smaller: callers only read it.
func effectiveTip(tx *Tx, baseFee *big.Int) *big.Int {
	headroom := new(big.Int).Sub(tx.MaxFee, baseFee)
	if headroom.Sign() < 0 {
		return new(big.Int)
	}
	if headroom.Cmp(tx.MaxTip) > 0 {
		return tx.MaxTip
	}
	return headroom
}

func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	if f <= 0 {
		return 1
	}
	return f
}

// backgroundDemand samples the gas demanded by the rest of the network for
// the next block. Demand is lognormal around the configured mean; spike
// episodes multiply it for a geometric number of blocks.
func (c *Chain) backgroundDemand() float64 {
	mean := c.cfg.CongestionMeanGas
	if c.cfg.CongestionElasticity > 0 {
		ratio := bigToFloat(c.cfg.InitialBaseFee) / bigToFloat(c.baseFee)
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

// pickProposer performs the stake-weighted RANDAO-style proposer selection
// for a slot.
func (c *Chain) pickProposer(parentHash chain.Hash32, slot uint64) *Validator {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], slot)
	h := polcrypto.Hash(parentHash[:], buf[:])
	seed := binary.BigEndian.Uint64(h[:8])
	total := uint64(0)
	for _, v := range c.validators {
		total += v.Stake
	}
	target := seed % total
	acc := uint64(0)
	for _, v := range c.validators {
		acc += v.Stake
		if target < acc {
			return v
		}
	}
	return c.validators[len(c.validators)-1]
}

func blockHash(b *Block) chain.Hash32 {
	buf := make([]byte, 0, 8+32+20+32+32+32*len(b.TxHashes))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], b.Number)
	buf = append(buf, n[:]...)
	buf = append(buf, b.ParentHash[:]...)
	buf = append(buf, b.Proposer[:]...)
	buf = append(buf, b.BaseFee.Bytes()...)
	buf = append(buf, b.StateRoot[:]...)
	for _, h := range b.TxHashes {
		buf = append(buf, h[:]...)
	}
	return chain.Hash32(polcrypto.Hash(buf))
}

// pruneRetention drops block bodies older than the retention window and
// their rows: receipts and explorer columns. Everything digest-relevant
// already lives in the rolling accumulators, so pruning never changes
// Digest.
func (c *Chain) pruneRetention() {
	c.blocks = chain.PruneBlocks(&c.rcpts, c.blocks, func(b *Block) []chain.Hash32 { return b.TxHashes })
}

// updateBaseFee applies the EIP-1559 adjustment: ±1/8 of the deviation from
// the gas target per block, at most 12.5%.
func (c *Chain) updateBaseFee(blk *Block) {
	target := c.cfg.BlockGasLimit / 2
	used := blk.GasUsed
	delta := new(big.Int).Set(c.baseFee)
	if used > target {
		diff := used - target
		delta.Mul(delta, new(big.Int).SetUint64(diff))
		delta.Div(delta, new(big.Int).SetUint64(target*8))
		c.baseFee.Add(c.baseFee, delta)
	} else {
		diff := target - used
		delta.Mul(delta, new(big.Int).SetUint64(diff))
		delta.Div(delta, new(big.Int).SetUint64(target*8))
		c.baseFee.Sub(c.baseFee, delta)
	}
	if c.baseFee.Cmp(c.cfg.MinBaseFee) < 0 {
		c.baseFee.Set(c.cfg.MinBaseFee)
	}
}

// updateFinality advances the justified/finalized checkpoints at epoch
// boundaries (simplified Casper FFG: with an honest supermajority every
// epoch justifies, and the previous justified checkpoint finalizes).
func (c *Chain) updateFinality() {
	head := c.Head().Number
	epoch := uint64(c.cfg.SlotsPerEpoch)
	if epoch == 0 || head%epoch != 0 {
		return
	}
	c.finalized = c.justified
	c.justified = head
}

// txEffects carries a transaction's serialized side effects out of
// executeOn: shard workers must not touch the proposer balance, the chain's
// burn/tip tallies or the explorer's columns, so those are returned and
// applied by Step's tail in canonical order after every shard finishes.
type txEffects struct {
	burn     *big.Int
	tip      *big.Int
	target   chain.Address
	isCreate bool
	// record is false for executions the explorer does not log (deploys
	// that die on the code deposit before reaching the EVM).
	record bool
}

// executeOn runs a transaction (hash is its pool-computed tx.Hash())
// against st — the canonical state on the serial path, a shard overlay on
// the parallel one — and builds its receipt. State changes of reverted
// executions are undone inside the EVM; fees are charged regardless, as on
// the real network. The sender is debited on st; the burn/tip split is
// returned for the caller to apply.
func (c *Chain) executeOn(st execState, tx *Tx, hash chain.Hash32, blk *Block) (chain.Receipt, txEffects) {
	tip := effectiveTip(tx, blk.BaseFee)
	price := new(big.Int).Add(blk.BaseFee, tip)

	rcpt := chain.Receipt{
		TxHash:      hash,
		BlockNumber: blk.Number,
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
	eff := txEffects{target: target, isCreate: isCreate}
	st.SetNonce(tx.From, tx.Nonce+1)

	depositGas := uint64(0)
	code, _ := st.Code(target)
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
		// everything.
		rcpt.GasUsed = tx.GasLimit
		rcpt.Reverted = true
		rcpt.RevertMsg = "out of gas: code deposit"
		rcpt.Fee.Base, eff.burn, eff.tip = chargeFeeOn(st, tx, rcpt.GasUsed, price, blk.BaseFee)
		rcpt.Fee.Unit = c.cfg.Unit
		return rcpt, eff
	}
	gasBudget -= depositGas

	// Credit the call value before execution; undo if it fails.
	valueMoved := false
	if tx.Value.Sign() > 0 {
		st.SubBalance(tx.From, tx.Value)
		st.AddBalance(target, tx.Value)
		valueMoved = true
	}
	if isCreate {
		st.SetCode(target, code)
	}

	var prof obs.Profiler
	if c.obs != nil {
		prof = c.obs.prof
	}
	res := evm.Execute(evm.Context{
		State:       st,
		Caller:      tx.From,
		Address:     target,
		Value:       tx.Value,
		CallData:    callData,
		GasLimit:    gasBudget,
		BlockNumber: blk.Number,
		Timestamp:   uint64(blk.Time / time.Second),
		Profiler:    prof,
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
		if valueMoved {
			st.AddBalance(tx.From, tx.Value)
			st.SubBalance(target, tx.Value)
		}
		if isCreate {
			st.DeleteCode(target)
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
	rcpt.Fee.Base, eff.burn, eff.tip = chargeFeeOn(st, tx, gasUsed, price, blk.BaseFee)
	rcpt.Fee.Unit = c.cfg.Unit
	eff.record = true
	return rcpt, eff
}

// chargeFeeOn debits the sender's full fee on st and returns it with its
// burn/tip split. The proposer credit and the chain-wide tallies are the
// caller's to apply: they are shared across shards, so they must happen in
// canonical order in the block's tail, not inside a shard worker.
func chargeFeeOn(st execState, tx *Tx, gasUsed uint64, price, baseFee *big.Int) (fee, burn, tipAmt *big.Int) {
	gas := new(big.Int).SetUint64(gasUsed)
	fee = new(big.Int).Mul(price, gas)
	st.SubBalance(tx.From, fee)
	burn = new(big.Int).Mul(baseFee, gas)
	tipAmt = new(big.Int).Sub(fee, burn)
	return fee, burn, tipAmt
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
