package algorand

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/faults"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// TxType discriminates transaction kinds.
type TxType int

// Transaction kinds.
const (
	TxPay TxType = iota
	TxAppCreate
	TxAppCall
	TxAssetCreate
	TxAssetOptIn
	TxAssetTransfer
)

// Tx is one Algorand transaction.
type Tx struct {
	Type   TxType
	Sender chain.Address
	Fee    uint64

	// Payment fields.
	Receiver chain.Address
	Amount   uint64

	// Application fields.
	AppID  uint64 // 0 for create
	Source string // TEAL source, for create
	Args   [][]byte

	// Asset fields (ASA extension, §2.8). Amount doubles as the asset
	// amount for transfers and the total supply for creation.
	AssetID       uint64
	AssetName     string
	AssetUnit     string
	AssetDecimals uint32

	PubKey ed25519.PublicKey
	Sig    []byte
}

// sigMessage is the digest the signature covers. The preimage buffer is
// sized once: a call or payment fits the stack buffer, anything longer (a
// creation carrying its source) gets one heap buffer of its exact size.
func (tx *Tx) sigMessage() [32]byte {
	need := 1 + 2*len(tx.Sender) + 5*8 + len(tx.AssetName) + len(tx.AssetUnit) + len(tx.Source)
	for _, a := range tx.Args {
		need += len(a)
	}
	buf := make([]byte, 0, 512)
	if need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	buf = append(buf, byte(tx.Type))
	buf = append(buf, tx.Sender[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.Fee)
	buf = append(buf, tx.Receiver[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.Amount)
	buf = binary.BigEndian.AppendUint64(buf, tx.AppID)
	buf = binary.BigEndian.AppendUint64(buf, tx.AssetID)
	buf = append(buf, tx.AssetName...)
	buf = append(buf, tx.AssetUnit...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(tx.AssetDecimals))
	buf = append(buf, tx.Source...)
	for _, a := range tx.Args {
		buf = append(buf, a...)
	}
	return polcrypto.Hash1(buf)
}

// Sign attaches the sender's signature.
func (tx *Tx) Sign(acct *Account) {
	tx.PubKey = acct.Key.Public
	msg := tx.sigMessage()
	tx.Sig = acct.Key.Sign(msg[:])
}

// Verify checks the signature.
func (tx *Tx) Verify() error {
	if chain.AddressFromPublicKey(tx.PubKey) != tx.Sender {
		return errors.New("algorand: sender does not match public key")
	}
	if msg := tx.sigMessage(); !polcrypto.Verify(tx.PubKey, msg[:], tx.Sig) {
		return polcrypto.ErrBadSignature
	}
	return nil
}

// Group is an atomic transaction group.
type Group []*Tx

// Verify checks every member's signature.
func (g Group) Verify() error {
	for _, tx := range g {
		if tx == nil {
			return errors.New("algorand: empty group member")
		}
		if err := tx.Verify(); err != nil {
			return err
		}
	}
	return nil
}

// Hash identifies the group: the digest of every member's signed message
// and signature, appended into one buffer sized for the group.
func (g Group) Hash() chain.Hash32 {
	buf := make([]byte, 0, 512)
	if need := len(g) * (32 + ed25519.SignatureSize); need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	for _, tx := range g {
		msg := tx.sigMessage()
		buf = append(buf, msg[:]...)
		buf = append(buf, tx.Sig...)
	}
	return chain.Hash32(polcrypto.Hash1(buf))
}

// Block is one certified round.
type Block struct {
	Round    uint64
	Time     time.Duration
	Seed     chain.Hash32
	PrevSeed chain.Hash32
	Proposer Credential
	Groups   []chain.Hash32
	// StateRoot is the ledger's Merkle root after this round executed —
	// part of the block hash, so a single state divergence anywhere in
	// the world makes every subsequent block hash differ.
	StateRoot chain.Hash32
	Hash      chain.Hash32
}

// Chain is the simulated Algorand network.
type Chain struct {
	cfg   Config
	clock *chain.Clock
	rng   *chain.Rand
	led   *ledger

	participants []*Participant
	totalStake   uint64

	// head is the latest certified round. Earlier rounds are not kept:
	// what is read of them is their receipts, which rcpts holds for the
	// retention window.
	head    *Block
	feeSink chain.Address

	// nextProposers is the next round's proposer sortition, started by
	// Step as soon as the head's seed was fixed; the next Step uses it
	// only if its seed is the one that Step derives from its head.
	nextProposers *vrfBatch

	// The family-independent half of round building lives in package
	// chain: the fan-out width and execution tallies (SetShards, Shards,
	// ShardStats), the pending pool with its admission pipeline, and the
	// receipts with their rolling digest and retention window.
	chain.Sharder
	pool  *chain.Pool[Group]
	rcpts chain.Receipts

	// obs holds the chain's instrumentation; nil when uninstrumented.
	obs *chainObs

	// clientRng is the pre-forked stream clients draw their simulated
	// RPC/indexer latencies from; see newChain for why it is not forked
	// lazily. Every client attached to the chain shares it.
	clientRng *chain.Rand
}

// NewChain builds a network from a preset and seed. It is a thin
// wrapper over Open's in-memory path; chains that should restart from a
// committed state root go through Open directly.
func NewChain(cfg Config, seed uint64) *Chain {
	c, err := Open(Options{Config: cfg, Seed: seed})
	if err != nil {
		// The in-memory path fails only on a Config with no participants
		// (ErrNoParticipants), which no preset has.
		panic("algorand: " + err.Error())
	}
	return c
}

func newChain(cfg Config, seed uint64) *Chain {
	c := &Chain{
		cfg:     cfg,
		clock:   chain.NewClock(),
		rng:     chain.NewRand(seed).Fork("algorand:" + cfg.Name),
		led:     newLedger(),
		feeSink: chain.AddressFromBytes([]byte("algorand-fee-sink")),
	}
	// An injected tx_delay stalls propagation for up to three rounds.
	c.pool = chain.NewPool(c.clock, "algorand.pending", 3*cfg.RoundDuration, admit)
	// Pre-fork the client stream at a fixed point in construction:
	// forking consumes a draw from the chain rng, and a lazy fork in
	// NewClient would make the chain's stream position depend on whether
	// — and when — a client is attached. A chain reopened from a
	// checkpoint re-forks this stream at the same point, so attaching a
	// client never perturbs the restored rng state.
	c.clientRng = c.rng.Fork("client")
	keyRng := c.rng.Fork("participants")
	stakeRng := c.rng.Fork("stakes")
	for i := 0; i < cfg.ParticipantCount; i++ {
		kp := polcrypto.MustGenerateKeyPair(keyRng)
		p := &Participant{
			Key:     kp,
			Address: chain.AddressFromPublicKey(kp.Public),
			// Pure PoS: no minimum stake; spread stakes over an order of
			// magnitude.
			Stake: 1000 + stakeRng.Uint64n(9000),
		}
		c.participants = append(c.participants, p)
		c.totalStake += p.Stake
	}
	genesis := &Block{Round: 0, Time: 0}
	genesis.Seed = chain.Hash32(polcrypto.Hash([]byte("algorand-genesis:" + cfg.Name)))
	genesis.Hash = genesis.Seed
	c.head = genesis
	return c
}

// Config returns the network configuration.
func (c *Chain) Config() Config { return c.cfg }

// SetFaults attaches a fault injector to the pending pool.
func (c *Chain) SetFaults(inj *faults.Injector) { c.pool.SetFaults(inj) }

// Faults returns the attached fault injector, nil when off.
func (c *Chain) Faults() *faults.Injector { return c.pool.Faults() }

// Now returns current simulated time.
func (c *Chain) Now() time.Duration { return c.clock.Now() }

// Head returns the latest certified block.
func (c *Chain) Head() *Block { return c.head }

// NewAccount creates and funds an account. Funding zero is a no-op —
// it must not create a phantom zero-balance ledger entry.
func (c *Chain) NewAccount(microAlgos uint64) *Account {
	acct := chain.NewAccount(c.rng.Fork("account"))
	c.led.credit(acct.Address, microAlgos)
	return acct
}

// Balance returns an account balance as an Amount.
func (c *Chain) Balance(addr chain.Address) chain.Amount {
	return chain.NewAmount(new(big.Int).SetUint64(c.led.Balance(addr)), c.cfg.Unit)
}

// StateRoot returns the current Merkle root of the ledger.
func (c *Chain) StateRoot() chain.Hash32 { return c.led.root() }

// Digest hashes the chain's externally observable end state — head block,
// sequence counters, the ledger's Merkle root and the rolling receipt
// accumulator — into one value. The determinism gates compare digests
// across fan-out widths and GOMAXPROCS settings: equal digests mean
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

// SetRetention bounds how many recent rounds keep their receipts
// resident; n <= 0 keeps everything. No round body is kept either way:
// the chain holds its head alone. Digest is unaffected: receipts fold
// into a rolling accumulator at inclusion time and the world state enters
// through the Merkle root.
func (c *Chain) SetRetention(n int) { c.rcpts.Retention = n }

// AppAddress returns the escrow address of an application.
func (c *Chain) AppAddress(appID uint64) chain.Address { return c.led.AppAddress(appID) }

// App returns a deployed application's parsed program. Apps deployed from
// one source share it.
func (c *Chain) App(appID uint64) (*avm.Program, bool) {
	p, ok := c.led.apps[appID]
	return p, ok
}

// Submit queues a signed group for the next round.
func (c *Chain) Submit(g Group) (chain.Hash32, error) { return c.pool.Submit(g) }

// SubmitBatch validates and queues a batch of signed groups in one call:
// signatures verify concurrently at the SetShards width, admission
// stays serial in slice order, so the pending pool and fault streams are
// identical to len(gs) Submit calls. Result slot i is the hash or error
// for gs[i].
func (c *Chain) SubmitBatch(gs []Group) ([]chain.Hash32, []error) {
	return c.pool.SubmitBatch(gs, &c.Sharder)
}

// PendingCount reports the pending-pool depth.
func (c *Chain) PendingCount() int { return c.pool.Len() }

// admit is the pending pool's admission check for a group whose signatures
// already verified: it must be non-empty and pay the minimum fee.
func admit(g Group) error {
	if len(g) == 0 {
		return errors.New("algorand: empty group")
	}
	for _, tx := range g {
		if tx.Fee < MinFee {
			return fmt.Errorf("algorand: fee %d below min fee %d", tx.Fee, MinFee)
		}
	}
	return nil
}

// Receipt returns the receipt of a processed group.
func (c *Chain) Receipt(h chain.Hash32) (*chain.Receipt, bool) { return c.rcpts.Get(h) }

// Step runs one consensus round: sortition selects the proposer, whose VRF
// output advances the seed chain, the proposer assembles the block from all
// propagated groups (capacity is never the bottleneck at our scale), and the
// block is final immediately.
func (c *Chain) Step() *Block {
	roundNum := c.Head().Round + 1
	roundTime := time.Duration(roundNum) * c.cfg.RoundDuration
	c.clock.AdvanceTo(roundTime)
	prev := c.Head()

	// Leader selection by VRF sortition; lowest sub-user priority wins. The
	// previous Step started this sortition, unless there was none or the
	// chain has since been restored onto another head: then the batch is
	// for some other seed and is dropped.
	propSeed := sortitionSeed(prev.Seed, roundNum, "propose")
	props := c.nextProposers
	if props == nil || !bytes.Equal(props.seed, propSeed) {
		props = c.startVRFs(propSeed)
	}
	evals := props.wait()
	candidates := c.selectCredentials(evals, c.cfg.ExpectedProposers)
	if len(candidates) == 0 {
		// Nobody drew a proposer slot at the nominal expected size (≈ e⁻⁵
		// of Testnet rounds): widen selection to one expected sub-user per
		// participant over the same VRF outputs, so the round still has a
		// leader and carries groups like any other.
		candidates = c.selectCredentials(evals, float64(len(c.participants)))
	}
	if len(candidates) == 0 {
		// Still nobody, which only a handful of participants makes likely:
		// at an expectation of the whole stake every sub-user is selected.
		candidates = c.selectCredentials(evals, float64(c.totalStake))
	}
	leader := candidates[0]
	best := proposalPriority(leader)
	for _, cand := range candidates[1:] {
		if p := proposalPriority(cand); lessBytes(p[:], best[:]) {
			leader, best = cand, p
		}
	}

	c.led.time = uint64(roundTime / time.Second)

	blk := &Block{
		Round:    roundNum,
		Time:     roundTime,
		PrevSeed: prev.Seed,
		Proposer: leader,
	}
	blk.Seed = chain.Hash32(polcrypto.Hash(prev.Seed[:], leader.Output[:]))
	// The next round's proposer seed hangs off blk.Seed alone, not off any
	// group, so its sortition can start now: on a second core it runs while
	// this round executes and while the caller works between Steps.
	c.nextProposers = c.startVRFs(sortitionSeed(blk.Seed, roundNum+1, "propose"))

	// Selection: every propagated group is included (capacity is never the
	// bottleneck at our scale). Execution runs the groups in canonical order
	// in one overlay of the ledger, inside which a failed group rolls back
	// (executeGroup).
	sel := c.pool.Take(roundTime, func(_ int, p *chain.Pending[Group]) bool { return p.Submitted < roundTime })
	if len(sel) > 0 {
		blk.Groups = make([]chain.Hash32, len(sel))
	}
	c.rcpts.Begin(blk.Round, len(sel))
	var feeSink, cost uint64
	o := c.led.fork()
	for i, p := range sel {
		sink, gas := c.executeGroup(o, p, blk)
		feeSink += sink
		cost += gas
		blk.Groups[i] = p.Hash
	}
	// The overlay's writes, then one credit of the round's fees to the fee
	// sink, then the root.
	c.led.adopt(o)
	c.led.credit(c.feeSink, feeSink)
	blk.StateRoot = c.led.root()
	c.Record(uint64(len(sel)), cost)

	c.rcpts.End()
	blk.Hash = chain.Hash32(polcrypto.Hash(blk.Seed[:], hashGroups(blk.Groups), blk.StateRoot[:]))

	c.head = blk
	if c.obs != nil {
		c.obs.roundsCertified.Inc()
	}
	return blk
}

func hashGroups(hs []chain.Hash32) []byte {
	buf := make([]byte, 0, 32*len(hs))
	for _, h := range hs {
		buf = append(buf, h[:]...)
	}
	sum := polcrypto.Hash(buf)
	return sum[:]
}

// executeGroup applies one atomic group (p.Hash is its pool-computed
// g.Hash()) in the round's overlay o under a revert point: on any failure
// the group's writes are taken back and the fees charged again on the
// restored state (the network did the work). Creations additionally hand
// their sequence numbers back. It includes the group's receipt and returns
// what the group owes the round: the fee-sink credit (the fees actually
// collected — on a revert, only from senders who could still pay) and the
// gas its programs spent.
func (c *Chain) executeGroup(o *ledgerOverlay, p *chain.Pending[Group], blk *Block) (feeSink, gas uint64) {
	g := p.Item
	rcpt := chain.Receipt{
		TxHash:      p.Hash,
		BlockNumber: blk.Round,
		Submitted:   p.Submitted,
		Included:    blk.Time,
	}

	totalFee := uint64(0)
	for _, tx := range g {
		totalFee += tx.Fee
	}

	o.ov.Mark()
	appSeq, assetSeq := c.led.appSeq, c.led.assetSeq

	// Fees first; insufficient fee balance fails the group outright.
	for _, tx := range g {
		bal := o.Balance(tx.Sender)
		if bal < tx.Fee {
			o.ov.Revert()
			rcpt.Reverted = true
			rcpt.RevertMsg = "insufficient balance for fee"
			rcpt.Fee = chain.NewAmount(new(big.Int), c.cfg.Unit)
			c.include(&rcpt, 0)
			return 0, 0
		}
		o.setBalance(tx.Sender, bal-tx.Fee)
	}

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
			case TxAppCreate:
				prog, err := c.led.program(tx.Source)
				if err != nil {
					return fmt.Errorf("algorand: approval program: %w", err)
				}
				id := o.createApp(tx.Sender, prog, blk.Round)
				res := avm.Execute(prog, o, avm.TxContext{
					Sender: tx.Sender, AppID: id, CreateMode: true,
					Args: tx.Args, PayAmount: payAmount,
					BudgetTxns: len(g), Profiler: prof,
				})
				rcpt.GasUsed += res.Cost
				rcpt.Logs = append(rcpt.Logs, res.Logs...)
				if !res.Approved {
					return fmt.Errorf("algorand: creation rejected: %w", errOf(res))
				}
				rcpt.ReturnValue = avm.Itob(id)
			case TxAssetCreate:
				a := o.assetCreate(tx.Sender, tx.AssetName, tx.AssetUnit, tx.Amount, tx.AssetDecimals, blk.Round)
				rcpt.ReturnValue = avm.Itob(a.ID)
			case TxAssetOptIn:
				if !o.assetExists(tx.AssetID) {
					return fmt.Errorf("%w: %d", ErrAssetNotFound, tx.AssetID)
				}
				if o.assetOptedIn(tx.Sender, tx.AssetID) {
					return fmt.Errorf("%w: %s / asset %d", ErrAlreadyOptedIn, tx.Sender, tx.AssetID)
				}
				o.assetOptIn(tx.Sender, tx.AssetID)
			case TxAssetTransfer:
				if err := o.assetTransfer(tx.AssetID, tx.Sender, tx.Receiver, tx.Amount); err != nil {
					return err
				}
			case TxAppCall:
				prog := o.app(tx.AppID)
				if prog == nil {
					return fmt.Errorf("algorand: no application %d", tx.AppID)
				}
				res := avm.Execute(prog, o, avm.TxContext{
					Sender: tx.Sender, AppID: tx.AppID,
					Args: tx.Args, PayAmount: payAmount,
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
			}
		}
		return nil
	}()

	if err != nil {
		// Take the group's writes back — everything including the fee
		// debits — then re-charge fees where the pre-group balance allows.
		o.ov.Revert()
		c.led.uncreate(appSeq, assetSeq)
		fees := make(map[chain.Address]uint64)
		for _, tx := range g {
			fees[tx.Sender] += tx.Fee
		}
		for addr, fee := range fees {
			if bal := o.Balance(addr); bal >= fee {
				o.setBalance(addr, bal-fee)
				feeSink += fee
			}
		}
		rcpt.Reverted = true
		rcpt.RevertMsg = err.Error()
		rcpt.Logs = nil // a failed group logs nothing, as a failed EVM call
	} else {
		o.ov.Keep()
		feeSink = totalFee
	}
	rcpt.Fee = chain.NewAmount(new(big.Int).SetUint64(totalFee), c.cfg.Unit)
	c.include(&rcpt, totalFee)
	return feeSink, rcpt.GasUsed
}

// include folds a group's receipt into the chain's receipts and counts the
// fees charged — zero when the fee debit failed — and a rejection.
func (c *Chain) include(rcpt *chain.Receipt, charged uint64) {
	// Fees are µAlgo uint64 amounts and cannot be negative, so the raw
	// magnitude is an unambiguous encoding. A call's return line is kept
	// as its return value alone.
	c.rcpts.Add(rcpt, rcpt.Fee.Base.Bytes(), nil, avm.ReturnPrefix)
	if c.obs == nil {
		return
	}
	if charged > 0 {
		c.obs.fees.Add(charged)
	}
	if rcpt.Reverted {
		c.obs.groupsRejected.Inc()
	}
}

func errOf(res avm.Result) error {
	if res.Err != nil {
		return res.Err
	}
	return avm.ErrRejected
}
