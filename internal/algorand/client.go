package algorand

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
)

// Client is the PureStake-style API view of the chain: it submits groups,
// waits for the round that includes them, then for the indexer to catch up —
// the pipeline whose latency the paper measures on Algorand.
//
// Client is also this family's side of the seam core.Connector and the
// soak driver are written over (core.Family): contract calls in the
// contract language's terms, batch items, state reads and persistence.
type Client struct {
	*Chain
}

// NewClient opens a client. Clients draw their simulated latencies from
// the chain's pre-forked client stream (shared by every client on the
// chain), so attaching one never advances the chain's own rng — a
// restored checkpoint stays bit-exact no matter how many clients wrap
// the chain afterwards.
func NewClient(c *Chain) *Client { return &Client{c} }

func (cl *Client) rpcLatency() time.Duration {
	return cl.cfg.RPCLatencyMean + time.Duration(cl.clientRng.Float64()*float64(cl.cfg.RPCLatencyJitter))
}

// Sleep advances the simulated clock by d — the client-side wait the
// resilience layer's backoff uses between retries.
func (cl *Client) Sleep(d time.Duration) {
	if d > 0 {
		cl.clock.AdvanceTo(cl.clock.Now() + d)
	}
}

// ErrTimeout reports a group not confirmed in the wait budget.
var ErrTimeout = errors.New("algorand: group not confirmed in time")

const maxWaitRounds = 300

// submitAndWait submits a signed group, advances rounds until it is
// certified, then waits for the indexer lag before returning the receipt
// with client-observed timestamps.
func (cl *Client) submitAndWait(g Group) (*chain.Receipt, error) {
	submitted := cl.clock.Now()
	cl.clock.AdvanceTo(submitted + cl.rpcLatency())
	h, err := cl.Submit(g)
	if err != nil {
		return nil, err
	}
	for i := 0; i < maxWaitRounds; i++ {
		cl.Step()
		rcpt, ok := cl.Receipt(h)
		if !ok {
			continue
		}
		// Blocks are final when certified; the client still reads effects
		// through the indexer, which lags by IndexerSyncRounds.
		for cl.Head().Round < rcpt.BlockNumber+uint64(cl.cfg.IndexerSyncRounds) {
			cl.Step()
		}
		observed := cl.Head().Time + cl.rpcLatency()
		cl.clock.AdvanceTo(observed)
		rcpt.Submitted = submitted
		rcpt.Included = observed
		return rcpt, nil
	}
	return nil, fmt.Errorf("%w after %d rounds", ErrTimeout, maxWaitRounds)
}

// send signs tx as acct's, submits it alone and waits for it; a rejected
// transaction is an error naming what failed.
func (cl *Client) send(acct *Account, tx *Tx, what string) (*chain.Receipt, error) {
	tx.Sign(acct)
	rcpt, err := cl.submitAndWait(Group{tx})
	if err != nil {
		return nil, err
	}
	if rcpt.Reverted {
		return rcpt, fmt.Errorf("algorand: %s failed: %s", what, rcpt.RevertMsg)
	}
	return rcpt, nil
}

// create is send for a creation, which returns the new id.
func (cl *Client) create(acct *Account, tx *Tx, what string) (*chain.Receipt, uint64, error) {
	rcpt, err := cl.send(acct, tx, what)
	if err != nil {
		return rcpt, 0, err
	}
	id, err := avm.Btoi(rcpt.ReturnValue)
	return rcpt, id, err
}

// createApp deploys an application (TEAL source + creation args) and
// returns its receipt and application ID.
func (cl *Client) createApp(acct *Account, source string, args [][]byte) (*chain.Receipt, uint64, error) {
	return cl.create(acct, &Tx{Type: TxAppCreate, Sender: acct.Address, Fee: MinFee, Source: source, Args: args}, "app creation")
}

// callApp invokes an application method. A non-zero pay amount groups a
// payment to the app escrow in front of the call (the `gtxn 0 Amount`
// convention the compiled programs check). A non-zero escrowFund groups a
// further payment *after* the call that tops up the application account
// (MinBalance activation) without counting as the API's payment — the
// extra deployment traffic the paper attributes to "the design of the
// network" (§5.1.5).
func (cl *Client) callApp(acct *Account, appID uint64, args [][]byte, pay, escrowFund uint64) (*chain.Receipt, error) {
	var g Group
	if pay > 0 {
		g = append(g, &Tx{Type: TxPay, Sender: acct.Address, Fee: MinFee, Receiver: cl.AppAddress(appID), Amount: pay})
	}
	g = append(g, &Tx{Type: TxAppCall, Sender: acct.Address, Fee: MinFee, AppID: appID, Args: args})
	if escrowFund > 0 {
		g = append(g, &Tx{Type: TxPay, Sender: acct.Address, Fee: MinFee, Receiver: cl.AppAddress(appID), Amount: escrowFund})
	}
	for _, tx := range g {
		tx.Sign(acct)
	}
	return cl.submitAndWait(g)
}

// simulate executes an application call against an overlay without fees,
// rounds or state effects — how views are evaluated (§4.1.2: views read
// state at no cost).
func (cl *Client) simulate(appID uint64, sender chain.Address, args [][]byte) (avm.Result, error) {
	prog := cl.led.app(appID)
	if prog == nil {
		return avm.Result{}, fmt.Errorf("algorand: no application %d", appID)
	}
	// The overlay absorbs the call's writes and is dropped.
	res := avm.Execute(prog, cl.led.fork(), avm.TxContext{
		Sender: sender, AppID: appID, Args: args, BudgetTxns: 4,
	})
	return res, nil
}

// --- core.Family ---

// Name is the network preset's name.
func (cl *Client) Name() string { return cl.cfg.Name }

// Unit is the network's native currency.
func (cl *Client) Unit() chain.Unit { return cl.cfg.Unit }

// CreateAccount creates an account funded with base µAlgos; a balance past
// 2^64-1 is refused.
func (cl *Client) CreateAccount(base *big.Int) (*Account, error) {
	if !base.IsUint64() {
		return nil, fmt.Errorf("algorand: balance of %v µAlgo is out of range", base)
	}
	return cl.NewAccount(base.Uint64()), nil
}

// Fund is Chain.Fund for an amount that fits a µAlgo balance; any other
// amount — nil, negative, 2^64 or more — credits nothing.
func (cl *Client) Fund(addr chain.Address, base *big.Int) {
	if base != nil && base.IsUint64() {
		cl.Chain.Fund(addr, base.Uint64())
	}
}

// Deploy creates the application. Its escrow account still needs its
// MinBalance deposit before it can hold funds; that payment rides the
// creator's first call (EscrowFunding).
func (cl *Client) Deploy(acct *Account, compiled *lang.Compiled, args []lang.Value) (*chain.Receipt, chain.Contract, error) {
	ctor, err := lang.EncodeArgsTEAL("", compiled.Program.Ctor.Params, args)
	if err != nil {
		return nil, chain.Contract{}, err
	}
	rcpt, id, err := cl.createApp(acct, compiled.TEALSource, ctor)
	return rcpt, chain.Contract{App: id}, err
}

// Call invokes api with pay µAlgos attached and, after the call, an
// escrow-activation payment of escrow µAlgos, and waits for the group. A
// rejected call returns its receipt and no value.
func (cl *Client) Call(acct *Account, at chain.Contract, _ *lang.Compiled, api *lang.API, args []lang.Value, pay, escrow uint64) (*chain.Receipt, lang.Value, error) {
	appArgs, err := lang.EncodeArgsTEAL(api.Name, api.Params, args)
	if err != nil {
		return nil, lang.Value{}, err
	}
	rcpt, err := cl.callApp(acct, at.App, appArgs, pay, escrow)
	if err != nil || rcpt.Reverted {
		return rcpt, lang.Value{}, err
	}
	v, err := lang.DecodeReturnTEAL(api.Returns, rcpt.ReturnValue)
	return rcpt, v, err
}

// View evaluates a view by simulation, free of charge.
func (cl *Client) View(at chain.Contract, v lang.View) (lang.Value, error) {
	appArgs, err := lang.EncodeArgsTEAL("view:"+v.Name, nil, nil)
	if err != nil {
		return lang.Value{}, err
	}
	res, err := cl.simulate(at.App, chain.Address{}, appArgs)
	if err != nil {
		return lang.Value{}, err
	}
	if !res.Approved {
		return lang.Value{}, fmt.Errorf("algorand: view %q rejected: %v", v.Name, res.Err)
	}
	return lang.DecodeReturnTEAL(v.Type, res.Return)
}

// ReadGlobal reads a global of program p from the application's state.
func (cl *Client) ReadGlobal(at chain.Contract, p *lang.Program, name string) (lang.Value, error) {
	return lang.ReadGlobalTEAL(cl.state(at), p, name)
}

// ReadMap reads one entry of a map of program p from the application's
// state.
func (cl *Client) ReadMap(at chain.Contract, p *lang.Program, mapName string, key uint64) (lang.Value, bool, error) {
	return lang.ReadMapTEAL(cl.state(at), p, mapName, key)
}

// state is the reader of the application's global state.
func (cl *Client) state(at chain.Contract) func(string) (avm.Value, bool) {
	return func(key string) (avm.Value, bool) { return cl.led.GlobalGet(at.App, key) }
}

// ContractBalance is the spendable balance of the application's escrow:
// its balance net of the locked minimum balance, so the same number means
// the same thing on every family.
func (cl *Client) ContractBalance(at chain.Contract) uint64 {
	total := cl.led.Balance(cl.AppAddress(at.App))
	if total < MinBalance {
		return 0
	}
	return total - MinBalance
}

// EscrowFunding is the deposit that activates an application's escrow
// account: MinBalance.
func (cl *Client) EscrowFunding() uint64 { return MinBalance }

// ContractAt is the i-th application a deployer creates on a chain where
// its creations come first — application ids are allocated from 1 — and
// whether it exists.
func (cl *Client) ContractAt(_ chain.Address, i uint64) (chain.Contract, bool) {
	_, ok := cl.App(i + 1)
	return chain.Contract{App: i + 1}, ok
}

// DeployItem builds and signs the creation of compiled as a one-member
// group; Algorand has no nonces.
func (cl *Client) DeployItem(acct *Account, _ uint64, compiled *lang.Compiled, args []lang.Value) (chain.Item, error) {
	ctor, err := lang.EncodeArgsTEAL("", compiled.Program.Ctor.Params, args)
	if err != nil {
		return nil, err
	}
	tx := &Tx{Type: TxAppCreate, Sender: acct.Address, Fee: MinFee, Source: compiled.TEALSource, Args: ctor}
	tx.Sign(acct)
	return Group{tx}, nil
}

// CallItem builds and signs a call of api on at as a one-member group.
func (cl *Client) CallItem(acct *Account, _ uint64, at chain.Contract, _ *lang.Compiled, api *lang.API, args []lang.Value) (chain.Item, error) {
	appArgs, err := lang.EncodeArgsTEAL(api.Name, api.Params, args)
	if err != nil {
		return nil, err
	}
	tx := &Tx{Type: TxAppCall, Sender: acct.Address, Fee: MinFee, AppID: at.App, Args: appArgs}
	tx.Sign(acct)
	return Group{tx}, nil
}

// SubmitItems is SubmitBatch over items DeployItem and CallItem built.
func (cl *Client) SubmitItems(items []chain.Item) []error {
	gs := make([]Group, len(items))
	for i, item := range items {
		gs[i] = item.(Group)
	}
	_, errs := cl.SubmitBatch(gs)
	return errs
}

// Seal certifies the next round.
func (cl *Client) Seal() { cl.Step() }

// Height is the head round.
func (cl *Client) Height() uint64 { return cl.Head().Round }

// MarshalCheckpoint is the JSON encoding of Checkpoint.
func (cl *Client) MarshalCheckpoint() ([]byte, error) {
	ck, err := cl.Checkpoint()
	if err != nil {
		return nil, err
	}
	return json.Marshal(ck)
}

// Restore moves a freshly opened chain onto the ledger committed at root
// in store and the MarshalCheckpoint blob taken with it — what Open does
// with a store and a checkpoint.
func (cl *Client) Restore(store mstate.NodeStore, root mstate.Hash, checkpoint []byte) error {
	var ck Checkpoint
	if err := json.Unmarshal(checkpoint, &ck); err != nil {
		return fmt.Errorf("algorand: decode checkpoint: %w", err)
	}
	return cl.load(store, root, &ck)
}
