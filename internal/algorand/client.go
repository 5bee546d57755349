package algorand

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
)

// bigInt aliases keep chain.go free of math/big noise.
type bigInt = big.Int

func newBigInt(v uint64) *big.Int { return new(big.Int).SetUint64(v) }

// Client is the PureStake-style API view of the chain: it submits groups,
// waits for the round that includes them, then for the indexer to catch up —
// the pipeline whose latency the paper measures on Algorand.
type Client struct {
	chain *Chain
	rng   *chain.Rand
}

// NewClient opens a client. Clients draw their simulated latencies from
// the chain's pre-forked client stream (shared by every client on the
// chain), so attaching one never advances the chain's own rng — a
// restored checkpoint stays bit-exact no matter how many clients wrap
// the chain afterwards.
func NewClient(c *Chain) *Client {
	return &Client{chain: c, rng: c.clientRng}
}

// Chain exposes the underlying chain.
func (cl *Client) Chain() *Chain { return cl.chain }

func (cl *Client) rpcLatency() time.Duration {
	cfg := cl.chain.cfg
	return cfg.RPCLatencyMean + time.Duration(cl.rng.Float64()*float64(cfg.RPCLatencyJitter))
}

// Sleep advances the simulated clock by d — the client-side wait the
// resilience layer's backoff uses between retries.
func (cl *Client) Sleep(d time.Duration) {
	if d > 0 {
		cl.chain.clock.AdvanceTo(cl.chain.clock.Now() + d)
	}
}

// ErrTimeout reports a group not confirmed in the wait budget.
var ErrTimeout = errors.New("algorand: group not confirmed in time")

const maxWaitRounds = 300

// SubmitAndWait submits a signed group, advances rounds until it is
// certified, then waits for the indexer lag before returning the receipt
// with client-observed timestamps.
func (cl *Client) SubmitAndWait(g Group) (*chain.Receipt, error) {
	submitted := cl.chain.clock.Now()
	cl.chain.clock.AdvanceTo(submitted + cl.rpcLatency())
	h, err := cl.chain.Submit(g)
	if err != nil {
		return nil, err
	}
	for i := 0; i < maxWaitRounds; i++ {
		cl.chain.Step()
		rcpt, ok := cl.chain.Receipt(h)
		if !ok {
			continue
		}
		// Blocks are final when certified; the client still reads effects
		// through the indexer, which lags by IndexerSyncRounds.
		for cl.chain.Head().Round < rcpt.BlockNumber+uint64(cl.chain.cfg.IndexerSyncRounds) {
			cl.chain.Step()
		}
		observed := cl.chain.Head().Time + cl.rpcLatency()
		cl.chain.clock.AdvanceTo(observed)
		rcpt.Submitted = submitted
		rcpt.Included = observed
		return rcpt, nil
	}
	return nil, fmt.Errorf("%w after %d rounds", ErrTimeout, maxWaitRounds)
}

// CreateApp deploys an application (TEAL source + creation args) and
// returns its receipt and application ID.
func (cl *Client) CreateApp(acct *Account, source string, args [][]byte) (*chain.Receipt, uint64, error) {
	tx := &Tx{Type: TxAppCreate, Sender: acct.Address, Fee: MinFee, Source: source, Args: args}
	tx.Sign(acct)
	rcpt, err := cl.SubmitAndWait(Group{tx})
	if err != nil {
		return nil, 0, err
	}
	if rcpt.Reverted {
		return rcpt, 0, fmt.Errorf("algorand: app creation failed: %s", rcpt.RevertMsg)
	}
	id, err := avm.Btoi(rcpt.ReturnValue)
	if err != nil {
		return rcpt, 0, err
	}
	return rcpt, id, nil
}

// Pay transfers µAlgos (used to fund application escrow accounts up to
// MinBalance before first use — the extra deployment transaction the paper
// attributes to "the design of the network").
func (cl *Client) Pay(acct *Account, to chain.Address, amount uint64) (*chain.Receipt, error) {
	tx := &Tx{Type: TxPay, Sender: acct.Address, Fee: MinFee, Receiver: to, Amount: amount}
	tx.Sign(acct)
	rcpt, err := cl.SubmitAndWait(Group{tx})
	if err != nil {
		return nil, err
	}
	if rcpt.Reverted {
		return rcpt, fmt.Errorf("algorand: payment failed: %s", rcpt.RevertMsg)
	}
	return rcpt, nil
}

// CallApp invokes an application method. A non-zero pay amount groups a
// payment to the app escrow in front of the call (the `gtxn 0 Amount`
// convention the compiled programs check). A non-zero escrowFund groups a
// further payment *after* the call that tops up the application account
// (MinBalance activation) without counting as the API's payment.
func (cl *Client) CallApp(acct *Account, appID uint64, args [][]byte, pay, escrowFund uint64) (*chain.Receipt, error) {
	var g Group
	if pay > 0 {
		payTx := &Tx{
			Type: TxPay, Sender: acct.Address, Fee: MinFee,
			Receiver: cl.chain.AppAddress(appID), Amount: pay,
		}
		payTx.Sign(acct)
		g = append(g, payTx)
	}
	call := &Tx{Type: TxAppCall, Sender: acct.Address, Fee: MinFee, AppID: appID, Args: args}
	call.Sign(acct)
	g = append(g, call)
	if escrowFund > 0 {
		fundTx := &Tx{
			Type: TxPay, Sender: acct.Address, Fee: MinFee,
			Receiver: cl.chain.AppAddress(appID), Amount: escrowFund,
		}
		fundTx.Sign(acct)
		g = append(g, fundTx)
	}
	return cl.SubmitAndWait(g)
}

// Simulate executes an application call against an overlay without fees,
// rounds or state effects — how the connector evaluates Views (§4.1.2:
// views read state at no cost).
func (cl *Client) Simulate(appID uint64, sender chain.Address, args [][]byte) (avm.Result, error) {
	app := cl.chain.led.app(appID)
	if app == nil {
		return avm.Result{}, fmt.Errorf("algorand: no application %d", appID)
	}
	// The overlay absorbs the call's writes and is dropped.
	res := avm.Execute(app.Program, cl.chain.led.fork(), avm.TxContext{
		Sender: sender, AppID: appID, Args: args, BudgetTxns: 4,
	})
	return res, nil
}
