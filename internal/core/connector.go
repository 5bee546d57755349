package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/eth"
	"agnopol/internal/faults"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
	"agnopol/internal/obs"
)

// Connector is the blockchain-agnostic runtime interface (the role of the
// Reach JS standard library, §2.9.3): the same compiled program and the
// same frontend calls run against any chain. There is one implementation,
// written once over the chain family's Family surface; NewEVMConnector
// (Ropsten/Goerli/Polygon) and NewAlgorandConnector build it.
type Connector interface {
	// Name of the underlying network (e.g. "goerli").
	Name() string
	// Unit of the native currency.
	Unit() chain.Unit
	// Now is the network's simulated time.
	Now() time.Duration
	// NewAccount creates a funded account (whole tokens). A negative, not
	// finite or unrepresentable amount is an ErrBadAmount.
	NewAccount(tokens float64) (*Account, error)
	// Balance of an account in base units.
	Balance(acct *Account) chain.Amount

	// Deploy publishes the compiled contract with constructor args,
	// retrying transient injected faults (faults.Injector.Retry).
	Deploy(acct *Account, compiled *lang.Compiled, args []lang.Value) (*Handle, *OpResult, error)
	// Invoke calls an API under the given options (payment and escrow
	// funding), retrying transient injected faults like Deploy. This is
	// the one call entry point.
	Invoke(acct *Account, h *Handle, api string, opts CallOpts, args ...lang.Value) (lang.Value, *OpResult, error)
	// EscrowFunding is the amount the first call after deployment must
	// carry to activate the contract's account (Algorand's MinBalance;
	// zero on EVM chains).
	EscrowFunding() uint64
	// Sleep advances the connector's simulated clock — the wait primitive
	// backoff runs on.
	Sleep(d time.Duration)
	// View evaluates a view at no cost.
	View(h *Handle, name string) (lang.Value, error)
	// ReadGlobal and ReadMap are the free frontend state reads.
	ReadGlobal(h *Handle, name string) (lang.Value, error)
	ReadMap(h *Handle, mapName string, key uint64) (lang.Value, bool, error)
	// ContractBalance is the contract's spendable native balance in base
	// units.
	ContractBalance(h *Handle) uint64
}

// Family is what one chain family supplies to the code written once over
// it: the Connector, and sim's soak driver with its checkpoints.
// *eth.Client and *algorand.Client implement it; contracts are located by
// chain.Contract and accounts are chain.Accounts.
type Family interface {
	// Name, Unit, Now and Sleep are the Connector's.
	Name() string
	Unit() chain.Unit
	Now() time.Duration
	Sleep(d time.Duration)
	// Faults and SetFaults read and attach the chain's fault injector.
	Faults() *faults.Injector
	SetFaults(inj *faults.Injector)
	// Instrument attaches an observability bundle under the family's
	// metric prefix; nil detaches it.
	Instrument(o *obs.Obs)

	// CreateAccount creates an account holding base units, its key drawn
	// from the chain's account stream; a balance the chain cannot hold is
	// an error.
	CreateAccount(base *big.Int) (*chain.Account, error)
	// Fund credits addr base units without drawing from the chain's rng.
	// An amount no balance of the family holds — nil, negative, or past
	// its balance word (2^256-1 wei, 2^64-1 µAlgo) — credits nothing.
	Fund(addr chain.Address, base *big.Int)
	Balance(addr chain.Address) chain.Amount

	// Deploy and Call build and sign a creation or an API call, submit it
	// and wait for its receipt. Call attaches pay, and escrow after the
	// call, in base units, and decodes the result unless the call
	// reverted.
	Deploy(acct *chain.Account, compiled *lang.Compiled, args []lang.Value) (*chain.Receipt, chain.Contract, error)
	Call(acct *chain.Account, at chain.Contract, compiled *lang.Compiled, api *lang.API, args []lang.Value, pay, escrow uint64) (*chain.Receipt, lang.Value, error)
	// View, ReadGlobal, ReadMap, ContractBalance and EscrowFunding are the
	// Connector's reads, on a located contract.
	View(at chain.Contract, v lang.View) (lang.Value, error)
	ReadGlobal(at chain.Contract, p *lang.Program, name string) (lang.Value, error)
	ReadMap(at chain.Contract, p *lang.Program, mapName string, key uint64) (lang.Value, bool, error)
	ContractBalance(at chain.Contract) uint64
	EscrowFunding() uint64

	// ContractAt is where a deployer's i-th contract lands, and whether
	// one lives there.
	ContractAt(deployer chain.Address, i uint64) (at chain.Contract, deployed bool)
	// DeployItem and CallItem build and sign acct's nonce-th transaction
	// for SubmitItems, the batched submission path; Seal produces one
	// block and Height is the head's number.
	DeployItem(acct *chain.Account, nonce uint64, compiled *lang.Compiled, args []lang.Value) (chain.Item, error)
	CallItem(acct *chain.Account, nonce uint64, at chain.Contract, compiled *lang.Compiled, api *lang.API, args []lang.Value) (chain.Item, error)
	SubmitItems(items []chain.Item) []error
	Seal()
	Height() uint64
	PendingCount() int
	SetShards(n int)
	SetRetention(n int)
	Digest() chain.Hash32
	StateRoot() chain.Hash32

	// MarshalCheckpoint and CommitState capture the chain's position and
	// its state; Restore puts a freshly opened chain back on them.
	MarshalCheckpoint() ([]byte, error)
	CommitState(store mstate.NodeStore) (mstate.Hash, error)
	Restore(store mstate.NodeStore, root mstate.Hash, checkpoint []byte) error
}

// Account is a chain account usable through a Connector.
type Account struct{ chain.Account }

// Address returns the 20-byte account address.
func (a *Account) Address() [20]byte { return a.Account.Address }

// Handle identifies a deployed contract on some connector — the
// "contract id" users exchange through the hypercube (§2.2).
type Handle struct {
	Connector string
	// EVMAddr is set on Ethereum-family chains; AppID on Algorand.
	EVMAddr  chain.Address
	AppID    uint64
	Compiled *lang.Compiled
}

// ID renders the handle as the string stored in the hypercube.
func (h *Handle) ID() string {
	if h.AppID != 0 {
		return fmt.Sprintf("%s/app/%d", h.Connector, h.AppID)
	}
	return fmt.Sprintf("%s/%s", h.Connector, h.EVMAddr)
}

func (h *Handle) at() chain.Contract { return chain.Contract{Addr: h.EVMAddr, App: h.AppID} }

// OpResult is the measured outcome of one frontend operation — the latency
// and fee samples the evaluation chapter aggregates. Latency spans every
// attempt including backoff waits; Fee and GasUsed are what the chain
// actually charged (dropped submissions cost nothing).
type OpResult struct {
	Latency  time.Duration
	Fee      chain.Amount
	GasUsed  uint64
	Receipts []*chain.Receipt
	// Retries counts the extra attempts the resilience layer needed; 0 on
	// the happy path.
	Retries int
}

// CallOpts carries what an API call attaches: the payment and whether the
// escrow activation deposit rides along.
type CallOpts struct {
	// Pay is the attached native amount in base units.
	Pay uint64
	// EscrowFund folds the contract-account activation deposit
	// (EscrowFunding) into the same atomic operation.
	EscrowFund bool
}

var (
	// ErrAPIRejected reports an API call rejected on-chain (assume failure,
	// insufficient funds…).
	ErrAPIRejected = errors.New("core: API call rejected")
	// ErrBadAmount reports a token amount NewAccount cannot credit:
	// negative, not finite, or more than the chain's balances hold.
	ErrBadAmount = errors.New("core: bad token amount")
)

// connector is the one Connector over a chain family. It translates
// Accounts and Handles to the family's terms, runs each submission under
// the family's injector's Retry, and assembles the OpResult.
type connector struct {
	Family
}

// EVMConnector and AlgorandConnector are the connector, named after the
// family it runs on.
type (
	EVMConnector      = connector
	AlgorandConnector = connector
)

// NewConnector runs the Connector over a chain family.
func NewConnector(f Family) Connector { return &connector{Family: f} }

// NewEVMConnector wraps an Ethereum-family chain.
func NewEVMConnector(c *eth.Chain) *EVMConnector { return &connector{Family: eth.NewClient(c)} }

// NewAlgorandConnector wraps the Algorand chain.
func NewAlgorandConnector(c *algorand.Chain) *AlgorandConnector {
	return &connector{Family: algorand.NewClient(c)}
}

// NewAccount implements Connector. Whole tokens convert to base units
// exactly as chain.AmountFromTokens does.
func (c *connector) NewAccount(tokens float64) (*Account, error) {
	if math.IsNaN(tokens) || math.IsInf(tokens, 0) || tokens < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadAmount, tokens)
	}
	a, err := c.CreateAccount(chain.AmountFromTokens(tokens, c.Unit()).Base)
	if err != nil {
		return nil, fmt.Errorf("%w: %v %s: %v", ErrBadAmount, tokens, c.Unit().Name, err)
	}
	return &Account{*a}, nil
}

// Balance implements Connector.
func (c *connector) Balance(acct *Account) chain.Amount {
	return c.Family.Balance(acct.Account.Address)
}

// Deploy implements Connector: the family's creation transaction,
// resubmitted with backoff when the pool drops it.
// On Algorand the contract's escrow still needs its activation deposit,
// which rides the creator's first call (CallOpts.EscrowFund) — the extra
// deployment traffic the paper attributes to "the design of the network"
// (§5.1.5).
func (c *connector) Deploy(acct *Account, compiled *lang.Compiled, args []lang.Value) (*Handle, *OpResult, error) {
	start := c.Now()
	var (
		rcpt *chain.Receipt
		at   chain.Contract
	)
	retries, err := c.Faults().Retry(c.Sleep, func() (err error) {
		rcpt, at, err = c.Family.Deploy(&acct.Account, compiled, args)
		return err
	})
	res := opResult(start, c.Now(), rcpt)
	res.Retries = retries
	if err != nil {
		return nil, res, err
	}
	return &Handle{Connector: c.Name(), EVMAddr: at.Addr, AppID: at.App, Compiled: compiled}, res, nil
}

// Invoke implements Connector.
func (c *connector) Invoke(acct *Account, h *Handle, api string, opts CallOpts, args ...lang.Value) (lang.Value, *OpResult, error) {
	var escrow uint64
	if opts.EscrowFund {
		escrow = c.EscrowFunding()
	}
	start := c.Now()
	var (
		v   lang.Value
		res *OpResult
	)
	retries, err := c.Faults().Retry(c.Sleep, func() (err error) {
		v, res, err = c.callOnce(acct, h, api, opts.Pay, escrow, args)
		return err
	})
	if res != nil {
		res.Latency = c.Now() - start
		res.Retries = retries
	}
	return v, res, err
}

// callOnce is one attempt of an API call.
func (c *connector) callOnce(acct *Account, h *Handle, api string, pay, escrow uint64, args []lang.Value) (lang.Value, *OpResult, error) {
	start := c.Now()
	a := h.Compiled.Program.FindAPI(api)
	if a == nil {
		return lang.Value{}, nil, fmt.Errorf("core: unknown API %q", api)
	}
	rcpt, v, err := c.Call(&acct.Account, h.at(), h.Compiled, a, args, pay, escrow)
	res := opResult(start, c.Now(), rcpt)
	if err == nil && rcpt.Reverted {
		err = fmt.Errorf("%w: %s: %s", ErrAPIRejected, api, rcpt.RevertMsg)
	}
	if err != nil {
		return lang.Value{}, res, err
	}
	return v, res, nil
}

func opResult(start, end time.Duration, rcpts ...*chain.Receipt) *OpResult {
	res := &OpResult{Latency: end - start}
	for _, r := range rcpts {
		if r == nil {
			continue
		}
		res.Receipts = append(res.Receipts, r)
		res.GasUsed += r.GasUsed
		res.Fee = res.Fee.Add(r.Fee)
	}
	return res
}

// View implements Connector.
func (c *connector) View(h *Handle, name string) (lang.Value, error) {
	v, ok := h.Compiled.Program.FindView(name)
	if !ok {
		return lang.Value{}, fmt.Errorf("core: unknown view %q", name)
	}
	return c.Family.View(h.at(), v)
}

// ReadGlobal implements Connector.
func (c *connector) ReadGlobal(h *Handle, name string) (lang.Value, error) {
	return c.Family.ReadGlobal(h.at(), h.Compiled.Program, name)
}

// ReadMap implements Connector.
func (c *connector) ReadMap(h *Handle, mapName string, key uint64) (lang.Value, bool, error) {
	return c.Family.ReadMap(h.at(), h.Compiled.Program, mapName, key)
}

// ContractBalance implements Connector. On Algorand it is the escrow's
// balance net of the locked minimum balance, so the same number means the
// same thing on every family.
func (c *connector) ContractBalance(h *Handle) uint64 { return c.Family.ContractBalance(h.at()) }
