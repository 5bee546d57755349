package eth

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
)

// Client is the node-provider view of a chain (the Infura/Quicknode role in
// the paper): it submits transactions and waits for confirmations, charging
// the RPC round-trip latency to the simulated clock. The latency between
// Submit and the confirmed Receipt is exactly what the paper's figures plot.
//
// Client is also this family's side of the seam core.Connector and the
// soak driver are written over (core.Family): contract calls in the
// contract language's terms, batch items, state reads and persistence.
type Client struct {
	*Chain
}

// NewClient opens a client against a chain. Clients draw their simulated
// RPC latencies from the chain's pre-forked client stream (shared by
// every client on the chain), so attaching one never advances the
// chain's own rng — a restored checkpoint stays bit-exact no matter how
// many clients wrap the chain afterwards.
func NewClient(c *Chain) *Client { return &Client{c} }

func (cl *Client) rpcLatency() time.Duration {
	jitter := time.Duration(cl.clientRng.Float64() * float64(cl.cfg.RPCLatencyJitter))
	return cl.cfg.RPCLatencyMean + jitter
}

// apiExtraDelay samples and applies the connector's post-call
// event-subscription delay (see Config.APIExtraDelayMean); it returns the
// sampled duration.
func (cl *Client) apiExtraDelay() time.Duration {
	cfg := cl.cfg
	if cfg.APIExtraDelayMean == 0 {
		return 0
	}
	d := cfg.APIExtraDelayMean + time.Duration((cl.clientRng.Float64()*2-1)*float64(cfg.APIExtraDelayJitter))
	if d < 0 {
		d = 0
	}
	cl.clock.AdvanceTo(cl.clock.Now() + d)
	return d
}

// Sleep advances the simulated clock by d — the client-side wait the
// resilience layer's backoff uses between retries.
func (cl *Client) Sleep(d time.Duration) {
	if d > 0 {
		cl.clock.AdvanceTo(cl.clock.Now() + d)
	}
}

// ErrTimeout reports a transaction not confirmed within the wait budget.
var ErrTimeout = errors.New("eth: transaction not confirmed in time")

// maxWaitSlots bounds SubmitAndWait so a drowned transaction surfaces as an
// error instead of an endless simulation.
const maxWaitSlots = 600

// SubmitAndWait signs nothing (the tx must be signed), submits it, advances
// the chain until the transaction is included plus the configured number of
// confirmations, and returns the receipt with client-observed timestamps.
func (cl *Client) SubmitAndWait(tx *Tx) (*chain.Receipt, error) {
	submitted := cl.clock.Now()
	// The RPC hop delays when the network sees the transaction.
	cl.clock.AdvanceTo(submitted + cl.rpcLatency())
	h, err := cl.Submit(tx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < maxWaitSlots; i++ {
		cl.Step()
		rcpt, ok := cl.Receipt(h)
		if !ok {
			continue
		}
		// Wait for the configured confirmation depth.
		for cl.Head().Number < rcpt.BlockNumber+uint64(cl.cfg.Confirmations) {
			cl.Step()
		}
		observed := cl.Head().Time + cl.rpcLatency()
		cl.clock.AdvanceTo(observed)
		rcpt.Submitted = submitted
		rcpt.Included = observed
		return rcpt, nil
	}
	return nil, fmt.Errorf("%w after %d slots", ErrTimeout, maxWaitSlots)
}

// DefaultGasLimit is the limit clients attach when not estimating.
const DefaultGasLimit = 4_000_000

// NewTx builds a signed transaction from an account with the chain's
// default fee policy (base fee headroom ×2 plus the default tip).
func (cl *Client) NewTx(acct *Account, to *chain.Address, value *big.Int, data []byte, gasLimit uint64) *Tx {
	if value == nil {
		value = new(big.Int)
	}
	if gasLimit == 0 {
		gasLimit = DefaultGasLimit
	}
	maxFee := new(big.Int).Mul(cl.BaseFee(), big.NewInt(2))
	maxFee.Add(maxFee, cl.cfg.DefaultTip)
	tx := &Tx{
		From:     acct.Address,
		Nonce:    cl.PendingNonce(acct.Address),
		To:       to,
		Value:    value,
		Data:     data,
		GasLimit: gasLimit,
		MaxFee:   maxFee,
		MaxTip:   new(big.Int).Set(cl.cfg.DefaultTip),
	}
	tx.Sign(acct)
	return tx
}

// deploy submits a contract-creation transaction (code + constructor
// calldata) and returns the receipt and new contract address.
func (cl *Client) deploy(acct *Account, code, ctorData []byte, value *big.Int, gasLimit uint64) (*chain.Receipt, chain.Address, error) {
	tx := cl.NewTx(acct, nil, value, PackDeployData(code, ctorData), gasLimit)
	addr := chain.ContractAddress(acct.Address, tx.Nonce)
	rcpt, err := cl.SubmitAndWait(tx)
	if err != nil {
		return nil, chain.Address{}, err
	}
	if rcpt.Reverted {
		return rcpt, chain.Address{}, fmt.Errorf("eth: deployment reverted: %s", rcpt.RevertMsg)
	}
	return rcpt, addr, nil
}

// call submits a contract call and waits for its confirmation.
func (cl *Client) call(acct *Account, contract chain.Address, data []byte, value *big.Int, gasLimit uint64) (*chain.Receipt, error) {
	return cl.SubmitAndWait(cl.NewTx(acct, &contract, value, data, gasLimit))
}

// view executes a read-only call against current state: free, no
// transaction, no time advance beyond the RPC hop (§4.1.2: views have no
// cost). It runs on a write-buffer overlay of the state that is dropped
// afterwards, so whatever the code writes never reaches the chain.
func (cl *Client) view(contract chain.Address, data []byte) ([]byte, error) {
	code, ok := cl.st.Code(contract)
	if !ok {
		return nil, fmt.Errorf("eth: no contract at %s", contract)
	}
	res := evm.Execute(evm.Context{
		State:     &stateView{kv: mstate.NewOverlay(cl.st.t)},
		Caller:    chain.Address{},
		Address:   contract,
		CallData:  data,
		GasLimit:  DefaultGasLimit,
		Timestamp: uint64(cl.Head().Time / time.Second),
	}, code)
	if res.Err != nil {
		return nil, res.Err
	}
	if res.Reverted {
		return nil, fmt.Errorf("eth: view reverted: %s", res.RevertMsg)
	}
	return res.ReturnData, nil
}

// --- core.Family ---

// Name is the network preset's name.
func (cl *Client) Name() string { return cl.cfg.Name }

// Unit is the network's native currency.
func (cl *Client) Unit() chain.Unit { return cl.cfg.Unit }

// CreateAccount creates an account funded with base wei. A balance no EVM
// word holds (past 2^256-1) is refused.
func (cl *Client) CreateAccount(base *big.Int) (*Account, error) {
	if base.Sign() < 0 || base.BitLen() > 256 {
		return nil, fmt.Errorf("eth: balance of %v wei is out of range", base)
	}
	return cl.NewAccount(base), nil
}

// deployGas sizes a deployment's gas limit: the static analysis plus 25 %
// headroom.
func deployGas(compiled *lang.Compiled) uint64 {
	return compiled.Analysis.EVMDeployGas + compiled.Analysis.EVMDeployGas/4
}

// callData encodes a call of api and sizes its gas limit the same way:
// the conservative static analysis plus 25 % headroom, or DefaultGasLimit
// for a method the analysis does not cover.
func callData(compiled *lang.Compiled, api *lang.API, args []lang.Value) ([]byte, uint64, error) {
	gas := uint64(DefaultGasLimit)
	for _, m := range compiled.Analysis.Methods {
		if m.Name == api.Name {
			gas = m.TotalEVMGas() + m.TotalEVMGas()/4
		}
	}
	data, err := lang.EncodeArgsEVM(api.Name, api.Params, args)
	return data, gas, err
}

// Deploy publishes compiled with constructor args in one creation
// transaction carrying the runtime code and the constructor calldata, and
// waits for it.
func (cl *Client) Deploy(acct *Account, compiled *lang.Compiled, args []lang.Value) (*chain.Receipt, chain.Contract, error) {
	ctor, err := lang.EncodeArgsEVM(lang.CtorMethodName, compiled.Program.Ctor.Params, args)
	if err != nil {
		return nil, chain.Contract{}, err
	}
	rcpt, addr, err := cl.deploy(acct, compiled.EVMCode, ctor, nil, deployGas(compiled))
	return rcpt, chain.Contract{Addr: addr}, err
}

// Call invokes api with pay wei attached and waits for it, then for the
// connector's event poll: Reach frontends wait for a call's effects to
// surface before returning. EVM contracts need no escrow deposit, so
// escrow is ignored. A reverted call returns its receipt and no value.
func (cl *Client) Call(acct *Account, at chain.Contract, compiled *lang.Compiled, api *lang.API, args []lang.Value, pay, escrow uint64) (*chain.Receipt, lang.Value, error) {
	data, gas, err := callData(compiled, api, args)
	if err != nil {
		return nil, lang.Value{}, err
	}
	rcpt, err := cl.call(acct, at.Addr, data, new(big.Int).SetUint64(pay), gas)
	if err != nil {
		return rcpt, lang.Value{}, err
	}
	cl.apiExtraDelay()
	if rcpt.Reverted {
		return rcpt, lang.Value{}, nil
	}
	v, err := lang.DecodeReturnEVM(api.Returns, rcpt.ReturnValue)
	return rcpt, v, err
}

// View evaluates a view at no cost.
func (cl *Client) View(at chain.Contract, v lang.View) (lang.Value, error) {
	data, err := lang.EncodeArgsEVM(v.Name, nil, nil)
	if err != nil {
		return lang.Value{}, err
	}
	out, err := cl.view(at.Addr, data)
	if err != nil {
		return lang.Value{}, err
	}
	return lang.DecodeReturnEVM(v.Type, out)
}

// storage is the eth_getStorageAt reader of the contract at at.
func (cl *Client) storage(at chain.Contract) lang.StorageGetter {
	return func(key chain.Hash32) chain.Hash32 { return cl.st.GetStorage(at.Addr, key) }
}

// ReadGlobal reads a global of program p from the contract's storage.
func (cl *Client) ReadGlobal(at chain.Contract, p *lang.Program, name string) (lang.Value, error) {
	return lang.ReadGlobalEVM(cl.storage(at), p, name)
}

// ReadMap reads one entry of a map of program p from the contract's
// storage.
func (cl *Client) ReadMap(at chain.Contract, p *lang.Program, mapName string, key uint64) (lang.Value, bool, error) {
	return lang.ReadMapEVM(cl.storage(at), p, mapName, key)
}

// ContractBalance is the contract's balance in wei.
func (cl *Client) ContractBalance(at chain.Contract) uint64 {
	return cl.Balance(at.Addr).Base.Uint64()
}

// EscrowFunding is zero: EVM contracts need no activation deposit.
func (cl *Client) EscrowFunding() uint64 { return 0 }

// ContractAt is where deployer's i-th contract lands — the address of its
// creation with nonce i — and whether code lives there.
func (cl *Client) ContractAt(deployer chain.Address, i uint64) (chain.Contract, bool) {
	addr := chain.ContractAddress(deployer, i)
	_, ok := cl.ContractCode(addr)
	return chain.Contract{Addr: addr}, ok
}

// batchTip is the priority fee of the transactions DeployItem and CallItem
// build for SubmitItems.
var batchTip = big.NewInt(2_000_000_000)

// batchTx builds and signs acct's nonce-th transaction for SubmitItems,
// with the fee cap at headroom × the current base fee plus batchTip.
func (cl *Client) batchTx(acct *Account, nonce uint64, to *chain.Address, data []byte, gas uint64, headroom int64) *Tx {
	tx := &Tx{
		From: acct.Address, Nonce: nonce, To: to, Value: big.NewInt(0), Data: data, GasLimit: gas,
		MaxFee: new(big.Int).Add(new(big.Int).Mul(cl.BaseFee(), big.NewInt(headroom)), batchTip),
		MaxTip: batchTip,
	}
	tx.Sign(acct)
	return tx
}

// DeployItem builds and signs the creation of compiled as acct's nonce-th
// transaction. Its fee cap leaves 8× base-fee headroom: a bulk deployment
// fills blocks, and the base fee climbs across them.
func (cl *Client) DeployItem(acct *Account, nonce uint64, compiled *lang.Compiled, args []lang.Value) (chain.Item, error) {
	ctor, err := lang.EncodeArgsEVM(lang.CtorMethodName, compiled.Program.Ctor.Params, args)
	if err != nil {
		return nil, err
	}
	return cl.batchTx(acct, nonce, nil, PackDeployData(compiled.EVMCode, ctor), deployGas(compiled), 8), nil
}

// CallItem builds and signs a call of api on at as acct's nonce-th
// transaction, with 2× base-fee headroom.
func (cl *Client) CallItem(acct *Account, nonce uint64, at chain.Contract, compiled *lang.Compiled, api *lang.API, args []lang.Value) (chain.Item, error) {
	data, gas, err := callData(compiled, api, args)
	if err != nil {
		return nil, err
	}
	return cl.batchTx(acct, nonce, &at.Addr, data, gas, 2), nil
}

// SubmitItems is SubmitBatch over items DeployItem and CallItem built.
func (cl *Client) SubmitItems(items []chain.Item) []error {
	txs := make([]*Tx, len(items))
	for i, item := range items {
		txs[i] = item.(*Tx)
	}
	_, errs := cl.SubmitBatch(txs)
	return errs
}

// Seal produces the next block.
func (cl *Client) Seal() { cl.Step() }

// Height is the head block's number.
func (cl *Client) Height() uint64 { return cl.Head().Number }

// MarshalCheckpoint is the JSON encoding of Checkpoint.
func (cl *Client) MarshalCheckpoint() ([]byte, error) {
	ck, err := cl.Checkpoint()
	if err != nil {
		return nil, err
	}
	return json.Marshal(ck)
}

// Restore moves a freshly opened chain onto the state committed at root
// in store and the MarshalCheckpoint blob taken with it — what Open does
// with a store and a checkpoint.
func (cl *Client) Restore(store mstate.NodeStore, root mstate.Hash, checkpoint []byte) error {
	var ck Checkpoint
	if err := json.Unmarshal(checkpoint, &ck); err != nil {
		return fmt.Errorf("eth: decode checkpoint: %w", err)
	}
	return cl.load(store, root, &ck)
}
