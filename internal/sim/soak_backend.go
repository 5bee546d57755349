package sim

import (
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
)

// soakBackend is what the soak loop needs from a chain family. The upper
// half is the method set eth.Chain and algorand.Chain already share, which
// the two adapters get by embedding their chain; the lower half is where
// the families differ — transaction shapes, deployment, checkpoint types.
type soakBackend interface {
	SetShards(n int)
	SetRetention(n int)
	PendingCount() int
	Now() time.Duration
	ShardStats() *chain.ShardStats
	Digest() chain.Hash32
	StateRoot() chain.Hash32
	Balance(addr chain.Address) chain.Amount
	CommitState(store mstate.NodeStore) (mstate.Hash, error)

	connector() core.Connector
	// handle derives area i's contract identity without deploying it: the
	// soak's deployment is sequential, so identities are a pure function
	// of the spec and a resumed run need not replay it.
	handle(i int) *core.Handle
	// deploy publishes one check-in contract per area, area i's at handle(i).
	deploy(areas int) error
	// deployed reports whether the state holds a contract at h.
	deployed(h *core.Handle) bool
	// funding is what fund credits a user account with.
	funding() *big.Int
	fund(addr chain.Address)
	// submitRound builds, signs and batch-submits users[i]'s check-in to
	// targets[i] for the round.
	submitRound(round int, users []soakAccount, targets []*core.Handle) error
	// step seals one block.
	step()
	// height is the head block number.
	height() uint64
	// checkpoint captures the chain-level checkpoint into the manifest blob.
	checkpoint(into *soakCheckpoint) error
}

// submitErr names the first rejected submission of a batch.
func submitErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("submission %d: %w", i, err)
		}
	}
	return nil
}

// --- Ethereum family ---

type evmSoak struct {
	*eth.Chain
	conn     *core.EVMConnector
	compiled *lang.Compiled
	api      *lang.API
	gasLimit uint64
	deployer *eth.Account
}

var (
	soakFundEVM = big.NewInt(1e18)
	soakTipEVM  = big.NewInt(2_000_000_000)
)

func newEVMSoak(cfg eth.Config, spec SoakSpec, run *soakRun, deployer soakAccount, compiled *lang.Compiled, api *lang.API) (*evmSoak, error) {
	o := eth.Options{Config: cfg, Seed: spec.Seed}
	if run.resumed {
		if run.eth == nil {
			return nil, fmt.Errorf("sim: soak manifest for %s carries no EVM checkpoint", spec.Chain)
		}
		o.Store, o.Root, o.Checkpoint = run.store, run.root, run.eth
	}
	c, err := eth.Open(o)
	if err != nil {
		return nil, err
	}
	dep := eth.Account(deployer)
	return &evmSoak{
		Chain: c, conn: core.NewEVMConnector(c), compiled: compiled, api: api,
		gasLimit: checkinGasLimit(compiled), deployer: &dep,
	}, nil
}

// checkinGasLimit mirrors the connector's gas sizing for an API call: the
// conservative static analysis plus 25% headroom.
func checkinGasLimit(compiled *lang.Compiled) uint64 {
	for i := range compiled.Analysis.Methods {
		if compiled.Analysis.Methods[i].Name == "checkin" {
			g := compiled.Analysis.Methods[i].TotalEVMGas()
			return g + g/4
		}
	}
	return eth.DefaultGasLimit
}

func (s *evmSoak) connector() core.Connector { return s.conn }

func (s *evmSoak) handle(i int) *core.Handle {
	return soakHandleEVM(s.conn.Name(), s.deployer.Address, i, s.compiled)
}

// soakHandleEVM is area i's contract on an EVM chain: the deployer's nonces
// are sequential, so it lives at ContractAddress(deployer, i).
func soakHandleEVM(connector string, deployer chain.Address, i int, compiled *lang.Compiled) *core.Handle {
	return &core.Handle{
		Connector: connector,
		EVMAddr:   chain.ContractAddress(deployer, uint64(i)),
		Compiled:  compiled,
	}
}

// deploy goes through the chain's batched submission path: at 100k+ areas,
// one signed deployment per block (the connector's submit-and-wait) would
// take days of wall clock. The deployer is funded proportionally to the
// area count, since selection reserves maxFee×gasLimit per pending
// deployment up front.
func (s *evmSoak) deploy(areas int) error {
	s.Fund(s.deployer.Address, new(big.Int).Mul(big.NewInt(int64(areas)+100), big.NewInt(1e18)))
	gasLimit := s.compiled.Analysis.EVMDeployGas + s.compiled.Analysis.EVMDeployGas/4
	// Headroom for the base-fee climb across the (few) full deploy blocks.
	maxFee := new(big.Int).Add(new(big.Int).Mul(s.BaseFee(), big.NewInt(8)), soakTipEVM)

	const deployBatch = 4096
	txs := make([]*eth.Tx, 0, deployBatch)
	for i := 0; i < areas; i++ {
		ctorData, err := lang.EncodeArgsEVM(lang.CtorMethodName, s.compiled.Program.Ctor.Params,
			[]lang.Value{lang.BytesValue([]byte(soakAreaCode(i)))})
		if err != nil {
			return err
		}
		tx := &eth.Tx{
			From: s.deployer.Address, Nonce: uint64(i),
			Value: big.NewInt(0), Data: eth.PackDeployData(s.compiled.EVMCode, ctorData),
			GasLimit: gasLimit, MaxFee: maxFee, MaxTip: soakTipEVM,
		}
		tx.Sign(s.deployer)
		txs = append(txs, tx)
		if len(txs) == deployBatch || i == areas-1 {
			_, errs := s.SubmitBatch(txs)
			if err := submitErr(errs); err != nil {
				return fmt.Errorf("sim: deploy: %w", err)
			}
			txs = txs[:0]
		}
	}
	for i := 0; i < areas+200 && s.PendingCount() > 0; i++ {
		s.Step()
	}
	if n := s.PendingCount(); n != 0 {
		return fmt.Errorf("sim: %d deployments never included", n)
	}
	for i := 0; i < areas; i++ {
		if !s.deployed(s.handle(i)) {
			return fmt.Errorf("sim: deployment of area %s reverted", soakAreaCode(i))
		}
	}
	return nil
}

func (s *evmSoak) deployed(h *core.Handle) bool {
	_, ok := s.ContractCode(h.EVMAddr)
	return ok
}

func (s *evmSoak) funding() *big.Int { return soakFundEVM }

func (s *evmSoak) fund(addr chain.Address) { s.Fund(addr, soakFundEVM) }

func (s *evmSoak) submitRound(round int, users []soakAccount, targets []*core.Handle) error {
	maxFee := new(big.Int).Add(new(big.Int).Mul(s.BaseFee(), big.NewInt(2)), soakTipEVM)
	txs := make([]*eth.Tx, len(users))
	for ui, u := range users {
		data, err := lang.EncodeArgsEVM("checkin", s.api.Params, []lang.Value{
			lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round) + 1),
		})
		if err != nil {
			return err
		}
		acct := eth.Account(u)
		txs[ui] = &eth.Tx{
			From: u.Address, Nonce: uint64(round), To: &targets[ui].EVMAddr,
			Value: big.NewInt(0), Data: data, GasLimit: s.gasLimit,
			MaxFee: maxFee, MaxTip: soakTipEVM,
		}
		txs[ui].Sign(&acct)
	}
	_, errs := s.SubmitBatch(txs)
	return submitErr(errs)
}

func (s *evmSoak) step() { s.Step() }

func (s *evmSoak) height() uint64 { return s.Head().Number }

func (s *evmSoak) checkpoint(into *soakCheckpoint) (err error) {
	into.Eth, err = s.Checkpoint()
	return err
}

// --- Algorand ---

type algorandSoak struct {
	*algorand.Chain
	conn     *core.AlgorandConnector
	compiled *lang.Compiled
	api      *lang.API
	deployer *algorand.Account
}

const soakFundAlgorand uint64 = 10_000_000

func newAlgorandSoak(spec SoakSpec, run *soakRun, deployer soakAccount, compiled *lang.Compiled, api *lang.API) (*algorandSoak, error) {
	o := algorand.Options{Config: algorand.Testnet(), Seed: spec.Seed}
	if run.resumed {
		if run.algo == nil {
			return nil, fmt.Errorf("sim: soak manifest for %s carries no Algorand checkpoint", spec.Chain)
		}
		o.Store, o.Root, o.Checkpoint = run.store, run.root, run.algo
	}
	c, err := algorand.Open(o)
	if err != nil {
		return nil, err
	}
	dep := algorand.Account(deployer)
	return &algorandSoak{
		Chain: c, conn: core.NewAlgorandConnector(c), compiled: compiled, api: api, deployer: &dep,
	}, nil
}

func (s *algorandSoak) connector() core.Connector { return s.conn }

func (s *algorandSoak) handle(i int) *core.Handle {
	return soakHandleAlgorand(s.conn.Name(), i, s.compiled)
}

// soakHandleAlgorand is area i's application: app ids are allocated
// sequentially from 1, so it is app i+1.
func soakHandleAlgorand(connector string, i int, compiled *lang.Compiled) *core.Handle {
	return &core.Handle{Connector: connector, AppID: uint64(i) + 1, Compiled: compiled}
}

// deploy goes through the connector's submit-and-wait path, one creation
// per round, which is what pins app ids to 1..areas.
func (s *algorandSoak) deploy(areas int) error {
	s.Fund(s.deployer.Address, 100_000_000+uint64(areas)*2*algorand.MinFee)
	deployer := core.AlgorandAccount(s.deployer)
	for i := 0; i < areas; i++ {
		area := soakAreaCode(i)
		h, _, err := s.conn.Deploy(deployer, s.compiled, []lang.Value{lang.BytesValue([]byte(area))})
		if err != nil {
			return fmt.Errorf("sim: deploy area %s: %w", area, err)
		}
		if want := s.handle(i); h.AppID != want.AppID {
			return fmt.Errorf("sim: area %s deployed as app %d, want %d (resume derivation relies on sequential ids)",
				area, h.AppID, want.AppID)
		}
	}
	return nil
}

func (s *algorandSoak) deployed(h *core.Handle) bool {
	_, ok := s.App(h.AppID)
	return ok
}

func (s *algorandSoak) funding() *big.Int { return new(big.Int).SetUint64(soakFundAlgorand) }

func (s *algorandSoak) fund(addr chain.Address) { s.Fund(addr, soakFundAlgorand) }

func (s *algorandSoak) submitRound(round int, users []soakAccount, targets []*core.Handle) error {
	groups := make([]algorand.Group, len(users))
	for ui, u := range users {
		appArgs, err := lang.EncodeArgsTEAL("checkin", s.api.Params, []lang.Value{
			lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round) + 1),
		})
		if err != nil {
			return err
		}
		acct := algorand.Account(u)
		call := &algorand.Tx{
			Type: algorand.TxAppCall, Sender: u.Address,
			Fee: algorand.MinFee, AppID: targets[ui].AppID, Args: appArgs,
		}
		call.Sign(&acct)
		groups[ui] = algorand.Group{call}
	}
	_, errs := s.SubmitBatch(groups)
	return submitErr(errs)
}

func (s *algorandSoak) step() { s.Step() }

func (s *algorandSoak) height() uint64 { return s.Head().Round }

func (s *algorandSoak) checkpoint(into *soakCheckpoint) (err error) {
	into.Algo, err = s.Checkpoint()
	return err
}
