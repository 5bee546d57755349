package chain_test

import (
	"encoding/json"
	"fmt"
	"math/big"
	"testing"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
)

// algorandNode is an Algorand chain behind its client.
type algorandNode struct{ *algorand.Client }

func (n algorandNode) step() sealed {
	b := n.Step()
	return sealed{b.Hash, b.StateRoot, b.Groups, b.Proposer}
}

func (n algorandNode) headHash() chain.Hash32 { return n.Head().Hash }

// algorandFeeSink is the account a round's tail credits its fees to.
var algorandFeeSink = chain.AddressFromBytes([]byte("algorand-fee-sink"))

var algorandFamily = &family{
	name:            "algorand",
	open:            openAlgorand,
	errNoVoters:     algorand.ErrNoParticipants,
	errCorruptState: algorand.ErrCorruptState,
	openVoters: func(n int) error {
		cfg := algorand.Testnet()
		cfg.ParticipantCount = n
		_, err := algorand.Open(algorand.Options{Config: cfg, Seed: 1})
		return err
	},
	funds: big.NewInt(1_000_000_000),

	deployCheckins: func(tb testing.TB, n node, deployer *chain.Account, count int) []chain.Contract {
		tb.Helper()
		items := make([]chain.Item, count)
		for i := range items {
			// The argument only tells the creations apart: Algorand
			// transactions carry no nonce.
			items[i] = algorand.Group{signed(deployer, &algorand.Tx{Type: algorand.TxAppCreate, Source: counterApp, Args: [][]byte{avm.Itob(uint64(i))}})}
		}
		submit(tb, n, items...)
		drain(tb, n)
		apps := make([]chain.Contract, count)
		for i, item := range items {
			rc, ok := n.Receipt(item.Hash())
			if !ok || rc.Reverted {
				tb.Fatalf("check-in app %d: %v %+v", i, ok, rc)
			}
			id, err := avm.Btoi(rc.ReturnValue)
			if err != nil {
				tb.Fatal(err)
			}
			apps[i] = chain.Contract{App: id}
		}
		return apps
	},
	// The nonce rides along as an unused argument: without it every round
	// would repeat the same group hashes.
	checkin: func(_ node, from *chain.Account, nonce uint64, at chain.Contract) chain.Item {
		return algorand.Group{appCall(from, at.App, "bump", string(avm.Itob(nonce)))}
	},
	transfer: func(_ node, from *chain.Account, _ uint64, to chain.Address, amount uint64) chain.Item {
		return algorand.Group{payment(from, to, amount)}
	},
	checkinReturn: 8,
	checkinLogs:   1,
	submitOne: func(n node, item chain.Item) error {
		_, err := n.(algorandNode).Submit(item.(algorand.Group))
		return err
	},
	forge:   func(item chain.Item) { item.(algorand.Group)[0].Sig[0] ^= 0xff },
	flatFee: big.NewInt(algorand.MinFee),

	// Step measures 18.52 allocations per call, executed in canonical order
	// in one overlay, and the budget is that plus ≈ 3 %. A retained call
	// costs 54 B (record 42, its offset 4, index 8), and the budget is
	// that plus 10 %.
	allocsPerCheckin:   19,
	retainedPerCheckin: 60,
	heapOnOneP:         true,
	emptyBlocks:        500,

	pendingKey: "Pending",
	tampers: []tamper{
		{"rewritten amount", func(_ node, _ *chain.Account, _ chain.Address, e []any) {
			member(e, 0)["Amount"] = json.Number("50000000")
		}, polcrypto.ErrBadSignature},
		{"null group member", func(_ node, _ *chain.Account, _ chain.Address, e []any) {
			e[0].(map[string]any)["Item"].([]any)[0] = nil
		}, errAny},
		// An empty group has no signature to break, and Submit refuses it.
		{"empty group", func(_ node, _ *chain.Account, _ chain.Address, e []any) {
			e[0].(map[string]any)["Item"] = []any{}
		}, errAny},
	},
	feeFold:   func(fee *big.Int) []byte { return fee.Bytes() },
	blockTime: func(n node) time.Duration { return n.(algorandNode).Config().RoundDuration },
	feesHeld: func(_ testing.TB, n node, _ uint64) *big.Int {
		return n.Balance(algorandFeeSink).Base
	},
	// The wallet is named only in the call's argument, so nothing about
	// the group says it touches the wallet.
	payout: func(tb testing.TB, n node, deployer *chain.Account, wallet chain.Address) (chain.Address, func(*chain.Account) chain.Item) {
		tb.Helper()
		cl := n.(algorandNode).Client
		_, app, err := deployTEAL(cl, deployer, payToApp)
		if err != nil {
			tb.Fatal(err)
		}
		return cl.AppAddress(app.App), func(user *chain.Account) chain.Item {
			return algorand.Group{appCall(user, app.App, string(wallet[:]))}
		}
	},
	walletFunds: 1_000_000,

	// Golden end state of algorandGolden, captured on commit d034bf1 (the
	// last one with two group executors and ledger-snapshot rollback). The
	// digest was recaptured once since, when avm.Parse began rejecting
	// unknown opcodes: the "not teal" creation's receipt now reads gas 0,
	// "approval program: …" instead of gas 1, "creation rejected: …".
	golden:          algorandGolden,
	goldenDigest:    "3ea2c753cbab6c228a3c828e146fc419f0a2fa59483b3c4808bc094336716e2e",
	goldenStateRoot: "49c5ab5f7174156333ba7f63d9fe333a6114ce06b36d92214678231f9e2f3820",
	goldenHeadHash:  "298361b627db9b261bbdf85c99b476772819b2df3d29877f4fba027a4426039c",
	mixed:           algorandMixed,
	mixedBatches:    8,
}

func openAlgorand(o opts) (node, error) {
	if o.fresh() {
		return algorandNode{algorand.NewClient(algorand.NewChain(algorand.Testnet(), o.seed))}, nil
	}
	var ck *algorand.Checkpoint
	if o.ck != nil {
		ck = new(algorand.Checkpoint)
		if err := json.Unmarshal(o.ck, ck); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadJSON, err)
		}
	}
	c, err := algorand.Open(algorand.Options{Config: algorand.Testnet(), Seed: o.seed, Store: o.store, Root: o.root, Checkpoint: ck})
	if err != nil {
		return nil, err
	}
	return algorandNode{algorand.NewClient(c)}, nil
}

// member is the first transaction of a decoded checkpoint entry's group.
func member(entries []any, i int) map[string]any {
	return entries[i].(map[string]any)["Item"].([]any)[0].(map[string]any)
}

// signed is tx signed as from's, at the minimum fee.
func signed(from *chain.Account, tx *algorand.Tx) *algorand.Tx {
	tx.Sender, tx.Fee = from.Address, algorand.MinFee
	tx.Sign(from)
	return tx
}

// appCall is from's signed call of app with args, and payment its signed
// payment.
func appCall(from *chain.Account, app uint64, args ...string) *algorand.Tx {
	tx := &algorand.Tx{Type: algorand.TxAppCall, AppID: app}
	for _, a := range args {
		tx.Args = append(tx.Args, []byte(a))
	}
	return signed(from, tx)
}

func payment(from *chain.Account, to chain.Address, amount uint64) *algorand.Tx {
	return signed(from, &algorand.Tx{Type: algorand.TxPay, Receiver: to, Amount: amount})
}

// deployTEAL is the client's deployment of a TEAL program without
// constructor arguments: the creation is submitted and waited for, and its
// receipt names the application.
func deployTEAL(cl *algorand.Client, acct *chain.Account, src string) (*chain.Receipt, chain.Contract, error) {
	return cl.Deploy(acct, &lang.Compiled{Program: &lang.Program{}, TEALSource: src}, nil)
}

const approveAll = "int 1\nreturn"

// rejectOnCreate is a well-formed program that rejects its own creation.
const rejectOnCreate = "int 0\nreturn"

// counterApp bumps its global count on "bump", logs the new count as its
// return value and rejects any other call.
const counterApp = `
txn ApplicationID
bz create
txna ApplicationArgs 0
byte "bump"
==
bnz bump
err
create:
byte "count"
int 0
app_global_put
int 1
return
bump:
byte "count"
byte "count"
app_global_get
int 1
+
app_global_put
byte "count"
app_global_get
itob
byte "return:"
swap
concat
log
int 1
return`

// payToApp sends 1 000 µALGO from its escrow to the wallet its caller
// names in the first argument, through an inner payment: what an area
// application does when it releases a reward.
const payToApp = `
txn ApplicationID
bz create
itxn_begin
txna ApplicationArgs 0
itxn_field Receiver
int 1000
itxn_field Amount
itxn_submit
create:
int 1
return`

// deployCounterApps creates count counterApp applications from deployer
// through the client.
func deployCounterApps(t *testing.T, cl *algorand.Client, deployer *chain.Account, count int) ([]uint64, []*chain.Receipt) {
	t.Helper()
	var apps []uint64
	var rcpts []*chain.Receipt
	for i := 0; i < count; i++ {
		rcpt, app, err := deployTEAL(cl, deployer, counterApp)
		if err != nil {
			t.Fatal(err)
		}
		apps, rcpts = append(apps, app.App), append(rcpts, rcpt)
	}
	return apps, rcpts
}

// algorandGolden scripts every round-application path once: app and asset
// creation through the client, rounds of calls and payments across areas,
// a rejected call, a payment the sender cannot cover, a sender that cannot
// pay its fee (alone, and behind a sender that can), a pay+call group,
// asset opt-in and transfer, groups whose creations must roll back
// (sequence counters and caches included) next to ones that succeed, a
// round mixing creation with calls, and admission through both Submit and
// SubmitBatch.
func algorandGolden(t *testing.T, shards int) node {
	t.Helper()
	c := algorand.NewChain(algorand.Testnet(), 20221117)
	c.SetShards(shards)
	cl := algorand.NewClient(c)

	deployer := c.NewAccount(50_000_000)
	apps, _ := deployCounterApps(t, cl, deployer, 3)
	_, asset, err := cl.CreateAsset(deployer, "GREEN", "GRN", 1_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}

	const users = 8
	accts := make([]*chain.Account, users)
	for i := range accts {
		accts[i] = c.NewAccount(10_000_000)
	}
	// broke can pay one minimum fee, not two.
	broke := c.NewAccount(algorand.MinFee + algorand.MinFee/2)
	// penniless cannot pay even one.
	penniless := c.NewAccount(algorand.MinFee / 2)
	sink := chain.AddressFromBytes([]byte("golden-sink"))

	type group = algorand.Group

	var bump4 group
	for round := 0; round < 5; round++ {
		var groups []group
		for ui, u := range accts {
			groups = append(groups, group{appCall(u, apps[ui%len(apps)], "bump")})
			if round%2 == 1 {
				groups = append(groups, group{payment(u, accts[ui^1].Address, 1000+uint64(ui))})
			}
		}
		// A rejected call, an uncoverable payment, and a payment grouped in
		// front of a call.
		failing := []group{
			{appCall(accts[1], apps[0], "boom")},
			{payment(accts[2], sink, 1<<62)},
		}
		groups = append(groups, failing...)
		groups = append(groups, group{payment(accts[3], c.AppAddress(apps[1]), 250), appCall(accts[3], apps[1], "bump")})
		switch round {
		case 0:
			// The first fee drains broke; the second group cannot pay its own.
			// The last group debits accts[5]'s fee, then finds penniless
			// short: the debit rolls back and nobody is charged.
			groups = append(groups,
				group{payment(broke, sink, 1)},
				group{payment(broke, sink, 2)},
				group{payment(accts[5], sink, 3), payment(penniless, sink, 3)},
			)
			failing = append(failing, groups[len(groups)-2], groups[len(groups)-1])
		case 2:
			// Creations next to calls: the whole round runs serially. The
			// rejected and the unparsable creation must hand their ids back,
			// so the good ones after them land on 4 and 5; the asset group
			// rolls its creation back because of the payment behind it.
			groups = append(groups,
				group{signed(accts[4], &algorand.Tx{Type: algorand.TxAppCreate, Source: rejectOnCreate})},
				group{signed(accts[5], &algorand.Tx{Type: algorand.TxAppCreate, Source: "not teal"})},
				group{signed(accts[6], &algorand.Tx{Type: algorand.TxAppCreate, Source: counterApp})},
				group{signed(accts[7], &algorand.Tx{Type: algorand.TxAppCreate, Source: approveAll})},
				group{
					signed(accts[4], &algorand.Tx{Type: algorand.TxAssetCreate, AssetName: "LOST", AssetUnit: "LST", Amount: 5}),
					payment(accts[4], sink, 1<<62),
				},
				group{signed(accts[5], &algorand.Tx{Type: algorand.TxAssetCreate, AssetName: "KEPT", AssetUnit: "KPT", Amount: 9})},
			)
			failing = append(failing, groups[len(groups)-6], groups[len(groups)-5], groups[len(groups)-2])
		case 3:
			bump4 = group{appCall(accts[0], 4, "bump")}
			groups = append(groups, group{signed(accts[6], &algorand.Tx{Type: algorand.TxAssetOptIn, AssetID: asset})}, bump4)
		case 4:
			groups = append(groups,
				group{signed(deployer, &algorand.Tx{Type: algorand.TxAssetTransfer, AssetID: asset, Receiver: accts[6].Address, Amount: 40})},
				// accts[7] never opted in.
				group{signed(deployer, &algorand.Tx{Type: algorand.TxAssetTransfer, AssetID: asset, Receiver: accts[7].Address, Amount: 1})},
			)
			failing = append(failing, groups[len(groups)-1])
		}
		if round == 1 {
			for i, g := range groups {
				if _, err := c.Submit(g); err != nil {
					t.Fatalf("round %d group %d: %v", round, i, err)
				}
			}
		} else {
			items := make([]chain.Item, len(groups))
			for i, g := range groups {
				items[i] = g
			}
			submit(t, algorandNode{cl}, items...)
		}
		c.Step()
		reverted := 0
		for _, g := range groups {
			if rcpt, ok := c.Receipt(g.Hash()); !ok {
				t.Fatalf("round %d: group not included", round)
			} else if rcpt.Reverted {
				reverted++
			}
		}
		for _, g := range failing {
			if rcpt, _ := c.Receipt(g.Hash()); !rcpt.Reverted {
				t.Fatalf("round %d: failing group did not fail", round)
			}
		}
		if reverted != len(failing) {
			t.Fatalf("round %d: %d groups reverted, want %d", round, reverted, len(failing))
		}
	}
	if n := c.PendingCount(); n != 0 {
		t.Fatalf("%d groups never included", n)
	}
	if a, ok := c.App(4); !ok || a.Source != counterApp {
		t.Fatal("app 4 must be the first creation that succeeded")
	}
	if a, ok := c.App(5); !ok || a.Source != approveAll {
		t.Fatal("app 5 must be the second creation that succeeded")
	}
	if rcpt, _ := c.Receipt(bump4.Hash()); rcpt.Reverted || string(rcpt.ReturnValue) != string(avm.Itob(1)) {
		t.Fatalf("app 4 counted %x bumps, want 1", rcpt.ReturnValue)
	}
	if got := c.AssetBalance(accts[5].Address, 2); got != 9 {
		t.Fatalf("asset 2's creator holds %d, want the surviving creation's 9", got)
	}
	if got := c.AssetBalance(accts[6].Address, asset); got != 40 {
		t.Fatalf("opted-in receiver holds %d, want 40", got)
	}
	if got := c.Balance(sink).Base.Uint64(); got != 1 {
		t.Fatalf("sink holds %d µALGO, want broke's one payment", got)
	}
	return algorandNode{cl}
}

// algorandMixed drives per-area app-call traffic plus peer payments — and
// among them a call the program rejects, an application created inside a
// batch and, every round, a payment into the fee sink, the account the
// round's tail credits.
func algorandMixed(t *testing.T, shards int) (node, []sealed, []*chain.Receipt) {
	t.Helper()
	c := algorand.NewChain(algorand.Testnet(), 77)
	c.SetShards(shards)
	cl := algorand.NewClient(c)
	n := algorandNode{cl}

	const areas, users = 4, 12
	apps, creations := deployCounterApps(t, cl, c.NewAccount(50_000_000), areas)
	var blocks []sealed
	accts := make([]*chain.Account, users)
	for i := range accts {
		accts[i] = c.NewAccount(10_000_000)
	}

	for round := 0; round < 8; round++ {
		var groups []chain.Item
		send := func(tx *algorand.Tx) algorand.Group {
			groups = append(groups, algorand.Group{tx})
			return algorand.Group{tx}
		}
		var rejected algorand.Group
		for ui, u := range accts {
			send(appCall(u, apps[ui%areas], "bump"))
			if round%2 == 1 {
				send(payment(u, accts[ui^1].Address, 1000))
			}
			switch {
			case round == 2 && ui == 1:
				// "boom" matches no branch: the program errs, the call rolls
				// back, the fee stays charged.
				rejected = send(appCall(u, apps[ui%areas], "boom"))
			case round == 4 && ui == 2:
				send(signed(u, &algorand.Tx{Type: algorand.TxAppCreate, Source: counterApp}))
			}
		}
		// A payment into the fee sink: execution credits the account the
		// round's tail credits the fees to.
		send(payment(accts[5], algorandFeeSink, 555+uint64(round)))
		before := c.Balance(algorandFeeSink).Base.Uint64()

		submit(t, n, groups...)
		blk := n.step()
		blocks = append(blocks, blk)

		want := before + 555 + uint64(round)
		for _, h := range blk.items {
			rcpt, ok := c.Receipt(h)
			if !ok {
				t.Fatalf("round %d: no receipt for an included group", round)
			}
			want += rcpt.Fee.Base.Uint64()
		}
		if got := c.Balance(algorandFeeSink).Base.Uint64(); len(blk.items) != len(groups) || got != want {
			t.Fatalf("round %d took %d of %d groups and left the fee sink %d, want %d", round, len(blk.items), len(groups), got, want)
		}
		if rejected != nil {
			if rcpt, _ := c.Receipt(rejected.Hash()); !rcpt.Reverted || rcpt.RevertMsg == "" {
				t.Fatalf("the rejected call did not revert: %+v", rcpt)
			}
		}
		if _, created := c.App(uint64(areas + 1)); created != (round >= 4) {
			t.Fatalf("round %d: application created inside the batch exists: %v", round, created)
		}
	}
	return n, append(blocks, drain(t, n)...), creations
}
