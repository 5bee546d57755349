package algorand

import (
	"fmt"
	"testing"

	"agnopol/internal/chain"
)

// Golden end state of runGoldenScenario, captured on commit d034bf1 (the
// last one with two group executors and ledger-snapshot rollback). The
// bit-identity suites compare two runs of one build; these constants pin
// absolute values, so a change that shifts every run the same way still
// fails.
const (
	goldenDigest    = "b1e8706c6b61ff7e2943c5a7fe9d6c3a57cc38a055435752740c26f93da2590a"
	goldenStateRoot = "49c5ab5f7174156333ba7f63d9fe333a6114ce06b36d92214678231f9e2f3820"
	goldenHeadHash  = "298361b627db9b261bbdf85c99b476772819b2df3d29877f4fba027a4426039c"
)

// rejectOnCreate is a well-formed program that rejects its own creation.
const rejectOnCreate = "int 0\nreturn"

// runGoldenScenario scripts every round-application path once: app and
// asset creation through the client, rounds of calls and payments that fan
// out, a rejected call, a payment the sender cannot cover, a sender that
// cannot pay its fee (alone, and behind a
// sender that can), a pay+call group, asset opt-in and transfer, groups
// whose creations must roll back (sequence counters and caches included)
// next to ones that succeed, a round mixing creation with calls (forcing
// the serial fallback at every shard count), and admission through both
// Submit and SubmitBatch.
func runGoldenScenario(t *testing.T, shards int) *Chain {
	t.Helper()
	c := NewChain(Testnet(), 20221117)
	c.SetShards(shards)
	cl := NewClient(c)

	deployer := c.NewAccount(50_000_000)
	var apps []uint64
	for i := 0; i < 3; i++ {
		_, id, err := cl.createApp(deployer, counterApp, nil)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, id)
	}
	_, asset, err := cl.CreateAsset(deployer, "GREEN", "GRN", 1_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}

	const users = 8
	accts := make([]*Account, users)
	for i := range accts {
		accts[i] = c.NewAccount(10_000_000)
	}
	// broke can pay one minimum fee, not two.
	broke := c.NewAccount(MinFee + MinFee/2)
	// penniless cannot pay even one.
	penniless := c.NewAccount(MinFee / 2)
	sink := chain.AddressFromBytes([]byte("golden-sink"))

	sign := func(from *Account, tx *Tx) *Tx {
		tx.Sender, tx.Fee = from.Address, MinFee
		tx.Sign(from)
		return tx
	}
	call := func(from *Account, app uint64, arg string) *Tx {
		return sign(from, &Tx{Type: TxAppCall, AppID: app, Args: [][]byte{[]byte(arg)}})
	}
	pay := func(from *Account, to chain.Address, amount uint64) *Tx {
		return sign(from, &Tx{Type: TxPay, Receiver: to, Amount: amount})
	}

	for round := 0; round < 5; round++ {
		var groups []Group
		for ui, u := range accts {
			groups = append(groups, Group{call(u, apps[ui%len(apps)], "bump")})
			if round%2 == 1 {
				groups = append(groups, Group{pay(u, accts[ui^1].Address, 1000+uint64(ui))})
			}
		}
		// A rejected call, an uncoverable payment, and a payment grouped in
		// front of a call.
		failing := []Group{
			{call(accts[1], apps[0], "boom")},
			{pay(accts[2], sink, 1<<62)},
		}
		groups = append(groups, failing...)
		groups = append(groups, Group{pay(accts[3], c.AppAddress(apps[1]), 250), call(accts[3], apps[1], "bump")})
		switch round {
		case 0:
			// The first fee drains broke; the second group cannot pay its own.
			// The last group debits accts[5]'s fee, then finds penniless
			// short: the debit rolls back and nobody is charged.
			groups = append(groups,
				Group{pay(broke, sink, 1)},
				Group{pay(broke, sink, 2)},
				Group{pay(accts[5], sink, 3), pay(penniless, sink, 3)},
			)
			failing = append(failing, groups[len(groups)-2], groups[len(groups)-1])
		case 2:
			// Creations next to calls: the whole round runs serially. The
			// rejected and the unparsable creation must hand their ids back,
			// so the good ones after them land on 4 and 5; the asset group
			// rolls its creation back because of the payment behind it.
			groups = append(groups,
				Group{sign(accts[4], &Tx{Type: TxAppCreate, Source: rejectOnCreate})},
				Group{sign(accts[5], &Tx{Type: TxAppCreate, Source: "not teal"})},
				Group{sign(accts[6], &Tx{Type: TxAppCreate, Source: counterApp})},
				Group{sign(accts[7], &Tx{Type: TxAppCreate, Source: approveAll})},
				Group{
					sign(accts[4], &Tx{Type: TxAssetCreate, AssetName: "LOST", AssetUnit: "LST", Amount: 5}),
					pay(accts[4], sink, 1<<62),
				},
				Group{sign(accts[5], &Tx{Type: TxAssetCreate, AssetName: "KEPT", AssetUnit: "KPT", Amount: 9})},
			)
			failing = append(failing, groups[len(groups)-6], groups[len(groups)-5], groups[len(groups)-2])
		case 3:
			groups = append(groups,
				Group{sign(accts[6], &Tx{Type: TxAssetOptIn, AssetID: asset})},
				Group{call(accts[0], 4, "bump")},
			)
		case 4:
			groups = append(groups,
				Group{sign(deployer, &Tx{Type: TxAssetTransfer, AssetID: asset, Receiver: accts[6].Address, Amount: 40})},
				// accts[7] never opted in.
				Group{sign(deployer, &Tx{Type: TxAssetTransfer, AssetID: asset, Receiver: accts[7].Address, Amount: 1})},
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
			_, errs := c.SubmitBatch(groups)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("round %d group %d: %v", round, i, err)
				}
			}
		}
		before := c.ShardStats().ParallelBatches
		c.Step()
		if round == 2 && c.ShardStats().ParallelBatches != before {
			t.Fatal("a round with creations must not fan out")
		}
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
	if v, _ := c.led.GlobalGet(4, "count"); v.Uint != 1 {
		t.Fatalf("app 4 counted %d bumps, want 1", v.Uint)
	}
	if a, ok := c.Asset(2); !ok || a.Name != "KEPT" {
		t.Fatal("asset 2 must be the creation that survived")
	}
	if got := c.AssetBalance(accts[6].Address, asset); got != 40 {
		t.Fatalf("opted-in receiver holds %d, want 40", got)
	}
	if got := c.Balance(sink).Base.Uint64(); got != 1 {
		t.Fatalf("sink holds %d µALGO, want broke's one payment", got)
	}
	return c
}

func TestGoldenDigest(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := runGoldenScenario(t, shards)
			d, root, head := c.Digest(), c.StateRoot(), c.Head().Hash
			for _, g := range []struct{ name, got, want string }{
				{"digest", fmt.Sprintf("%x", d[:]), goldenDigest},
				{"state root", fmt.Sprintf("%x", root[:]), goldenStateRoot},
				{"head hash", fmt.Sprintf("%x", head[:]), goldenHeadHash},
			} {
				if g.got != g.want {
					t.Errorf("%s = %s, want %s", g.name, g.got, g.want)
				}
			}
			if shards > 1 && c.ShardStats().ParallelBatches == 0 {
				t.Error("the sharded path never engaged")
			}
		})
	}
}
