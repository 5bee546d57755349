package algorand

import (
	"errors"
	"math"
	"strings"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
)

func TestLedgerOverlayCopyOnWrite(t *testing.T) {
	led := newLedger()
	alice := chain.AddressFromBytes([]byte("alice"))
	led.setBalance(alice, 100)
	prog, err := avm.Parse("int 1")
	if err != nil {
		t.Fatal(err)
	}
	led.createApp(chain.Address{}, prog, 0)
	led.GlobalPut(1, "k", avm.Uint64Value(5))

	ov := led.fork()
	if ov.Balance(alice) != 100 {
		t.Fatal("overlay must read through")
	}
	ov.setBalance(alice, 60)
	ov.GlobalPut(1, "k", avm.Uint64Value(9))
	ov.GlobalPut(1, "seen", avm.Uint64Value(1))
	if led.Balance(alice) != 100 {
		t.Fatal("base balance changed before commit")
	}
	if v, _ := led.GlobalGet(1, "k"); v.Uint != 5 {
		t.Fatal("base app mutated before commit: copy-on-write broken")
	}
	if v, _ := ov.GlobalGet(1, "k"); v.Uint != 9 {
		t.Fatal("overlay must serve its own global write")
	}
	if _, ok := ov.GlobalGet(1, "seen"); !ok {
		t.Fatal("overlay must serve a key it created")
	}
	if _, ok := led.GlobalGet(1, "seen"); ok {
		t.Fatal("a key created in the overlay leaked into the base before commit")
	}

	// Rollback inside the overlay: writes under a revert point are seen
	// until it is reverted, and gone — the earlier writes back — after.
	ov.ov.Mark()
	ov.GlobalPut(1, "k", avm.Uint64Value(77))
	ov.setBalance(alice, 1)
	ov.GlobalPut(1, "bob", avm.Uint64Value(1))
	if v, _ := ov.GlobalGet(1, "k"); v.Uint != 77 {
		t.Fatal("overlay must serve a write under an open revert point")
	}
	ov.ov.Revert()
	if v, _ := ov.GlobalGet(1, "k"); v.Uint != 9 || ov.Balance(alice) != 60 {
		t.Fatal("reverted writes must give way to the ones before the revert point")
	}
	if _, ok := ov.GlobalGet(1, "bob"); ok {
		t.Fatal("reverted writes must not leak")
	}

	led.adopt(ov)
	if led.Balance(alice) != 60 {
		t.Fatal("commit must fold balances")
	}
	if v, _ := led.GlobalGet(1, "k"); v.Uint != 9 {
		t.Fatal("commit must fold app state")
	}
	if _, ok := led.GlobalGet(1, "seen"); !ok {
		t.Fatal("commit must fold created keys")
	}
	if _, ok := led.GlobalGet(1, "bob"); ok {
		t.Fatal("commit replayed a reverted write")
	}
}

// TestCreationAndPaymentShareARound: a round mixing an application
// creation with a payment at width four executes both.
func TestCreationAndPaymentShareARound(t *testing.T) {
	c := NewChain(Testnet(), 5)
	c.SetShards(4)
	alice := c.NewAccount(10_000_000)
	bob := c.NewAccount(10_000_000)
	create := &Tx{Type: TxAppCreate, Sender: alice.Address, Fee: MinFee, Source: approveAll}
	create.Sign(alice)
	pay := &Tx{Type: TxPay, Sender: bob.Address, Fee: MinFee,
		Receiver: chain.AddressFromBytes([]byte("x")), Amount: 1}
	pay.Sign(bob)
	_, errs := c.SubmitBatch([]Group{{create}, {pay}})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Step()
	if _, ok := c.App(1); !ok {
		t.Fatal("the creation did not execute")
	}
}

func TestRejectedCallInShardedRoundChargesFees(t *testing.T) {
	// A rejected app call must roll back its writes and still charge the
	// fee, at every fan-out width alike.
	run := func(shards int) *Chain {
		c := NewChain(Testnet(), 9)
		c.SetShards(shards)
		cl := NewClient(c)
		deployer := c.NewAccount(50_000_000)
		_, appID, err := cl.createApp(deployer, counterApp, nil)
		if err != nil {
			t.Fatal(err)
		}
		alice := c.NewAccount(10_000_000)
		bob := c.NewAccount(10_000_000)
		// "boom" matches no branch, so the program errs and the call rolls
		// back; bob's independent payment shares the round.
		bad := &Tx{Type: TxAppCall, Sender: alice.Address, Fee: MinFee,
			AppID: appID, Args: [][]byte{[]byte("boom")}}
		bad.Sign(alice)
		pay := &Tx{Type: TxPay, Sender: bob.Address, Fee: MinFee,
			Receiver: chain.AddressFromBytes([]byte("sink")), Amount: 5}
		pay.Sign(bob)
		_, errs := c.SubmitBatch([]Group{{bad}, {pay}})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		c.Step()
		return c
	}
	if run(1).Digest() != run(4).Digest() {
		t.Fatal("revert handling diverges between fan-out widths")
	}
}

// stepBatch submits the groups as one batch and certifies one round.
func stepBatch(t *testing.T, c *Chain, groups []Group) {
	t.Helper()
	_, errs := c.SubmitBatch(groups)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	if blk := c.Step(); len(blk.Groups) != len(groups) {
		t.Fatalf("the round took %d of %d groups", len(blk.Groups), len(groups))
	}
}

// TestFailedGroupsInterleavedInOneOverlay: every third group of each app
// fails after its app call already wrote (the trailing payment of the
// atomic group overdraws), between groups of the same app that succeed,
// all in the round's one overlay. The writes come back out from under the
// later groups: the round ends at the width-1 run's digest and at the
// balances and counters of a flat model, the fees charged on every group.
func TestFailedGroupsInterleavedInOneOverlay(t *testing.T) {
	const apps, users, groupsPerRound, rounds = 2, 5, 30, 3
	run := func(shards int) *Chain {
		c := NewChain(Testnet(), 31)
		c.SetShards(shards)
		cl := NewClient(c)
		deployer := c.NewAccount(50_000_000)
		var ids [apps]uint64
		for i := range ids {
			var err error
			if _, ids[i], err = cl.createApp(deployer, counterApp, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Each app has its own users.
		var accts [apps][users]*Account
		balance := map[chain.Address]uint64{}
		for a := range accts {
			for u := range accts[a] {
				accts[a][u] = c.NewAccount(10_000_000)
				balance[accts[a][u].Address] = 10_000_000
			}
		}
		var count [apps]uint64
		sink := c.Balance(c.feeSink).Base.Uint64()
		for round := 0; round < rounds; round++ {
			var groups []Group
			for i := 0; i < groupsPerRound; i++ {
				a := i % apps
				from := accts[a][(i/apps+round)%users]
				call := &Tx{Type: TxAppCall, Sender: from.Address, Fee: MinFee, AppID: ids[a], Args: [][]byte{[]byte("bump")}}
				call.Sign(from)
				g := Group{call}
				if (i/apps)%3 == 2 {
					over := &Tx{Type: TxPay, Sender: from.Address, Fee: MinFee,
						Receiver: accts[a][0].Address, Amount: 1 << 40}
					over.Sign(from)
					g = append(g, over)
				} else {
					count[a]++
				}
				balance[from.Address] -= uint64(len(g)) * MinFee
				sink += uint64(len(g)) * MinFee
				groups = append(groups, g)
			}
			stepBatch(t, c, groups)
			for i, g := range groups {
				if rcpt, _ := c.Receipt(g.Hash()); rcpt.Reverted != (len(g) == 2) {
					t.Fatalf("shards=%d round %d group %d: reverted %v: %s", shards, round, i, rcpt.Reverted, rcpt.RevertMsg)
				}
			}
		}
		for addr, want := range balance {
			if got := c.Balance(addr).Base.Uint64(); got != want {
				t.Fatalf("shards=%d: %s holds %d, the model %d", shards, addr, got, want)
			}
		}
		for a, id := range ids {
			if v, _ := c.led.GlobalGet(id, "count"); v.Uint != count[a] {
				t.Fatalf("shards=%d: app %d counted %d, the model %d", shards, id, v.Uint, count[a])
			}
		}
		if got := c.Balance(c.feeSink).Base.Uint64(); got != sink {
			t.Fatalf("shards=%d: fee sink holds %d, the model %d", shards, got, sink)
		}
		return c
	}
	if run(1).Digest() != run(2).Digest() {
		t.Fatal("interleaved reverts diverge between fan-out widths")
	}
}

// TestInsufficientFeeRollsBackEarlierSenders: the fee loop debits sender by
// sender, so when the second sender of a group cannot pay, the first one's
// debit is already written — and must come back: nothing is charged.
func TestInsufficientFeeRollsBackEarlierSenders(t *testing.T) {
	run := func(shards int) *Chain {
		c := NewChain(Testnet(), 13)
		c.SetShards(shards)
		alice, carol := c.NewAccount(10_000_000), c.NewAccount(10_000_000)
		broke := c.NewAccount(MinFee - 1)
		first := &Tx{Type: TxPay, Sender: alice.Address, Fee: MinFee, Receiver: broke.Address, Amount: 5_000}
		first.Sign(alice)
		second := &Tx{Type: TxPay, Sender: broke.Address, Fee: MinFee, Receiver: alice.Address, Amount: 1}
		second.Sign(broke)
		// carol's independent payment shares the round.
		other := &Tx{Type: TxPay, Sender: carol.Address, Fee: MinFee,
			Receiver: chain.AddressFromBytes([]byte("elsewhere")), Amount: 5}
		other.Sign(carol)
		sink := c.Balance(c.feeSink).Base.Uint64()
		stepBatch(t, c, []Group{{first, second}, {other}})
		rcpt, _ := c.Receipt(Group{first, second}.Hash())
		if !rcpt.Reverted || rcpt.RevertMsg != "insufficient balance for fee" || rcpt.Fee.Base.Sign() != 0 {
			t.Fatalf("shards=%d: receipt %+v", shards, rcpt)
		}
		if a, b := c.Balance(alice.Address).Base.Uint64(), c.Balance(broke.Address).Base.Uint64(); a != 10_000_000 || b != MinFee-1 {
			t.Fatalf("shards=%d: alice holds %d and the broke sender %d after a group nobody was charged for", shards, a, b)
		}
		if got := c.Balance(c.feeSink).Base.Uint64(); got != sink+MinFee {
			t.Fatalf("shards=%d: fee sink took %d, want carol's fee alone", shards, got-sink)
		}
		return c
	}
	if run(1).Digest() != run(2).Digest() {
		t.Fatal("the insufficient-fee exit diverges between fan-out widths")
	}
}

// TestPaymentPastMaxBalanceReverts: a payment that would carry the receiver
// past 2⁶⁴−1 µALGO used to wrap the balance to almost nothing and be
// accepted. It fails the group — only the fee is charged — while a
// zero-amount and an exact-fit payment into a full account go through.
func TestPaymentPastMaxBalanceReverts(t *testing.T) {
	led := newLedger()
	full, payer := chain.AddressFromBytes([]byte("full")), chain.AddressFromBytes([]byte("payer"))
	led.setBalance(full, math.MaxUint64)
	led.setBalance(payer, 10)
	if err := led.Pay(payer, full, 1); !errors.Is(err, ErrBalanceOverflow) {
		t.Fatalf("Pay past the maximum: %v", err)
	}
	if led.Balance(payer) != 10 || led.Balance(full) != math.MaxUint64 {
		t.Fatal("a refused payment wrote a balance")
	}
	if err := led.Pay(full, full, math.MaxUint64); err != nil {
		t.Fatalf("a payment to oneself cannot overflow: %v", err)
	}
	led.credit(full, 7)
	if led.Balance(full) != math.MaxUint64 {
		t.Fatal("a credit wrapped a full balance")
	}

	run := func(shards int) *Chain {
		c := NewChain(Testnet(), 17)
		c.SetShards(shards)
		rich, full := c.NewAccount(math.MaxUint64), c.NewAccount(math.MaxUint64)
		almost, payer := c.NewAccount(math.MaxUint64-5), c.NewAccount(10_000_000)
		pay := func(from *Account, to chain.Address, amount uint64) Group {
			tx := &Tx{Type: TxPay, Sender: from.Address, Fee: MinFee, Receiver: to, Amount: amount}
			tx.Sign(from)
			return Group{tx}
		}
		wrap := pay(rich, full.Address, 1)
		zero := pay(payer, full.Address, 0)
		fit := pay(payer, almost.Address, 5)
		// A payment between two other accounts shares the round.
		other := pay(c.NewAccount(10_000_000), chain.AddressFromBytes([]byte("elsewhere")), 5)
		stepBatch(t, c, []Group{wrap, zero, fit, other})
		if rcpt, _ := c.Receipt(wrap.Hash()); !rcpt.Reverted || !strings.Contains(rcpt.RevertMsg, ErrBalanceOverflow.Error()) {
			t.Fatalf("shards=%d: the wrapping payment's receipt: %+v", shards, rcpt)
		}
		for _, g := range []Group{zero, fit} {
			if rcpt, _ := c.Receipt(g.Hash()); rcpt.Reverted {
				t.Fatalf("shards=%d: a payment that fits reverted: %s", shards, rcpt.RevertMsg)
			}
		}
		for _, w := range []struct {
			who  *Account
			want uint64
		}{{rich, math.MaxUint64 - MinFee}, {full, math.MaxUint64}, {almost, math.MaxUint64}, {payer, 10_000_000 - 2*MinFee - 5}} {
			if got := c.Balance(w.who.Address).Base.Uint64(); got != w.want {
				t.Fatalf("shards=%d: %s holds %d, want %d", shards, w.who.Address, got, w.want)
			}
		}
		return c
	}
	if run(1).Digest() != run(2).Digest() {
		t.Fatal("the overflow revert diverges between fan-out widths")
	}
}
