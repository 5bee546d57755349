package algorand

import (
	"errors"
	"math"
	"reflect"
	"runtime"
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

// runShardedRounds drives per-area app-call traffic plus peer payments —
// and among them a call the program rejects, an application created inside
// a batch and, every round, a payment into the fee sink, the account the
// round's tail credits — through a chain of the given fan-out width. It
// returns the chain for digest comparison, the rounds the workload stepped,
// and the receipts of the creations before them, whose rounds the client
// certified.
func runShardedRounds(t *testing.T, shards int) (*Chain, []*Block, []*chain.Receipt) {
	t.Helper()
	c := NewChain(Testnet(), 77)
	c.SetShards(shards)
	cl := NewClient(c)

	deployer := c.NewAccount(50_000_000)
	const areas = 4
	var apps []uint64
	var creations []*chain.Receipt
	for i := 0; i < areas; i++ {
		rcpt, id, err := cl.createApp(deployer, counterApp, nil)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, id)
		creations = append(creations, rcpt)
	}
	var blocks []*Block

	const users = 12
	accts := make([]*Account, users)
	for i := range accts {
		accts[i] = c.NewAccount(10_000_000)
	}

	for round := 0; round < 8; round++ {
		var groups []Group
		send := func(from *Account, tx *Tx) Group {
			tx.Sender, tx.Fee = from.Address, MinFee
			tx.Sign(from)
			groups = append(groups, Group{tx})
			return Group{tx}
		}
		var rejected Group
		for ui, u := range accts {
			send(u, &Tx{Type: TxAppCall, AppID: apps[ui%areas], Args: [][]byte{[]byte("bump")}})
			if round%2 == 1 {
				send(u, &Tx{Type: TxPay, Receiver: accts[ui^1].Address, Amount: 1000})
			}
			switch {
			case round == 2 && ui == 1:
				// "boom" matches no branch: the program errs, the call rolls
				// back, the fee stays charged.
				rejected = send(u, &Tx{Type: TxAppCall, AppID: apps[ui%areas], Args: [][]byte{[]byte("boom")}})
			case round == 4 && ui == 2:
				send(u, &Tx{Type: TxAppCreate, Source: counterApp})
			}
		}
		// A payment into the fee sink: execution credits the account the
		// round's tail credits the fees to.
		send(accts[5], &Tx{Type: TxPay, Receiver: c.feeSink, Amount: 555 + uint64(round)})
		before := c.Balance(c.feeSink).Base.Uint64()

		_, errs := c.SubmitBatch(groups)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d group %d: %v", round, i, err)
			}
		}
		blk := c.Step()
		blocks = append(blocks, blk)

		want := before + 555 + uint64(round)
		for _, h := range blk.Groups {
			rcpt, ok := c.Receipt(h)
			if !ok {
				t.Fatalf("round %d: no receipt for an included group", round)
			}
			want += rcpt.Fee.Base.Uint64()
		}
		if got := c.Balance(c.feeSink).Base.Uint64(); len(blk.Groups) != len(groups) || got != want {
			t.Fatalf("round %d took %d of %d groups and left the fee sink %d, want %d", round, len(blk.Groups), len(groups), got, want)
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
	for i := 0; i < 10 && c.PendingCount() > 0; i++ {
		blocks = append(blocks, c.Step())
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d groups never included", c.PendingCount())
	}
	return c, blocks, creations
}

// TestShardedRoundBitIdentity: the same workload at every combination of
// one, two and four cores with a fan-out width of one to eight certifies
// the same rounds and ends in the same digest.
func TestShardedRoundBitIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, refBlocks, refCreations := runShardedRounds(t, 1)
	refDigest := ref.Digest()
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 3, 4, 8} {
			c, blocks, creations := runShardedRounds(t, shards)
			if len(blocks) != len(refBlocks) || c.Head().Round != ref.Head().Round {
				t.Fatalf("procs=%d shards=%d: %d rounds to %d vs %d to %d serial",
					procs, shards, len(blocks), c.Head().Round, len(refBlocks), ref.Head().Round)
			}
			// The client certified the creations' rounds.
			for i, rcpt := range creations {
				if rcpt.BlockNumber != refCreations[i].BlockNumber {
					t.Fatalf("procs=%d shards=%d: creation %d in round %d, serially %d", procs, shards, i, rcpt.BlockNumber, refCreations[i].BlockNumber)
				}
			}
			for i := range refBlocks {
				if blocks[i].Hash != refBlocks[i].Hash {
					t.Fatalf("procs=%d shards=%d: round %d hash diverges", procs, shards, i)
				}
			}
			if d := c.Digest(); d != refDigest {
				t.Fatalf("procs=%d shards=%d: ledger digest diverges from serial run", procs, shards)
			}
		}
	}
}

// TestConsensusBitIdentityAcrossGOMAXPROCS: sortition and batch admission
// fan out across cores, and the rounds must not show it — the same seeded
// chain stepped on one, two and four cores at widths one, two and four
// elects the same proposers, carries the same hashes and ends in the same
// digest.
func TestConsensusBitIdentityAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, refBlocks, _ := runShardedRounds(t, 2)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4} {
			c, blocks, _ := runShardedRounds(t, shards)
			if len(blocks) != len(refBlocks) || c.Head().Round != ref.Head().Round {
				t.Fatalf("procs=%d shards=%d: %d rounds to %d vs %d to %d on one core",
					procs, shards, len(blocks), c.Head().Round, len(refBlocks), ref.Head().Round)
			}
			for i, blk := range blocks {
				if blk.Hash != refBlocks[i].Hash {
					t.Fatalf("procs=%d shards=%d: round %d hash depends on GOMAXPROCS", procs, shards, i)
				}
				if !reflect.DeepEqual(blk.Proposer, refBlocks[i].Proposer) {
					t.Fatalf("procs=%d shards=%d: round %d proposer depends on GOMAXPROCS", procs, shards, i)
				}
			}
			if c.Digest() != ref.Digest() {
				t.Fatalf("procs=%d shards=%d: digest depends on GOMAXPROCS", procs, shards)
			}
		}
	}
}

// TestShardedRoundRecordsStats: the tallies count every included group and
// its opcode cost on the one lane, and ParallelBatches counts the
// workload's eight SubmitBatch calls when two cores admit them, none on one.
func TestShardedRoundRecordsStats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if c, _, _ := runShardedRounds(t, 4); c.ShardStats().ParallelBatches != 0 {
		t.Fatalf("%d parallel batches on one core", c.ShardStats().ParallelBatches)
	}
	runtime.GOMAXPROCS(2)
	c, blocks, creations := runShardedRounds(t, 4)
	stats := c.ShardStats()
	// The creations' rounds carry nothing else.
	var groups, cost uint64
	for _, rcpt := range creations {
		groups++
		cost += rcpt.GasUsed
	}
	for _, blk := range blocks {
		for _, h := range blk.Groups {
			rcpt, _ := c.Receipt(h)
			groups++
			cost += rcpt.GasUsed
		}
	}
	if stats == nil || len(stats.Txs) != 1 || stats.Txs[0] != groups || stats.Gas[0] != cost || stats.ParallelBatches != 8 {
		t.Fatalf("stats %+v; want one lane of %d groups and %d cost, 8 parallel batches", stats, groups, cost)
	}
}

// TestCreationRoundFallsBackToSerial: a round mixing an application
// creation with a payment at width four executes both.
func TestCreationRoundFallsBackToSerial(t *testing.T) {
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

// TestFailedGroupsInterleavedOnOneShard: every third group of each app
// fails after its app call already wrote (the trailing payment of the
// atomic group overdraws), between groups of the same app that succeed,
// all in the round's one overlay. The writes come back out from under the
// later groups: the round ends at the width-1 run's digest and at the
// balances and counters of a flat model, the fees charged on every group.
func TestFailedGroupsInterleavedOnOneShard(t *testing.T) {
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
