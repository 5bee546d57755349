package algorand

import (
	"fmt"
	"math/rand"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
)

// Regression: crediting zero used to materialize a balance entry for an
// absent account — a phantom that entered the digest.
func TestCreditZeroNoPhantom(t *testing.T) {
	ghost := chain.AddressFromBytes([]byte("ghost"))
	l, ref := newLedger(), newLedger()
	l.credit(ghost, 0)
	if l.root() != ref.root() {
		t.Fatal("zero credit of an absent account must not change the root")
	}
	l.credit(ghost, 7)
	if l.root() == ref.root() {
		t.Fatal("non-zero credit must enter the root")
	}
	if l.Balance(ghost) != 7 {
		t.Fatal("credit lost")
	}
	// setBalance is the explicit-entry path: a forced zero write (e.g. an
	// account drained by Pay) keeps the account resident.
	drained := chain.AddressFromBytes([]byte("drained"))
	l.setBalance(drained, 0)
	if l.root() == ref.root() {
		t.Fatal("explicit zero balance must stay in the root")
	}
}

// TestSnapshotRestorePrunesCaches pins rollback of a failed group ("snapshot"
// is the fork, "restore" is dropping it + uncreate): a group's creations
// write through an overlay but advance the ledger's own sequence counters
// and caches, so dropping the overlay and calling uncreate — what
// executeGroup does for a failed group — must leave the ledger exactly as
// it was.
func TestSnapshotRestorePrunesCaches(t *testing.T) {
	l := newLedger()
	alice := chain.AddressFromBytes([]byte("alice"))
	l.setBalance(alice, 100)

	appSeq, assetSeq := l.appSeq, l.assetSeq
	rootBefore := l.root()

	prog, err := avm.Parse("int 1")
	if err != nil {
		t.Fatal(err)
	}
	o := l.fork()
	id := o.createApp(alice, prog, 1)
	o.GlobalPut(id, "k", avm.Uint64Value(9))
	a := o.assetCreate(alice, "GREEN", "GRN", 1000, 2, 1)
	o.setBalance(alice, 40)
	if !o.appExists(id) || !o.assetExists(a.ID) || l.appSeq != appSeq+1 || l.assetSeq != assetSeq+1 {
		t.Fatal("creations must be visible through the overlay and counted on the ledger")
	}

	l.uncreate(appSeq, assetSeq)
	if l.root() != rootBefore {
		t.Fatal("a dropped fork must leave the root alone")
	}
	if l.Balance(alice) != 100 {
		t.Fatal("a dropped fork's balance write reached the ledger")
	}
	if l.appExists(id) || l.app(id) != nil {
		t.Fatal("app still visible after fork drop + uncreate")
	}
	if _, cached := l.progs[id]; cached {
		t.Fatal("uncreate left the app's program in the cache")
	}
	if l.assetExists(a.ID) {
		t.Fatal("asset still visible after fork drop + uncreate")
	}
	if _, cached := l.assets[a.ID]; cached {
		t.Fatal("uncreate left the asset in the cache")
	}
	if l.appSeq != appSeq || l.assetSeq != assetSeq {
		t.Fatal("uncreate did not rewind the sequence counters")
	}
}

// TestLedgerDifferentialOverlay drives one randomized op sequence through
// the canonical ledger directly and through fork/adopt overlays (committed
// in batches), and demands identical roots after every batch — the
// serial-vs-sharded state equivalence in miniature.
func TestLedgerDifferentialOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	direct, overlaid := newLedger(), newLedger()
	addrs := make([]chain.Address, 6)
	for i := range addrs {
		addrs[i] = chain.AddressFromBytes([]byte{byte(i + 1)})
		direct.setBalance(addrs[i], 1_000_000)
		overlaid.setBalance(addrs[i], 1_000_000)
	}
	prog, err := avm.Parse("int 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*ledger{direct, overlaid} {
		l.createApp(addrs[0], prog, 0)
		l.assetCreate(addrs[0], "GREEN", "GRN", 10_000, 0, 0)
		for _, a := range addrs[1:] {
			l.assetOptIn(a, 1)
		}
	}

	for batch := 0; batch < 20; batch++ {
		ov := overlaid.fork()
		for step := 0; step < 50; step++ {
			a := addrs[rng.Intn(len(addrs))]
			b := addrs[rng.Intn(len(addrs))]
			key := fmt.Sprintf("k%d", rng.Intn(4))
			amt := uint64(rng.Intn(500))
			ops := []func(v avm.Ledger){
				func(v avm.Ledger) {
					if v.Balance(a) >= amt {
						if err := v.Pay(a, b, amt); err != nil {
							t.Fatal(err)
						}
					}
				},
				func(v avm.Ledger) { v.GlobalPut(1, key, avm.Uint64Value(amt)) },
				func(v avm.Ledger) { v.GlobalDel(1, key) },
				func(v avm.Ledger) { v.LocalPut(1, a, key, avm.Uint64Value(amt)) },
				func(v avm.Ledger) { v.LocalDel(1, a, key) },
			}
			op := rng.Intn(len(ops))
			// Same op through the overlay and against the canonical
			// ledger directly; balances match by induction, so both take
			// the same branch inside op 0.
			ops[op](ov)
			ops[op](direct)
		}
		overlaid.adopt(ov)
		if direct.root() != overlaid.root() {
			t.Fatalf("batch %d: overlay-adopted root diverges from direct root", batch)
		}
	}
	// Reads agree too.
	for _, a := range addrs {
		if direct.Balance(a) != overlaid.Balance(a) {
			t.Fatal("balances diverge")
		}
		if direct.OptedIn(1, a) != overlaid.OptedIn(1, a) {
			t.Fatal("opt-ins diverge")
		}
	}
}
