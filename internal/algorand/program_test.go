package algorand

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/mstate"
)

// tenCounter is counterApp counting in tens, so a call's return value says
// which of the two programs ran.
var tenCounter = strings.Replace(counterApp, "int 1\n+", "int 10\n+", 1)

// signedCreate deploys src. The tag rides along as a creation argument the
// program ignores: Algorand transactions carry no nonce, so two creations
// of one source from one sender would otherwise be the same group.
func signedCreate(from *Account, src string, tag uint64) Group {
	tx := &Tx{Type: TxAppCreate, Sender: from.Address, Fee: MinFee, Source: src, Args: [][]byte{avm.Itob(tag)}}
	tx.Sign(from)
	return Group{tx}
}

// signedBump calls a counter app, tagged like signedCreate.
func signedBump(from *Account, app, tag uint64) Group {
	tx := &Tx{Type: TxAppCall, Sender: from.Address, Fee: MinFee, AppID: app, Args: [][]byte{[]byte("bump"), avm.Itob(tag)}}
	tx.Sign(from)
	return Group{tx}
}

// counted returns the counter value a certified bump reported.
func counted(t *testing.T, c *Chain, g Group) uint64 {
	t.Helper()
	rcpt, ok := c.Receipt(g.Hash())
	if !ok || rcpt.Reverted {
		t.Fatalf("bump of app %d: included %v, receipt %+v", g[0].AppID, ok, rcpt)
	}
	n, err := avm.Btoi(rcpt.ReturnValue)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sharesProgram fails unless every listed app points at prog.
func sharesProgram(t *testing.T, what string, c *Chain, prog *avm.Program, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		p, ok := c.App(id)
		if !ok {
			t.Fatalf("%s: app %d missing", what, id)
		}
		if p != prog {
			t.Fatalf("%s: app %d has a program of its own", what, id)
		}
	}
}

// TestAppsShareOneProgram: apps deployed from one TEAL source point at one
// parsed program — after SubmitBatch and after Open from a checkpoint —
// while another source gets its own, a creation
// rolled back and redone from another source runs the new program, and
// two apps sharing a program run in one round.
func TestAppsShareOneProgram(t *testing.T) {
	const k = 4
	c := NewChain(Testnet(), 41)
	c.SetShards(2)
	rng := chain.NewRand(41).Fork("test:keys")
	deployer := fundedAccount(c, rng, 100_000_000)
	alice := fundedAccount(c, rng, 10_000_000)
	bob := fundedAccount(c, rng, 10_000_000)

	// Apps 1..k from one source, each creation carrying its own copy of
	// the text as separate clients' would; app k+1 from a second source.
	var groups []Group
	for i := uint64(0); i < k; i++ {
		groups = append(groups, signedCreate(deployer, strings.Clone(counterApp), i))
	}
	groups = append(groups, signedCreate(deployer, tenCounter, k))
	stepBatch(t, c, groups)
	counter, ten := c.led.apps[1], c.led.apps[k+1]
	if counter == ten || counter.Source != counterApp || ten.Source != tenCounter {
		t.Fatal("the two sources must have a program each")
	}
	sharesProgram(t, "after SubmitBatch", c, counter, 1, 2, 3, 4)
	sharesProgram(t, "after SubmitBatch", c, ten, k+1)
	if len(c.led.programs) != 2 {
		t.Fatalf("the program table holds %d programs for 2 sources", len(c.led.programs))
	}

	// A creation rolled back by the overdraft behind it hands id k+2 back;
	// the next creation takes the id with the other source, and its calls
	// run that source.
	over := signedPay(deployer, bob.Address, 1<<62)
	failed := append(signedCreate(deployer, counterApp, k+1), over)
	stepBatch(t, c, []Group{failed})
	if rcpt, _ := c.Receipt(failed.Hash()); !rcpt.Reverted {
		t.Fatal("the overdrawn creation went through")
	}
	if _, ok := c.App(k + 2); ok {
		t.Fatal("a rolled-back creation left its app behind")
	}
	stepBatch(t, c, []Group{signedCreate(deployer, tenCounter, k+2)})
	sharesProgram(t, "after a rolled-back creation", c, ten, k+1, k+2)
	g := signedBump(alice, k+2, 0)
	stepBatch(t, c, []Group{g})
	if n := counted(t, c, g); n != 10 {
		t.Fatalf("app %d counted %d, want the second source's 10", k+2, n)
	}

	// Apps 1 and 2 in one round.
	for round := uint64(1); round <= 3; round++ {
		a, b := signedBump(alice, 1, round), signedBump(bob, 2, round)
		stepBatch(t, c, []Group{a, b})
		if na, nb := counted(t, c, a), counted(t, c, b); na != round || nb != round {
			t.Fatalf("round %d: the shared-program calls counted %d and %d", round, na, nb)
		}
	}

	// Open from a checkpoint warms the table one source at a time.
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	store := mstate.NewMemStore()
	root, err := c.CommitState(store)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var ck2 Checkpoint
	if err := json.Unmarshal(blob, &ck2); err != nil {
		t.Fatal(err)
	}
	resumed, err := Open(Options{Config: Testnet(), Seed: 41, Store: store, Root: root, Checkpoint: &ck2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.led.programs) != 2 {
		t.Fatalf("Open parsed %d programs for 2 sources", len(resumed.led.programs))
	}
	rCounter, rTen := resumed.led.apps[1], resumed.led.apps[k+1]
	if rCounter == rTen || rCounter.Source != counterApp || rTen.Source != tenCounter {
		t.Fatal("after Open the two sources must have a program each")
	}
	sharesProgram(t, "after Open", resumed, rCounter, 1, 2, 3, 4)
	sharesProgram(t, "after Open", resumed, rTen, k+1, k+2)
	g = signedBump(alice, k+2, 1)
	stepBatch(t, resumed, []Group{g})
	if n := counted(t, resumed, g); n != 20 {
		t.Fatalf("after Open app %d counted %d, want 20", k+2, n)
	}
}

// BenchmarkAppResident reports what one more application of an already
// deployed source keeps resident: a chain with one counterApp deployed
// creates 256 more in one round, and the live heap after an empty round
// has pruned that round's receipts (retention 1), minus the live heap
// before, is divided by 256. What is left is the app's own state: its
// metadata leaf (which carries its source, as on Algorand), its counter,
// the trie branches above them and its app table entry. Nothing is
// timed.
func BenchmarkAppResident(b *testing.B) {
	heapAfterGC := func() uint64 {
		runtime.GC()
		runtime.GC() // the first cycle may still be sweeping finalizer-held blocks
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const apps = 256
	// On one P: with more, the readings also count whatever partly used
	// allocation spans the other Ps' caches hold, since the next round's
	// sortition runs there.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := NewChain(Testnet(), 7)
	c.SetRetention(1)
	cl := NewClient(c)
	deployer := c.NewAccount(100_000_000)
	if _, _, err := cl.createApp(deployer, counterApp, nil); err != nil {
		b.Fatal(err)
	}
	groups := make([]Group, apps)
	for i := range groups {
		groups[i] = signedCreate(deployer, counterApp, uint64(i))
	}
	c.Step()
	before := heapAfterGC()
	_, errs := c.SubmitBatch(groups)
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	if blk := c.Step(); len(blk.Groups) != apps {
		b.Fatalf("the round took %d of %d creations", len(blk.Groups), apps)
	}
	c.Step()
	after := heapAfterGC()
	runtime.KeepAlive(c)
	runtime.KeepAlive(groups)
	if _, ok := c.App(apps + 1); !ok {
		b.Fatal("the last creation did not land")
	}
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(float64(int64(after)-int64(before))/apps, "B/app")
}
