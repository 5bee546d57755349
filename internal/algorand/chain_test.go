package algorand

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/mstate"
	"agnopol/internal/polcrypto"
)

// pay transfers µAlgos.
func (cl *Client) pay(acct *Account, to chain.Address, amount uint64) (*chain.Receipt, error) {
	return cl.send(acct, &Tx{Type: TxPay, Sender: acct.Address, Fee: MinFee, Receiver: to, Amount: amount}, "payment")
}

func newTestChain(t *testing.T) *Chain {
	t.Helper()
	return NewChain(Testnet(), 1)
}

const approveAll = "int 1\nreturn"

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

func TestPaymentFlow(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(5_000_000)
	bob := chain.AddressFromBytes([]byte("bob"))
	rcpt, err := cl.pay(alice, bob, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if (rcpt.Included - rcpt.Submitted) <= 0 {
		t.Fatal("latency must be positive")
	}
	if got := c.Balance(bob).Base.Uint64(); got != 1_000_000 {
		t.Fatalf("bob balance %d", got)
	}
	// Alice paid the amount plus the flat min fee.
	if got := c.Balance(alice.Address).Base.Uint64(); got != 5_000_000-1_000_000-MinFee {
		t.Fatalf("alice balance %d", got)
	}
	if rcpt.Fee.Base.Uint64() != MinFee {
		t.Fatalf("fee %s, want flat %d µALGO", rcpt.Fee.Base, MinFee)
	}
}

func TestFlatFeesIndependentOfLoad(t *testing.T) {
	// Unlike EIP-1559 chains, fees never move with congestion.
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(50_000_000)
	for i := 0; i < 10; i++ {
		to := chain.AddressFromBytes([]byte{byte(i)})
		rcpt, err := cl.pay(alice, to, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if rcpt.Fee.Base.Uint64() != MinFee {
			t.Fatalf("tx %d fee %s", i, rcpt.Fee.Base)
		}
	}
}

func TestAppCreateAndCall(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(10_000_000)
	rcpt, appID, err := cl.createApp(alice, counterApp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if appID == 0 {
		t.Fatal("no app ID allocated")
	}
	if rcpt.Reverted {
		t.Fatal("creation reverted")
	}
	v, ok := c.led.GlobalGet(appID, "count")
	if !ok || v.Uint != 0 {
		t.Fatalf("count after create = %v (ok=%v)", v, ok)
	}
	for i := 1; i <= 3; i++ {
		rcpt, err := cl.callApp(alice, appID, [][]byte{[]byte("bump")}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := avm.Btoi(rcpt.ReturnValue)
		if err != nil || got != uint64(i) {
			t.Fatalf("bump %d returned %d (err %v)", i, got, err)
		}
	}
}

func TestRejectedCallRollsBackAtomically(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(10_000_000)
	_, appID, err := cl.createApp(alice, `
txn ApplicationID
bz create
byte "touched"
int 1
app_global_put
byte "trace"
log
err
create:
int 1
return`, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Balance(alice.Address).Base.Uint64()
	rcpt, err := cl.callApp(alice, appID, [][]byte{[]byte("x")}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Reverted {
		t.Fatal("call should be rejected")
	}
	if len(rcpt.Logs) != 0 {
		t.Fatalf("rejected call left logs %q", rcpt.Logs)
	}
	if _, ok := c.led.GlobalGet(appID, "touched"); ok {
		t.Fatal("state write survived a rejected call")
	}
	// The fee is charged anyway.
	after := c.Balance(alice.Address).Base.Uint64()
	if before-after != MinFee {
		t.Fatalf("fee charged %d, want %d", before-after, MinFee)
	}
}

func TestGroupPaymentRollsBackWithRejectedCall(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(10_000_000)
	_, appID, err := cl.createApp(alice, `
txn ApplicationID
bz create
err
create:
int 1
return`, nil)
	if err != nil {
		t.Fatal(err)
	}
	appAddr := c.AppAddress(appID)
	rcpt, err := cl.callApp(alice, appID, [][]byte{[]byte("x")}, 500_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Reverted {
		t.Fatal("group should be rejected")
	}
	if got := c.Balance(appAddr).Base.Uint64(); got != 0 {
		t.Fatalf("grouped payment survived rejection: app holds %d", got)
	}
}

func TestInsufficientFee(t *testing.T) {
	c := newTestChain(t)
	alice := c.NewAccount(10_000_000)
	tx := &Tx{Type: TxPay, Sender: alice.Address, Fee: 10, Receiver: chain.Address{1}, Amount: 1}
	tx.Sign(alice)
	if _, err := c.Submit(Group{tx}); err == nil {
		t.Fatal("below-min fee accepted")
	}
}

func TestSignatureValidation(t *testing.T) {
	c := newTestChain(t)
	alice := c.NewAccount(10_000_000)
	mallory := c.NewAccount(10_000_000)
	tx := &Tx{Type: TxPay, Sender: alice.Address, Fee: MinFee, Receiver: chain.Address{1}, Amount: 1}
	tx.Sign(mallory) // wrong key
	if _, err := c.Submit(Group{tx}); err == nil {
		t.Fatal("wrong-key signature accepted")
	}
}

func TestImmediateFinalityNoForks(t *testing.T) {
	// Block N's parent seed matches block N-1: a single, final chain.
	c := newTestChain(t)
	blocks := []*Block{c.Head()}
	for i := 0; i < 20; i++ {
		blocks = append(blocks, c.Step())
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i].PrevSeed != blocks[i-1].Seed {
			t.Fatalf("block %d not chained to parent", i)
		}
	}
}

// participantOf is the participant registered under addr, or nil.
func participantOf(c *Chain, addr chain.Address) *Participant {
	for _, p := range c.participants {
		if p.Address == addr {
			return p
		}
	}
	return nil
}

// checkLeader recomputes blk's proposer credential from its participant's
// key pair: the VRF output on the round's proposer seed, and the sub-users
// sortition draws from it at the expected size.
func checkLeader(c *Chain, blk *Block, expected float64) error {
	cred := blk.Proposer
	p := participantOf(c, cred.Participant)
	if p == nil {
		return fmt.Errorf("unknown participant %s", cred.Participant)
	}
	out := polcrypto.VRFEvaluate(p.Key, sortitionSeed(blk.PrevSeed, blk.Round, "propose"))
	if out != cred.Output {
		return fmt.Errorf("%s's VRF output is not its key's evaluation of the seed", cred.Participant)
	}
	if want := polcrypto.Sortition(out, p.Stake, c.totalStake, expected); want != cred.SubUsers || want == 0 {
		return fmt.Errorf("%s claims %d sub-users, sortition gives %d", cred.Participant, cred.SubUsers, want)
	}
	return nil
}

// TestProposerFallbackReusesEvaluations forces the round nobody wins at the
// nominal proposer expectation: Step widens selection over the VRF outputs
// it already has, and must elect exactly the leader a second, independent
// evaluation pass elects.
func TestProposerFallbackReusesEvaluations(t *testing.T) {
	cfg := Testnet()
	cfg.ExpectedProposers = 1e-9
	c := NewChain(cfg, 1)
	for i := 0; i < 5; i++ {
		prev := c.Head()
		blk := c.Step()
		seed := sortitionSeed(prev.Seed, blk.Round, "propose")
		if got := c.selectCredentials(c.startVRFs(seed).wait(), cfg.ExpectedProposers); len(got) != 0 {
			t.Fatalf("round %d: the fallback was not forced (%d proposers drawn)", blk.Round, len(got))
		}
		candidates := c.selectCredentials(c.startVRFs(seed).wait(), float64(len(c.participants)))
		want := candidates[0]
		for _, cand := range candidates[1:] {
			p, best := proposalPriority(cand), proposalPriority(want)
			if lessBytes(p[:], best[:]) {
				want = cand
			}
		}
		if !reflect.DeepEqual(blk.Proposer, want) {
			t.Fatalf("round %d: leader %s, two-pass result %s", blk.Round, blk.Proposer.Participant, want.Participant)
		}
		if blk.Seed != chain.Hash32(polcrypto.Hash(prev.Seed[:], want.Output[:])) {
			t.Fatalf("round %d: seed does not follow the fallback leader", blk.Round)
		}
		if err := checkLeader(c, blk, float64(len(c.participants))); err != nil {
			t.Fatalf("round %d: fallback leader's credential: %v", blk.Round, err)
		}
	}
}

// TestSmallPopulationsAlwaysElectALeader: with a handful of participants
// both the nominal and the widened proposer draw come up empty in about
// e⁻⁵ of rounds, which used to index an empty candidate list. Step then
// draws at an expectation of the whole stake, where everyone is selected;
// the leader's credential verifies there, and the rounds do not depend on
// GOMAXPROCS.
func TestSmallPopulationsAlwaysElectALeader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{1, 2, 3, 5} {
		cfg := Testnet()
		cfg.ParticipantCount = n
		var digests []chain.Hash32
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			c := NewChain(cfg, 1)
			lastResort := 0
			for i := 0; i < 2000; i++ {
				blk := c.Step()
				if blk.Proposer.SubUsers != participantOf(c, blk.Proposer.Participant).Stake {
					continue
				}
				lastResort++
				if err := checkLeader(c, blk, float64(c.totalStake)); err != nil {
					t.Fatalf("n=%d round %d: last-resort leader's credential: %v", n, blk.Round, err)
				}
			}
			if lastResort == 0 {
				t.Fatalf("n=%d: 2000 rounds never needed the last-resort draw", n)
			}
			digests = append(digests, c.Digest())
		}
		if digests[0] != digests[1] {
			t.Fatalf("n=%d: digest depends on GOMAXPROCS", n)
		}
	}
}

// TestLookaheadDroppedOnRestore: a chain that stepped past a checkpoint has
// the sortition of a round the checkpoint never reaches in flight. Restored
// onto that checkpoint, it must not use it: its rounds equal those of a
// chain that never left the checkpoint.
func TestLookaheadDroppedOnRestore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Testnet()
	ref, c := NewChain(cfg, 3), NewChain(cfg, 3)
	keyRng := chain.NewRand(3).Fork("test:keys")
	alice := chain.NewAccount(keyRng)
	for _, x := range []*Chain{ref, c} {
		x.Fund(alice.Address, 50_000_000)
		for i := 0; i < 3; i++ {
			submitGroup(t, x, Group{signedPay(alice, chain.AddressFromBytes([]byte{byte(i)}), 1_000)})
			x.Step()
		}
	}
	store := mstate.NewMemStore()
	root, err := c.CommitState(store)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := NewClient(c).MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	c.Step()
	if err := NewClient(c).Restore(store, root, blob); err != nil {
		t.Fatal(err)
	}
	head := c.Head()
	if bytes.Equal(c.nextProposers.seed, sortitionSeed(head.Seed, head.Round+1, "propose")) {
		t.Fatal("the restored chain's look-ahead already matches its head; nothing to drop")
	}
	for i := 0; i < 5; i++ {
		got, want := c.Step(), ref.Step()
		if got.Hash != want.Hash || !reflect.DeepEqual(got.Proposer, want.Proposer) {
			t.Fatalf("round %d after restore: leader %s, uninterrupted %s", got.Round, got.Proposer.Participant, want.Proposer.Participant)
		}
	}
	if c.Digest() != ref.Digest() {
		t.Fatal("digest diverged after restore")
	}
}

// TestDroppedChainLeavesNoGoroutine: the look-ahead's helper belongs to no
// chain. A chain dropped with one in flight leaves it to finish its
// evaluations and exit, and nothing is left running after that.
func TestDroppedChainLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	baseline := runtime.NumGoroutine()
	c := NewChain(Testnet(), 1)
	for i := 0; i < 3; i++ {
		c.Step()
	}
	c = nil
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after the chain was dropped, %d before it existed", runtime.NumGoroutine(), baseline)
		}
	}
}

func TestLeaderHasValidCredential(t *testing.T) {
	c := newTestChain(t)
	for i := 0; i < 10; i++ {
		blk := c.Step()
		if err := checkLeader(c, blk, c.cfg.ExpectedProposers); err != nil {
			// A fallback proposer (no one selected at the nominal
			// expected size) verifies at full expectation instead.
			if err2 := checkLeader(c, blk, float64(len(c.participants))); err2 != nil {
				t.Fatalf("round %d: leader credential invalid: %v / %v", blk.Round, err, err2)
			}
		}
	}
}

func TestRoundsAreRegular(t *testing.T) {
	c := newTestChain(t)
	var prev = c.Head().Time
	for i := 0; i < 10; i++ {
		blk := c.Step()
		if blk.Time-prev != c.cfg.RoundDuration {
			t.Fatalf("round interval %v, want %v", blk.Time-prev, c.cfg.RoundDuration)
		}
		prev = blk.Time
	}
}

func TestSimulateDoesNotMutate(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(10_000_000)
	_, appID, err := cl.createApp(alice, counterApp, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.simulate(appID, alice.Address, [][]byte{[]byte("bump")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved {
		t.Fatalf("simulation rejected: %v", res.Err)
	}
	if v, _ := c.led.GlobalGet(appID, "count"); v.Uint != 0 {
		t.Fatalf("simulation mutated state: count = %d", v.Uint)
	}
}

func TestBadProgramRejectedAtCreation(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(10_000_000)
	_, _, err := cl.createApp(alice, "byte \"unterminated", nil)
	if err == nil || !strings.Contains(err.Error(), "creation failed") {
		t.Fatalf("err = %v", err)
	}
}

// TestMalformedCreationsRevert: a creation whose source lacks an immediate
// is a reverted receipt naming avm.ErrBadProgram, and the chain steps on.
// Parse used to accept these sources and the interpreter then panicked
// inside Step.
func TestMalformedCreationsRevert(t *testing.T) {
	c := newTestChain(t)
	alice := c.NewAccount(10_000_000)
	srcs := []string{
		"int\nreturn", "byte\nreturn", "txn\nreturn", "store\nreturn", "b\nreturn",
		"gtxn 0\nreturn", "txna ApplicationArgs\nreturn", "itxn_begin\nitxn_field\nreturn",
	}
	var groups []Group
	for i, src := range append(srcs, approveAll) {
		g := signedCreate(alice, src, uint64(i))
		if _, err := c.Submit(g); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		groups = append(groups, g)
	}
	c.Step()
	for i, src := range srcs {
		rcpt, ok := c.Receipt(groups[i].Hash())
		if !ok || !rcpt.Reverted || !strings.Contains(rcpt.RevertMsg, avm.ErrBadProgram.Error()) {
			t.Fatalf("%q: included %v, receipt %+v", src, ok, rcpt)
		}
	}
	// The well-formed creation behind them runs, and the chain goes on.
	if rcpt, ok := c.Receipt(groups[len(srcs)].Hash()); !ok || rcpt.Reverted {
		t.Fatalf("well-formed creation: included %v, receipt %+v", ok, rcpt)
	}
	round := c.Head().Round
	c.Step()
	if c.Head().Round != round+1 {
		t.Fatalf("chain stopped at round %d", round)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		c := NewChain(Testnet(), 42)
		cl := NewClient(c)
		alice := c.NewAccount(50_000_000)
		var out []float64
		for i := 0; i < 5; i++ {
			to := chain.AddressFromBytes([]byte{byte(i)})
			rcpt, err := cl.pay(alice, to, 1000)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, (rcpt.Included - rcpt.Submitted).Seconds())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at tx %d", i)
		}
	}
}

func TestApproveAllSmoke(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(10_000_000)
	if _, _, err := cl.createApp(alice, approveAll, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitAndWaitLeavesTheChainsReceiptAlone: the receipt a client hands
// back carries the times the client observed — from the submit call to the
// indexed read, the latency the paper's figures plot — and the chain's own
// answer for the same hash stays what was folded into the digest: when the
// network saw the group and when the round that took it was certified.
func TestSubmitAndWaitLeavesTheChainsReceiptAlone(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(5_000_000)
	acc0, n0 := c.rcpts.Position()
	start := c.Now()
	pay := &Tx{Type: TxPay, Sender: alice.Address, Fee: MinFee, Receiver: chain.AddressFromBytes([]byte("bob")), Amount: 7}
	pay.Sign(alice)
	rcpt, err := cl.submitAndWait(Group{pay})
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Submitted != start || rcpt.Included != c.Now() || (rcpt.Included-rcpt.Submitted) != c.Now()-start {
		t.Fatalf("client receipt spans %v–%v, the client saw %v–%v", rcpt.Submitted, rcpt.Included, start, c.Now())
	}
	stored, ok := c.Receipt(Group{pay}.Hash())
	if !ok {
		t.Fatal("chain has no receipt for the confirmed group")
	}
	if stored.Included != time.Duration(stored.BlockNumber)*c.cfg.RoundDuration ||
		stored.Submitted <= start || stored.Submitted >= stored.Included || stored.Included >= rcpt.Included {
		t.Fatalf("chain receipt spans %v–%v (round %d), client %v–%v", stored.Submitted, stored.Included, stored.BlockNumber, start, rcpt.Included)
	}
	// Folding the chain's answer over the accumulator from before the
	// group must give the accumulator of now: it is what was hashed.
	var h chain.Hasher
	h.Bytes(acc0[:])
	h.Bytes(stored.TxHash[:])
	h.U64(stored.BlockNumber)
	h.U64(stored.GasUsed)
	h.U64(uint64(stored.Submitted))
	h.U64(uint64(stored.Included))
	h.U64(0) // not reverted
	h.Bytes(nil)
	h.Bytes(stored.ReturnValue)
	h.Bytes(stored.Fee.Base.Bytes())
	if acc1, n1 := c.rcpts.Position(); n1 != n0+1 || h.Sum() != acc1 || stored.Reverted {
		t.Fatal("Receipt(h) after SubmitAndWait is not the receipt the digest folded")
	}
}
