package eth

import (
	"math/big"
	"reflect"
	"strings"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

func TestExplorerHistory(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	bob := c.NewAccount(eth(1))

	a := evm.NewAssembler()
	a.Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := cl.deploy(alice, code, nil, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.call(bob, addr, []byte{0xde, 0xad, 0xbe, 0xef}, big.NewInt(5), 100000); err != nil {
		t.Fatal(err)
	}

	records := c.HistoryOf(addr)
	if len(records) != 2 {
		t.Fatalf("history has %d records, want 2", len(records))
	}
	if records[0].Method != "Contract Creation" || !records[0].Contract {
		t.Fatalf("first record %+v", records[0])
	}
	if records[1].Method != "0xdeadbeef" {
		t.Fatalf("second record method %q", records[1].Method)
	}
	if records[1].From != bob.Address || records[1].Value.Int64() != 5 {
		t.Fatalf("second record %+v", records[1])
	}
	if records[0].Block >= records[1].Block {
		t.Fatal("history not in chain order")
	}

	// Alice's wallet history includes the deployment.
	if got := c.HistoryOf(alice.Address); len(got) != 1 {
		t.Fatalf("alice history %d records", len(got))
	}

	out := FormatHistory(addr, records, c.cfg.Unit)
	for _, want := range []string{"Contract Creation", "0xdeadbeef", "Txn Fee", addr.String()} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted history missing %q:\n%s", want, out)
		}
	}
	// Newest first: creation appears after the call in the rendering.
	if strings.Index(out, "Contract Creation") < strings.Index(out, "0xdeadbeef") {
		t.Fatalf("history not newest-first:\n%s", out)
	}
}

func TestExplorerRecordsReverted(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	b := evm.NewAssembler()
	b.Op(evm.CALLDATASIZE).PushLabel("rev").Op(evm.JUMPI).Op(evm.STOP)
	b.Label("rev").PushUint(0).PushUint(0).Op(evm.REVERT)
	code, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := cl.deploy(alice, code, nil, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.call(alice, addr, []byte{1}, nil, 100000); err != nil {
		t.Fatal(err)
	}
	records := c.HistoryOf(addr)
	if len(records) != 2 || !records[1].Reverted {
		t.Fatalf("reverted call not recorded: %+v", records)
	}
	if !strings.Contains(FormatHistory(addr, records, c.cfg.Unit), "(reverted)") {
		t.Fatal("reverted marker missing from rendering")
	}
}

// TestExplorerHistoryPrunesWholeBlocks: with a retention window the
// explorer keeps exactly the rows of the retained blocks — in block order,
// then inclusion order — equal to the tail of an unpruned chain's history,
// across blocks with several transactions and blocks with none.
func TestExplorerHistoryPrunesWholeBlocks(t *testing.T) {
	const retention = 4
	run := func(retain int) (*Chain, *Account) {
		c := newTestChain(t)
		c.SetRetention(retain)
		alice, bob, carol := c.NewAccount(eth(1)), c.NewAccount(eth(1)), c.NewAccount(eth(1))
		nonces := map[*Account]uint64{}
		for round := 0; round < 12; round++ {
			if round%3 != 2 { // every third block stays empty
				for _, from := range []*Account{alice, carol, alice} {
					transfer(t, c, from, bob, nonces[from])
					nonces[from]++
				}
			}
			c.Step()
		}
		return c, bob
	}
	full, bob := run(0)
	pruned, _ := run(retention)
	if full.Digest() != pruned.Digest() {
		t.Fatal("retention changed the digest")
	}
	all := full.HistoryOf(bob.Address)
	if len(all) != 8*3 {
		t.Fatalf("unpruned history has %d rows, want 24", len(all))
	}
	cutoff := pruned.Head().Number - retention + 1
	var want []TxRecord
	for _, r := range all {
		if r.Block >= cutoff {
			want = append(want, r)
		}
	}
	got := pruned.HistoryOf(bob.Address)
	if len(want) == 0 || len(want) == len(all) || !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned history has %d rows, want the last %d of %d", len(got), len(want), len(all))
	}
	held := map[uint64]bool{}
	pruned.rcpts.Each(func(_ []byte, receipt func() *chain.Receipt) { held[receipt().BlockNumber] = true })
	if len(held) > retention {
		t.Fatalf("explorer holds %d blocks of rows with retention %d", len(held), retention)
	}
}

// TestExplorerRowsOfFailedDeployments: a deployment that dies on the code
// deposit never reaches the EVM and leaves no explorer row, while one
// whose constructor reverts does leave one — both in the same block.
func TestExplorerRowsOfFailedDeployments(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice, bob := c.NewAccount(eth(1)), c.NewAccount(eth(1))

	// Alice's code costs more to deposit than her gas limit leaves.
	payload := PackDeployData(make([]byte, 1000), nil)
	starved := cl.NewTx(alice, nil, nil, payload, evm.IntrinsicGas(payload, true)+1000)
	// Bob's constructor reverts.
	a := evm.NewAssembler()
	a.PushUint(0).PushUint(0).Op(evm.REVERT)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	reverting := cl.NewTx(bob, nil, nil, PackDeployData(code, nil), 200_000)
	var hashes []chain.Hash32
	for _, tx := range []*Tx{starved, reverting} {
		h, err := c.Submit(tx)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	var rcpts []*chain.Receipt
	for i := 0; i < 5 && len(rcpts) < 2; i++ {
		c.Step()
		rcpts = rcpts[:0]
		for _, h := range hashes {
			if r, ok := c.Receipt(h); ok {
				rcpts = append(rcpts, r)
			}
		}
	}
	if len(rcpts) != 2 || rcpts[0].BlockNumber != rcpts[1].BlockNumber {
		t.Fatalf("both deployments must land in one block: %+v", rcpts)
	}
	if !rcpts[0].Reverted || rcpts[0].RevertMsg != "out of gas: code deposit" || !rcpts[1].Reverted {
		t.Fatalf("receipts %+v, %+v", rcpts[0], rcpts[1])
	}

	starvedAt := chain.ContractAddress(alice.Address, starved.Nonce)
	if got := c.HistoryOf(starvedAt); len(got) != 0 {
		t.Fatalf("a deployment that died on the code deposit left rows: %+v", got)
	}
	if got := c.HistoryOf(alice.Address); len(got) != 0 {
		t.Fatalf("alice's history has %d rows, want none", len(got))
	}
	revertedAt := chain.ContractAddress(bob.Address, reverting.Nonce)
	got := c.HistoryOf(revertedAt)
	if len(got) != 1 || got[0].Method != "Contract Creation" || !got[0].Contract ||
		!got[0].Reverted || got[0].From != bob.Address || got[0].Hash != hashes[1] {
		t.Fatalf("reverted deployment's history %+v, want its one creation row", got)
	}
}
