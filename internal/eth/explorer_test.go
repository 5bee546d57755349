package eth

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/u256"
)

func transfer(t testing.TB, c *Chain, from, to *Account, nonce uint64) {
	t.Helper()
	tx := &Tx{From: from.Address, Nonce: nonce, To: &to.Address, Value: big.NewInt(1_000), GasLimit: 50_000,
		MaxFee: new(big.Int).Mul(c.BaseFee(), big.NewInt(3)), MaxTip: big.NewInt(2_000_000_000)}
	tx.Sign(from)
	if _, err := c.Submit(tx); err != nil {
		t.Fatalf("submit nonce %d: %v", nonce, err)
	}
}

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
	// The address table, which is not pruned, holds each sender and
	// target once: it grows with the accounts, not with the blocks.
	if n := len(pruned.addrs.addrs); n != 3 {
		t.Fatalf("the address table holds %d addresses, want alice, carol and bob", n)
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

// TestExplorerIDWidths: an id takes one byte up to 127, two up to 16 383
// and three from 16 384, and every width reads back with the columns
// behind it intact, as sender and as target.
func TestExplorerIDWidths(t *testing.T) {
	value := u256.FromUint64(0x0102)
	for _, tc := range []struct {
		from, to uint32
		idBytes  int // both ids' varints
	}{
		{0, 127, 2}, {127, 128, 3}, {128, 127, 3}, {16_383, 16_384, 5}, {16_384, 16_383, 5}, {math.MaxUint32, 0, 6},
	} {
		cols := appendExplorerColumns(nil, tc.from, tc.to, kindCall, [4]byte{0xde, 0xad, 0xbe, 0xef}, value)
		if want := tc.idBytes + 1 + 4 + 2; len(cols) != want {
			t.Fatalf("ids %d, %d take %d bytes of columns, want %d", tc.from, tc.to, len(cols), want)
		}
		from, to, rest := explorerIDs(cols)
		if from != uint64(tc.from) || to != uint64(tc.to) || string(rest) != "\x00\xde\xad\xbe\xef\x01\x02" {
			t.Fatalf("ids %d, %d read back as %d, %d with rest %x", tc.from, tc.to, from, to, rest)
		}
	}
}

// TestHistoryMatchesModel drives a seeded mix of transactions from 160
// senders under a retention window: transfers (some of no value to
// addresses nothing else names), calls that succeed and calls that
// revert, creations that succeed, creations whose constructor reverts and
// deployments that die on the code deposit. After every block, the
// history of every address the mix touched must equal a model built from
// the submitted transactions and the receipts the chain retains, and an
// address nothing touched has none. More than 128 addresses get ids, so
// retained rows carry one- and two-byte ids.
func TestHistoryMatchesModel(t *testing.T) {
	const senders, blocks, perBlock, retention = 160, 24, 24, 6
	c := newTestChain(t)
	c.SetRetention(retention)
	cl := NewClient(c)
	rng := chain.NewRand(29)
	users := make([]*Account, senders)
	for i := range users {
		users[i] = c.NewAccount(eth(1))
	}
	okAt := chain.AddressFromBytes([]byte("model-ok"))
	revertAt := chain.AddressFromBytes([]byte("model-revert"))
	// A check-in: the caller's counter, bumped and returned as one word.
	a := evm.NewAssembler()
	a.Op(evm.CALLER).Op(evm.SLOAD).PushUint(1).Op(evm.ADD)
	a.Op(evm.DUP1).Op(evm.CALLER).Op(evm.SSTORE)
	a.PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.RETURN)
	okCode, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	a = evm.NewAssembler()
	a.PushUint(0).PushUint(0).Op(evm.REVERT)
	revertCode, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	c.st.SetCode(okAt, okCode)
	c.st.SetCode(revertAt, revertCode)

	submitted := map[chain.Hash32]*Tx{}
	starved := map[chain.Hash32]bool{}
	touched := map[chain.Address]bool{}
	shapes := map[string]bool{} // what kinds of row the model has held
	var sealed []*Block
	for b := 0; b < blocks+8; b++ {
		for i := 0; b < blocks && i < perBlock; i++ {
			from := users[rng.Uint64n(senders)]
			var to *chain.Address
			var data []byte
			var gas uint64 = 200_000
			value := big.NewInt(int64(rng.Uint64n(3)) * 1_000)
			switch rng.Uint64n(7) {
			case 0: // a transfer to another user
				to = &users[rng.Uint64n(senders)].Address
			case 1: // a transfer, often of nothing, to an address nothing else names
				fresh := chain.AddressFromBytes([]byte{'f', byte(b), byte(i)})
				to = &fresh
			case 2: // a call that succeeds
				to, data = &okAt, []byte{1, 2, 3, 4, byte(i)}
			case 3: // a call that reverts
				to, data = &revertAt, []byte{9, 8, 7, byte(b)}
			case 4: // a call with no full selector
				to, data = &okAt, []byte{1}
			case 5: // a creation, whose constructor reverts about half the time
				code := okCode
				if rng.Uint64n(2) == 0 {
					code = revertCode
				}
				data = PackDeployData(code, nil)
			case 6: // a deployment that cannot pay its code deposit
				data = PackDeployData(make([]byte, 1000), nil)
				gas = evm.IntrinsicGas(data, true) + 1000
			}
			tx := cl.NewTx(from, to, value, data, gas)
			h, err := c.Submit(tx)
			if err != nil {
				t.Fatalf("block %d tx %d: %v", b, i, err)
			}
			submitted[h] = tx
			if gas < 200_000 {
				starved[h] = true
				continue
			}
			touched[tx.From] = true
			touched[explorerTarget(tx)] = true
		}
		sealed = append(sealed, c.Step())

		model := map[chain.Address][]TxRecord{}
		for _, blk := range sealed {
			for _, h := range blk.TxHashes {
				rcpt, ok := c.Receipt(h)
				if !ok {
					shapes["pruned"] = true
					continue
				}
				if starved[h] {
					if rcpt.RevertMsg != "out of gas: code deposit" {
						t.Fatalf("starved deployment %s: %+v", h, rcpt)
					}
					continue
				}
				row := modelRow(submitted[h], rcpt)
				shapes[fmt.Sprintf("%.8s reverted=%v", row.Method, row.Reverted)] = true
				model[row.From] = append(model[row.From], row)
				if row.To != row.From {
					model[row.To] = append(model[row.To], row)
				}
			}
		}
		for addr := range touched {
			if got := c.HistoryOf(addr); !sameHistory(got, model[addr]) {
				t.Fatalf("after block %d, %s has history\n%+v\nwant\n%+v", len(sealed), addr, got, model[addr])
			}
		}
		if got := c.HistoryOf(chain.AddressFromBytes([]byte("untouched"))); got != nil {
			t.Fatalf("an address nothing touched has history %+v", got)
		}
		if b == blocks-1 {
			// Ids up to 127 take one byte, from 128 on two: the retained
			// rows carry senders of both widths.
			widths := map[int]bool{}
			c.rcpts.Each(func(cols []byte, _ func() *chain.Receipt) {
				_, n := binary.Uvarint(cols)
				widths[n] = true
			})
			if !widths[1] || !widths[2] {
				t.Fatalf("retained rows carry sender ids of widths %v, want 1 and 2", widths)
			}
		}
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d transactions never included", c.PendingCount())
	}
	if len(c.addrs.addrs) != len(touched) {
		t.Fatalf("address table holds %d addresses, the mix touched %d", len(c.addrs.addrs), len(touched))
	}
	for _, shape := range []string{"pruned", "Transfer reverted=false", "0x010203 reverted=false",
		"0x090807 reverted=true", "Contract reverted=false", "Contract reverted=true"} {
		if !shapes[shape] {
			t.Errorf("the mix never produced a row of shape %q: %v", shape, shapes)
		}
	}
}

// explorerTarget is the address a transaction's row names as its target.
func explorerTarget(tx *Tx) chain.Address {
	if tx.To == nil {
		return chain.ContractAddress(tx.From, tx.Nonce)
	}
	return *tx.To
}

// modelRow is the explorer row of a submitted transaction and its receipt.
func modelRow(tx *Tx, rcpt *chain.Receipt) TxRecord {
	row := TxRecord{
		Hash:     rcpt.TxHash,
		Method:   "Transfer",
		Block:    rcpt.BlockNumber,
		Time:     rcpt.Included,
		From:     tx.From,
		To:       explorerTarget(tx),
		Contract: tx.To == nil,
		Value:    tx.Value,
		Fee:      rcpt.Fee,
		Reverted: rcpt.Reverted,
	}
	if tx.To == nil {
		row.Method = "Contract Creation"
	} else if len(tx.Data) >= 4 {
		row.Method = "0x" + hex.EncodeToString(tx.Data[:4])
	}
	return row
}

// sameHistory compares two histories field by field, amounts by value.
func sameHistory(got, want []TxRecord) bool {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.Hash != w.Hash || g.Method != w.Method || g.Block != w.Block || g.Time != w.Time ||
			g.From != w.From || g.To != w.To || g.Contract != w.Contract || g.Reverted != w.Reverted ||
			g.Value.Cmp(w.Value) != 0 || g.Fee.Base.Cmp(w.Fee.Base) != 0 || g.Fee.Unit != w.Fee.Unit {
			return false
		}
	}
	return true
}
