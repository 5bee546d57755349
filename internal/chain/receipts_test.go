package chain

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestReceiptViewRoundTrip: what include is given comes back from Get field
// for field — for both families' shapes of receipt, across chunk and block
// boundaries, whatever leading zeros a return value has — and every Get
// builds its own object. The rolling hash over the rows is pinned: how a
// row is stored may change, what include folds may not.
func TestReceiptViewRoundTrip(t *testing.T) {
	huge, _ := new(big.Int).SetString("123456789012345678901234567890", 10) // > 64 bits
	// leadingZeros is a value of width bytes whose last n are 0x5a.
	leadingZeros := func(width, n int) []byte {
		v := make([]byte, width)
		for i := width - n; i < width; i++ {
			v[i] = 0x5a
		}
		return v
	}
	families := []struct {
		name   string
		unit   Unit
		rows   []Receipt
		digest string // the rolling hash after every row, hex
	}{
		{"eth", UnitETH, []Receipt{
			{GasUsed: 21000, Fee: NewAmount(big.NewInt(42_000_000_000_000), UnitETH)},
			{GasUsed: 90000, Reverted: true, RevertMsg: "out of gas: code deposit", Fee: NewAmount(big.NewInt(7), UnitETH)},
			{GasUsed: 33782, ReturnValue: make([]byte, 32), Logs: []string{"checked in", "", strings.Repeat("x", 300)}, Fee: NewAmount(big.NewInt(1), UnitETH)},
			{GasUsed: 1_200_000, ReturnValue: []byte{0xfe}, Fee: NewAmount(huge, UnitETH)}, // a deploy
			{GasUsed: 21000, Fee: NewAmount(new(big.Int), UnitETH)},
			{GasUsed: 5, Fee: NewAmount(new(big.Int).Neg(huge), UnitETH)},
			{GasUsed: 6, Fee: NewAmount(new(big.Int).SetUint64(1<<64-1), UnitETH)},
			{GasUsed: 33782, ReturnValue: leadingZeros(32, 2), Fee: NewAmount(big.NewInt(3), UnitETH)}, // a check-in's count
			{GasUsed: 7, ReturnValue: bytes.Repeat([]byte{0x80}, 32), Fee: NewAmount(big.NewInt(3), UnitETH)},
			{GasUsed: 8, ReturnValue: leadingZeros(31, 5), Fee: NewAmount(big.NewInt(3), UnitETH)},
			{GasUsed: 9, ReturnValue: leadingZeros(33, 1), Fee: NewAmount(big.NewInt(3), UnitETH)},
			{GasUsed: 10, ReturnValue: []byte{}, Fee: NewAmount(big.NewInt(3), UnitETH)}, // comes back nil
		}, "4d99a8da0be76ede70d8f5d70adc80d8bcdb3a190f8dad099071cb4283065ff5"},
		{"algorand", UnitALGO, []Receipt{
			{GasUsed: 14, Fee: NewAmount(big.NewInt(1000), UnitALGO), Logs: []string{"bump"}},
			{GasUsed: 3, Reverted: true, RevertMsg: "algorand: call rejected: err opcode", Fee: NewAmount(big.NewInt(2000), UnitALGO)},
			{GasUsed: 40, ReturnValue: []byte{0, 0, 0, 0, 0, 0, 0, 9}, Fee: NewAmount(big.NewInt(1000), UnitALGO)}, // an app creation
			{Reverted: true, RevertMsg: "insufficient balance for fee", Fee: NewAmount(new(big.Int), UnitALGO)},
			{GasUsed: 1, Fee: NewAmount(huge, UnitALGO)},
			{GasUsed: 2, ReturnValue: make([]byte, 8), Fee: NewAmount(big.NewInt(1000), UnitALGO)}, // Itob(0)
			{GasUsed: 4, ReturnValue: []byte{0xff, 0, 0, 0, 0, 0, 0, 1}, Fee: NewAmount(big.NewInt(1000), UnitALGO)},
		}, "8a6216d810fe1e4bc21130f70f607e3ee05cc54eea2bcf3a403ad3d13248a055"},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			var r Receipts
			var want []Receipt
			// Enough rows to fill several chunks, three to a block; the
			// pinned hashes are over this many.
			for i := 0; i < 773; i++ {
				rc := fam.rows[i%len(fam.rows)]
				rc.TxHash = Hash32{byte(i), byte(i >> 8), 1}
				rc.BlockNumber = uint64(100 + i/3)
				rc.Included = time.Duration(rc.BlockNumber) * 12 * time.Second
				rc.Submitted = rc.Included - time.Duration(i%7)*time.Second
				var side []byte
				if i%2 == 0 {
					side = []byte(fmt.Sprint("side", i))
				}
				r.include(&rc, rc.Fee.Base.Bytes(), side, "")
				if len(rc.ReturnValue) == 0 {
					rc.ReturnValue = nil
				}
				want = append(want, rc)
			}
			if acc, _ := r.Position(); fmt.Sprintf("%x", acc[:]) != fam.digest {
				t.Errorf("rolling hash %x, want %s", acc[:], fam.digest)
			}
			if len(r.chunks) < 3 {
				t.Fatalf("%d rows fill %d chunks, want several", len(want), len(r.chunks))
			}
			for i := range want {
				got, ok := r.Get(want[i].TxHash)
				if !ok {
					t.Fatalf("row %d not found", i)
				}
				if !reflect.DeepEqual(*got, want[i]) {
					t.Fatalf("row %d:\n got %+v\nwant %+v", i, *got, want[i])
				}
			}
			// Two Gets share nothing a caller can write through.
			probe := want[2%len(want)].TxHash
			a, _ := r.Get(probe)
			a.Submitted, a.Included, a.RevertMsg = 1, 2, "mine"
			a.Fee.Base.SetInt64(-1)
			if len(a.ReturnValue) > 0 {
				a.ReturnValue[0] ^= 0xff
			}
			if len(a.Logs) > 0 {
				a.Logs[0] = "mine"
			}
			if b, _ := r.Get(probe); !reflect.DeepEqual(*b, want[2%len(want)]) {
				t.Fatalf("a change to one Get's receipt shows in the next:\n got %+v\nwant %+v", *b, want[2%len(want)])
			}
			// Each hands back the side bytes of exactly the rows that had any,
			// oldest first, next to the same receipts.
			next := 0
			r.Each(func(side []byte, receipt func() *Receipt) {
				if string(side) != fmt.Sprint("side", next) {
					t.Fatalf("Each visited side %q, want side%d", side, next)
				}
				if got := receipt(); !reflect.DeepEqual(*got, want[next]) {
					t.Fatalf("Each row %d:\n got %+v\nwant %+v", next, *got, want[next])
				}
				next += 2
			})
			if next != len(want)+len(want)%2 {
				t.Fatalf("Each stopped at row %d of %d", next, len(want))
			}
		})
	}
}

// testBlock is a block's number and the hashes of its items.
type testBlock struct {
	number uint64
	hashes []Hash32
}

// fillBlocks includes perBlock receipts into each of n blocks numbered on
// from the last of blocks (every fifth block stays empty) and prunes after
// each, as a chain's Step does. It returns blocks with the new ones
// appended.
func fillBlocks(r *Receipts, blocks []*testBlock, n, perBlock int) []*testBlock {
	for ; n > 0; n-- {
		b := &testBlock{number: 1}
		if len(blocks) > 0 {
			b.number = blocks[len(blocks)-1].number + 1
		}
		for i := 0; i < perBlock && b.number%5 != 0; i++ {
			rc := Receipt{
				TxHash:      Hash32{byte(b.number), byte(b.number >> 8), byte(i), byte(i >> 8)},
				BlockNumber: b.number,
				Included:    time.Duration(b.number) * time.Second,
				GasUsed:     uint64(i),
				Fee:         NewAmount(big.NewInt(int64(i)), UnitALGO),
				ReturnValue: []byte{byte(i)},
			}
			r.include(&rc, nil, nil, "")
			b.hashes = append(b.hashes, rc.TxHash)
		}
		r.prune(b.number)
		blocks = append(blocks, b)
	}
	return blocks
}

// checkWindow: the items of exactly the blocks after the first block that
// must lose its rows are found (retained == 0 means every block keeps
// them), block number and inclusion time intact; nothing older is; and the
// index and the row log hold no more than the window needs.
func checkWindow(t *testing.T, r *Receipts, blocks []*testBlock, retained int) {
	t.Helper()
	head := blocks[len(blocks)-1].number
	window := 0
	for _, b := range blocks {
		keep := retained <= 0 || b.number+uint64(retained) > head
		if keep {
			window += len(b.hashes)
		}
		for _, h := range b.hashes {
			got, ok := r.Get(h)
			if ok != keep {
				t.Fatalf("head %d, retention %d: Get of a block-%d item says %v", head, retained, b.number, ok)
			}
			if ok && (got.BlockNumber != b.number || got.Included != time.Duration(b.number)*time.Second) {
				t.Fatalf("block %d: Get returns %+v", b.number, got)
			}
		}
	}
	live := int(r.count - r.first)
	// Only the oldest chunk may hold pruned rows, and the newest chunk is
	// kept even when all of its rows are pruned.
	if r.indexed != window || live != window || len(r.chunks) > 1 && r.chunks[1].first <= r.first {
		t.Fatalf("head %d, retention %d: %d index entries, %d rows past the cut for a window of %d, a whole chunk before it resident: %v",
			head, retained, r.indexed, live, window, len(r.chunks) > 1 && r.chunks[1].first <= r.first)
	}
}

// TestReceiptsPruneWithBlocks: with a retention window exactly the retained
// blocks' receipts are found, block number and inclusion time intact;
// without one, or with one longer than the chain, everything is; the digest
// position is the same either way; and the row log holds less than a chunk
// more than the window.
func TestReceiptsPruneWithBlocks(t *testing.T) {
	const perBlock = 100 // blocks straddle chunks
	var full Receipts
	all := fillBlocks(&full, nil, 40, perBlock)
	checkWindow(t, &full, all, 0)
	pruned := Receipts{Retention: 6}
	fillBlocks(&pruned, nil, 40, perBlock)
	checkWindow(t, &pruned, all, 6)
	long := Receipts{Retention: 50}
	fillBlocks(&long, nil, 40, perBlock)
	checkWindow(t, &long, all, 0)
	for _, r := range []*Receipts{&pruned, &long} {
		if accF, nF := full.Position(); true {
			if accP, nP := r.Position(); accF != accP || nF != nP {
				t.Fatal("retention changed the digest position")
			}
		}
	}
	for _, b := range all {
		for _, h := range b.hashes {
			want, _ := full.Get(h)
			if got, ok := pruned.Get(h); ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("block %d: pruned log returns %+v, want %+v", b.number, got, want)
			}
		}
	}
	// The log keeps a span per retained block, and the index never grew
	// beyond the window's peak — seven blocks, just before a prune.
	// TestReceiptsIndexLoad pins its exact size.
	if len(pruned.spans) > 6 || len(pruned.slots) > 4*7*perBlock {
		t.Fatalf("%d spans, %d slots for 6 blocks of %d rows", len(pruned.spans), len(pruned.slots), perBlock)
	}
}

// TestReceiptsIndexLoad: a window sliding over many blocks keeps every
// retained hash findable and no pruned one, and its slot table is the
// smallest power of two that holds the window's peak — the retained blocks
// and the head, just before a prune — at no more than ¾ load. At ½ load
// the table would be twice that size.
func TestReceiptsIndexLoad(t *testing.T) {
	const retention, perBlock = 6, 100
	r := Receipts{Retention: retention}
	var blocks []*testBlock
	peak := 0
	for i := 0; i < 60; i++ {
		blocks = fillBlocks(&r, blocks, 1, perBlock)
		checkWindow(t, &r, blocks, retention)
		rows := 0
		for _, b := range blocks[max(0, len(blocks)-retention-1):] {
			rows += len(b.hashes)
		}
		peak = max(peak, rows)
	}
	want := 16
	for 4*peak > 3*want {
		want *= 2
	}
	if len(r.slots) != want {
		t.Fatalf("%d slots for a peak of %d rows, want %d", len(r.slots), peak, want)
	}
}

// TestReceiptsPruneAcrossEmptyBlocks: empty blocks count toward the window
// like any other, so a run of them longer than the window leaves no rows,
// and the log takes rows again after it.
func TestReceiptsPruneAcrossEmptyBlocks(t *testing.T) {
	r := Receipts{Retention: 3}
	blocks := fillBlocks(&r, nil, 4, 10)
	for n := blocks[len(blocks)-1].number + 1; n <= 12; n++ {
		r.prune(n)
		blocks = append(blocks, &testBlock{number: n})
		checkWindow(t, &r, blocks, 3)
	}
	if r.indexed != 0 || len(r.spans) != 0 {
		t.Fatalf("%d index entries and %d spans after a window of empty blocks", r.indexed, len(r.spans))
	}
	blocks = fillBlocks(&r, blocks, 6, 10)
	checkWindow(t, &r, blocks, 3)
}

// TestReceiptsRetentionSwitchedOn: a log that kept everything drops all
// but the window at the first prune after retention is switched on.
func TestReceiptsRetentionSwitchedOn(t *testing.T) {
	var r Receipts
	blocks := fillBlocks(&r, nil, 12, 30)
	checkWindow(t, &r, blocks, 0)
	r.Retention = 4
	blocks = fillBlocks(&r, blocks, 1, 30)
	checkWindow(t, &r, blocks, 4)
	blocks = fillBlocks(&r, blocks, 7, 30)
	checkWindow(t, &r, blocks, 4)
}

// TestReceiptsSameHashTwice: an item included again (Algorand groups carry
// no nonce, so the same bytes hash the same) is found at its newest row, and
// pruning the older block does not lose it.
func TestReceiptsSameHashTwice(t *testing.T) {
	r := Receipts{Retention: 1}
	h := Hash32{7}
	for n := uint64(1); n <= 2; n++ {
		rc := Receipt{TxHash: h, BlockNumber: n, GasUsed: n, Fee: NewAmount(big.NewInt(1000), UnitALGO)}
		r.include(&rc, nil, nil, "")
		if got, ok := r.Get(h); !ok || got.BlockNumber != n {
			t.Fatalf("after block %d Get says %v %+v", n, ok, got)
		}
		r.prune(n)
	}
	if got, ok := r.Get(h); !ok || got.BlockNumber != 2 || got.GasUsed != 2 {
		t.Fatalf("pruning block 1 lost block 2's row: %v %+v", ok, got)
	}
	if r.indexed != 1 || r.count-r.first != 1 {
		t.Fatalf("%d index entries for %d rows, want one of each", r.indexed, r.count-r.first)
	}
}

// TestReceiptsSetPositionForgetsRows: a restored position starts an empty
// log whose next row continues the restored count.
func TestReceiptsSetPositionForgetsRows(t *testing.T) {
	var r Receipts
	blocks := fillBlocks(&r, nil, 3, 10)
	acc, n := r.Position()
	var restored Receipts
	restored.SetPosition(acc, n)
	if _, ok := restored.Get(blocks[0].hashes[0]); ok {
		t.Fatal("a restored log cannot hold receipts")
	}
	restored.Each(func([]byte, func() *Receipt) { t.Fatal("a restored log has no rows to visit") })
	rc := Receipt{TxHash: Hash32{9}, BlockNumber: 9, Fee: NewAmount(big.NewInt(1), UnitETH)}
	r.include(&rc, nil, []byte{1}, "")
	restored.include(&rc, nil, []byte{1}, "")
	if a, b := r.acc, restored.acc; a != b || r.count != restored.count {
		t.Fatal("restored log folds differently")
	}
	if got, ok := restored.Get(rc.TxHash); !ok || !reflect.DeepEqual(*got, rc) {
		t.Fatalf("restored log returns %v %+v", ok, got)
	}
	visited := 0
	restored.Each(func([]byte, func() *Receipt) { visited++ })
	if visited != 1 {
		t.Fatalf("Each visited %d rows of a one-row log", visited)
	}
}

// TestReceiptsPruneAfterSetPosition: a log restored with retention on
// holds no rows, so pruning it through empty blocks is a no-op, and the
// rows it takes afterwards keep the usual window.
func TestReceiptsPruneAfterSetPosition(t *testing.T) {
	var r Receipts
	blocks := fillBlocks(&r, nil, 9, 10)
	acc, n := r.Position()
	restored := Receipts{Retention: 2}
	restored.SetPosition(acc, n)
	head := blocks[len(blocks)-1].number
	resumed := []*testBlock{{number: head}}
	for i := 0; i < 5; i++ {
		head++
		restored.prune(head)
		resumed = append(resumed, &testBlock{number: head})
	}
	checkWindow(t, &restored, resumed, 2)
	resumed = fillBlocks(&restored, resumed, 8, 10)
	checkWindow(t, &restored, resumed, 2)
	if _, count := restored.Position(); count != n+6*10 {
		t.Fatalf("restored log counts %d receipts, want %d", count, n+6*10)
	}
}

// TestReceiptsIndexAcrossUint32Wrap: an index slot keeps a sequence
// number in 32 bits, so a log restored just below 2^32 receipts, whose
// window then slides across 2^32 − 1 and 2^32, still finds every retained
// item field for field, and no pruned one.
func TestReceiptsIndexAcrossUint32Wrap(t *testing.T) {
	const retention, perBlock, blocks = 4, 50, 12
	r := Receipts{Retention: retention}
	r.SetPosition(Hash32{}, 1<<32-300)
	var all []Receipt
	for n := uint64(1); n <= blocks; n++ {
		for i := 0; i < perBlock; i++ {
			rc := Receipt{
				TxHash:      Hash32{byte(n), byte(i), 0xee},
				BlockNumber: n,
				GasUsed:     n<<40 | uint64(i),
				Submitted:   time.Duration(n)*time.Second - time.Duration(i)*time.Millisecond,
				Included:    time.Duration(n) * time.Second,
				ReturnValue: []byte{0, byte(n), byte(i)},
				Fee:         NewAmount(big.NewInt(int64(1000*i)), UnitALGO),
			}
			r.include(&rc, nil, nil, "")
			all = append(all, rc)
		}
		r.prune(n)
		for i := range all {
			got, ok := r.Get(all[i].TxHash)
			if kept := all[i].BlockNumber+retention > n; ok != kept {
				t.Fatalf("head %d: Get of a block-%d item says %v", n, all[i].BlockNumber, ok)
			}
			if ok {
				sameReceipt(t, got, &all[i])
			}
		}
	}
	if _, count := r.Position(); count != 1<<32+300 {
		t.Fatalf("the log counts %d receipts, want 2^32 + 300", count)
	}
}

// TestReceiptsRecordLongerThanChunk: a record longer than a chunk's arena
// gets a chunk of its own and comes back whole, and the chunks after it
// are sized for the short records again.
func TestReceiptsRecordLongerThanChunk(t *testing.T) {
	var r Receipts
	var want []Receipt
	for i := 0; i < 3000; i++ {
		rc := Receipt{TxHash: Hash32{byte(i), byte(i >> 8), 2}, BlockNumber: uint64(i), Fee: NewAmount(big.NewInt(1), UnitETH)}
		if i == 1000 {
			rc.ReturnValue = bytes.Repeat([]byte{0xc0}, 3*chunkBytes)
		}
		r.include(&rc, nil, nil, "")
		want = append(want, rc)
	}
	for i := range want {
		got, ok := r.Get(want[i].TxHash)
		if !ok {
			t.Fatalf("row %d not found", i)
		}
		sameReceipt(t, got, &want[i])
	}
	for k, ck := range r.chunks {
		if rows := len(ck.recs) - 1; (ck.first == 1000) != (rows == 1) {
			t.Fatalf("chunk %d of %d from row %d holds %d rows in %d bytes", k, len(r.chunks), ck.first, rows, len(ck.arena))
		}
	}
}

// TestReceiptsRebuildReturnLine: a last log line that is the return-log
// prefix followed by the return value is not stored — the record is that
// line and its length byte shorter — and Get and Each give it back whole.
// A line that is not last, or is a byte away from the return line, is
// stored as it is.
func TestReceiptsRebuildReturnLine(t *testing.T) {
	const ret = "return:"
	itob := "\x00\x00\x00\x00\x00\x00\x01\x02"
	for _, c := range []struct {
		name    string
		value   string
		logs    []string
		dropped bool
	}{
		{"return line", itob, []string{"bump", ret + itob}, true},
		{"empty value, prefix alone", "", []string{ret}, true},
		{"value of leading zeros", "\x00\x00", []string{ret + "\x00\x00"}, true},
		{"return line not last", itob, []string{ret + itob, "after"}, false},
		{"prefix alone, a value", itob, []string{ret}, false},
		{"a byte short", itob, []string{ret + itob[:7]}, false},
		{"a byte long", itob, []string{ret + itob + "\x00"}, false},
		{"prefix byte changed", itob, []string{"Return:" + itob}, false},
		{"value byte changed", itob, []string{ret + itob[:7] + "\x03"}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rc := Receipt{TxHash: Hash32{1}, BlockNumber: 1, Logs: c.logs, Fee: NewAmount(big.NewInt(1000), UnitALGO)}
			if c.value != "" {
				rc.ReturnValue = []byte(c.value)
			}
			var r, kept Receipts
			r.include(&rc, nil, []byte{1}, ret)
			kept.include(&rc, nil, []byte{1}, "no such prefix")
			saved := 0
			if c.dropped {
				saved = 1 + len(c.logs[len(c.logs)-1])
			}
			if got := len(kept.at(0)) - len(r.at(0)); got != saved {
				t.Fatalf("the record is %d B shorter than with every line stored, want %d", got, saved)
			}
			got, ok := r.Get(rc.TxHash)
			if !ok {
				t.Fatal("row not found")
			}
			if !slices.Equal(got.Logs, rc.Logs) {
				t.Fatalf("Get returns logs %q, want %q", got.Logs, rc.Logs)
			}
			sameReceipt(t, got, &rc)
			r.Each(func(_ []byte, receipt func() *Receipt) { sameReceipt(t, receipt(), &rc) })
		})
	}
}

// TestReceiptsBlockDelayKeptOnce: a block's first record keeps its submit
// delay and the others only their difference from it, so items submitted
// together store one byte for it, not five; and Get and Each give back
// each item's own submit time whatever the delays of a block are, as
// tx_delay stalls make them, even where the difference wraps.
func TestReceiptsBlockDelayKeptOnce(t *testing.T) {
	blocks := [][]time.Duration{
		{12 * time.Second, 12 * time.Second, 12 * time.Second},
		{3 * time.Second, 9 * time.Second, -time.Millisecond, 3 * time.Second},
		{7 * time.Second},
		{math.MaxInt64, math.MinInt64, 0},
	}
	var r Receipts
	var want []Receipt
	for n, delays := range blocks {
		for i, d := range delays {
			rc := Receipt{
				TxHash:      Hash32{byte(n), byte(i), 3},
				BlockNumber: uint64(n + 1),
				Included:    time.Duration(n+1) * time.Second,
				Fee:         NewAmount(big.NewInt(1000), UnitALGO),
			}
			rc.Submitted = rc.Included + d
			r.include(&rc, nil, []byte{1}, "")
			want = append(want, rc)
		}
	}
	if first, next := len(r.at(0)), len(r.at(1)); first-next != 4 {
		t.Fatalf("a record submitted with its block's first takes %d B, the first %d B; want 4 B less", next, first)
	}
	for i := range want {
		got, ok := r.Get(want[i].TxHash)
		if !ok {
			t.Fatalf("row %d not found", i)
		}
		sameReceipt(t, got, &want[i])
	}
	i := 0
	r.Each(func(_ []byte, receipt func() *Receipt) {
		sameReceipt(t, receipt(), &want[i])
		i++
	})
	if i != len(want) {
		t.Fatalf("Each visited %d of %d rows", i, len(want))
	}
}

// FuzzReceiptLog drives a log through fuzzer-chosen blocks (Begin, Add
// and End) and SetPosition calls against a model: the retained rows in
// order and the newest retained row of each hash. A row step may add up to
// 94 rows, so blocks fall on both sides of foldAheadMin and their receipts
// are folded inline or on the helper, which has a second core to run on.
// After every step Get must return the model's row field for field for
// every hash ever included, and nothing for one whose rows were all
// pruned; Each must visit exactly the retained rows with side bytes,
// oldest first; and the rolling hash must be that of a log that never
// prunes. Rows include a submit time after the inclusion time (a negative
// delay), rows of one block submitted at different times, gas of
// 2^64 − 1, and fees of 2^64 − 1 and 2^64: the widest one-word fee and
// the narrowest that is not one. A log line may be the return line
// (the log's return-log prefix and the row's return value), the prefix
// alone, or a line one byte shorter or longer than the return line or one
// byte off it, in any position.
//
// The first byte picks the retention (0 keeps everything) and the
// return-log prefix: Algorand's for an even first byte / 5, none (eth's)
// for an odd one. Each step reads an opcode and then as many bytes as it
// needs, zero once the input ends. A row step adds 1 + 3·(op >> 3) rows,
// the copies of the first differing in their hash's second byte; rows wait
// for the next block step, which seals them as one block (as does the
// input's end).
func FuzzReceiptLog(f *testing.F) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	f.Add([]byte{2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 5, 1})
	f.Add([]byte{1, 0, 3, 7, 1, 9, 32, 30, 1, 2, 2, 1, 'a', 3, 4, 5, 6, 0, 3, 7, 1, 9, 33, 1, 1, 1, 5, 1, 7})
	f.Add([]byte{0, 0, 3, 7, 1, 9, 8, 7, 9, 0, 1, 0, 7, 0, 3, 8, 0, 0, 40, 40, 0, 0, 3, 0})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 31, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1})
	f.Add([]byte{2, 0, 1, 0xff, 56, 0, 0, 0x80, 0, 0, 1, 3, 0, 1, 2, 1, 0, 0, 0, 0xff, 0, 0, 0, 4, 1, 7, 5, 1, 2, 1, 0xff, 56, 1, 1, 0xf6, 2, 0, 7, 1, 1, 3, 0})
	// A row step's bytes, in the order read: op, hash, gas, gas
	// shift, reverted, revert message, delay, width, then (if width > 0)
	// zeros and the value's bytes after them, line count, each line's kind
	// (and position, for kind 7), fee, fee kind, side count and side.
	for _, seed := range [][]byte{
		// The return line of an 8-byte value, twice in one block, the rows
		// submitted 3 ms before and 56 ms after inclusion.
		{1, 0, 1, 9, 0, 0, 0, 3, 8, 7, 42, 1, 4, 10, 0, 0,
			0, 2, 9, 0, 0, 0, 200, 8, 6, 1, 2, 1, 4, 10, 0, 0},
		// Last lines one byte away from the return line: one short, one
		// long, one with a prefix byte and one with a value byte changed.
		{1, 0, 1, 1, 0, 0, 0, 0, 3, 0, 9, 9, 9, 1, 5, 1, 0, 0,
			0, 2, 1, 0, 0, 0, 0, 3, 0, 9, 9, 9, 1, 6, 1, 0, 0,
			0, 3, 1, 0, 0, 0, 0, 3, 0, 9, 9, 9, 1, 7, 2, 1, 0, 0,
			0, 4, 1, 0, 0, 0, 0, 3, 0, 9, 9, 9, 1, 7, 9, 1, 0, 0},
		// An empty return value and a line that is the prefix alone, last
		// and then not last; a value of leading zeros only, its return
		// line not last and last.
		{1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 3, 1, 0, 0,
			0, 2, 1, 0, 0, 0, 0, 0, 2, 3, 1, 1, 0, 0,
			0, 3, 1, 0, 0, 0, 0, 4, 4, 2, 4, 4, 1, 0, 0},
		// No prefix (an eth-shaped log): a last line equal to the return
		// value, or empty with an empty value, in a block of rows submitted
		// 1 ms before, 128 ms after and 127 ms before inclusion; a prune,
		// a row in the next block, and a prune that drops the first.
		{6, 0, 1, 1, 0, 0, 0, 1, 2, 0, 0xab, 0xcd, 1, 4, 10, 0, 1, 7,
			0, 2, 1, 0, 0, 0, 0x80, 0, 1, 4, 10, 0, 0,
			0, 3, 1, 0, 0, 0, 0x7f, 1, 0, 5, 2, 4, 4, 10, 0, 0,
			5, 0,
			0, 4, 1, 0, 0, 0, 0xf0, 1, 0, 1, 1, 4, 10, 0, 0,
			5, 0},
		// Blocks of 94 (0xf8), 70 (0xb8) and 94 rows, each a full batch of
		// the helper's ring and a partial one, with side bytes and
		// retention 2, so that the third block's Begin prunes the first.
		{2, 0xf8, 1, 9, 0, 0, 0, 0, 0, 0, 3, 0, 1, 7, 5, 0,
			0xb8, 2, 9, 0, 0, 0, 0, 0, 0, 3, 0, 1, 7, 5, 0,
			0xf8, 3, 9, 0, 0, 0, 0, 0, 0, 3, 0, 1, 7, 5, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		type entry struct {
			rc   Receipt
			side []byte
		}
		first := next()
		r := Receipts{Retention: int(first % 5)}
		ret := "return:"
		if first/5%2 == 1 {
			ret = ""
		}
		var shadow Receipts // never prunes
		var rows []entry    // retained, oldest first
		newest := map[Hash32]entry{}
		var hashes []Hash32 // every hash ever included
		block := uint64(1)  // the block the next rows go into
		var pending []entry // its rows so far
		seal := func() {
			r.Begin(block, len(pending))
			shadow.Begin(block, len(pending))
			for _, e := range pending {
				r.Add(&e.rc, e.rc.Fee.Base.Bytes(), e.side, ret)
				shadow.Add(&e.rc, e.rc.Fee.Base.Bytes(), e.side, ret)
			}
			r.End()
			shadow.End()
			if r.Retention > 0 && block >= uint64(r.Retention) {
				cut := block - uint64(r.Retention)
				for len(rows) > 0 && rows[0].rc.BlockNumber <= cut {
					rows = rows[1:]
				}
				for h, e := range newest {
					if e.rc.BlockNumber <= cut {
						delete(newest, h)
					}
				}
			}
			for _, e := range pending {
				if _, ok := newest[e.rc.TxHash]; !ok {
					hashes = append(hashes, e.rc.TxHash)
				}
				rows = append(rows, e)
				newest[e.rc.TxHash] = e
			}
			pending = nil
		}
		for len(in) > 0 || len(pending) > 0 {
			op := byte(5) // the input's end seals the last rows
			if len(in) > 0 {
				op = next()
			}
			switch {
			case op%8 < 5:
				rc := Receipt{
					TxHash:      Hash32{next() % 16},
					BlockNumber: block,
					GasUsed:     uint64(next()) << (next() % 57),
					Included:    time.Duration(block) * time.Second,
					Reverted:    next()%2 == 1,
					RevertMsg:   strings.Repeat("m", int(next()%3)),
				}
				if rc.GasUsed == 0xff<<56 {
					rc.GasUsed = 1<<64 - 1 // the widest gas varint
				}
				// Up to 128 ms before inclusion, or up to 127 ms after it.
				rc.Submitted = rc.Included - time.Duration(int8(next()))*time.Millisecond
				// A value of width bytes whose first zeros bytes are zero;
				// the rest come from the input and may be zero too.
				if width := int(next() % 41); width > 0 {
					zeros := int(next()) % (width + 1)
					rc.ReturnValue = make([]byte, width)
					for i := zeros; i < width; i++ {
						rc.ReturnValue[i] = next()
					}
				}
				for n := next() % 4; n > 0; n-- {
					line := ret + string(rc.ReturnValue)
					switch k := next() % 8; k {
					case 3:
						line = ret
					case 4:
					case 5:
						line = line[:max(len(line)-1, 0)]
					case 6:
						line += "l"
					case 7:
						if i := int(next()); len(line) > 0 {
							b := []byte(line)
							b[i%len(b)]++
							line = string(b)
						}
					default:
						line = strings.Repeat("l", int(k))
					}
					rc.Logs = append(rc.Logs, line)
				}
				fee := new(big.Int).SetUint64(uint64(next()))
				switch next() % 6 {
				case 1:
					fee.Lsh(fee, 64+uint(next()%200)) // beyond one word
				case 2:
					fee.Lsh(fee, 64).Neg(fee)
				case 3:
					fee.SetUint64(1<<64 - 1)
				case 4:
					fee.Lsh(big.NewInt(1), 64)
				}
				rc.Fee = NewAmount(fee, UnitETH)
				var side []byte
				for n := next() % 4; n > 0; n-- {
					side = append(side, next())
				}
				for i := range 1 + 3*int(op>>3) {
					rc.TxHash[1] = byte(i)
					pending = append(pending, entry{rc, side})
				}
			case op%8 < 7:
				seal()
				// Empty blocks after it still move the window.
				for gap := next() % 3; gap > 0; gap-- {
					block++
					seal()
				}
				block++
			default:
				acc, n := r.Position()
				r.SetPosition(acc, n)
				shadow.SetPosition(acc, n)
				rows, newest = nil, map[Hash32]entry{}
			}

			for _, h := range hashes {
				got, ok := r.Get(h)
				want, kept := newest[h]
				if ok != kept {
					t.Fatalf("Get(%v) finds a row: %v, want %v", h, ok, kept)
				}
				if ok {
					sameReceipt(t, got, &want.rc)
				}
			}
			i := 0
			r.Each(func(side []byte, receipt func() *Receipt) {
				for i < len(rows) && len(rows[i].side) == 0 {
					i++
				}
				if i == len(rows) || !bytes.Equal(side, rows[i].side) {
					t.Fatalf("Each visits side %x, not the next retained row's", side)
				}
				sameReceipt(t, receipt(), &rows[i].rc)
				i++
			})
			for ; i < len(rows); i++ {
				if len(rows[i].side) > 0 {
					t.Fatalf("Each skipped the row of %v", rows[i].rc.TxHash)
				}
			}
			if a, b := r.acc, shadow.acc; a != b || r.count != shadow.count {
				t.Fatal("pruning changed the rolling hash")
			}
		}
	})
}

// sameReceipt fails unless got holds want's fields: amounts compare by
// value, and an empty return value or log list is nil.
func sameReceipt(t *testing.T, got, want *Receipt) {
	t.Helper()
	if got.TxHash != want.TxHash || got.BlockNumber != want.BlockNumber || got.GasUsed != want.GasUsed ||
		got.Submitted != want.Submitted || got.Included != want.Included || got.Reverted != want.Reverted ||
		got.RevertMsg != want.RevertMsg || got.Fee.Unit != want.Fee.Unit || got.Fee.Base.Cmp(want.Fee.Base) != 0 ||
		!bytes.Equal(got.ReturnValue, want.ReturnValue) || len(got.ReturnValue) != len(want.ReturnValue) ||
		(got.ReturnValue == nil) != (len(want.ReturnValue) == 0) || !slices.Equal(got.Logs, want.Logs) {
		t.Fatalf("receipt of %v:\n got %+v\nwant %+v", want.TxHash, *got, *want)
	}
}
