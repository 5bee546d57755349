package chain

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"time"

	"agnopol/internal/polcrypto"
)

// Hasher builds the preimage of a chain digest: byte strings go in
// length-prefixed and integers as eight big-endian bytes, so no two field
// sequences share an encoding. Both families hash their Digest and every
// receipt fold through it.
type Hasher struct {
	buf []byte
}

// Bytes appends a length-prefixed byte string.
func (h *Hasher) Bytes(b []byte) {
	h.U64(uint64(len(b)))
	h.buf = append(h.buf, b...)
}

// U64 appends an integer.
func (h *Hasher) U64(v uint64) {
	h.buf = binary.BigEndian.AppendUint64(h.buf, v)
}

// Sum hashes everything appended so far.
func (h *Hasher) Sum() Hash32 { return Hash32(polcrypto.Hash(h.buf)) }

// Receipts holds what a chain keeps of every included item and the rolling
// hash of every receipt ever included, folded in canonical block order.
// The hash and count are what a chain's Digest reads, so the records
// themselves can be pruned without changing it. The zero value is ready to
// use.
//
// A chain hands over a block's receipts between Begin and End: Begin
// prunes the window, Add takes each receipt in canonical order, and the
// block is folded once End returns. Nothing reads the receipts in between.
//
// An included item is kept once, as one pointer-free byte record in an
// append-only log cut into chunks: its hash, a flag byte, varints for gas,
// the submit delay and a fee that fits a word, then the rare variable
// fields (the family's side bytes, a fee beyond one word, revert message,
// return value, logs), each only when present. A return value is stored
// without its leading zero bytes, which a count in front of it restores:
// an ABI word holding a small count costs four bytes, not 33. A last log
// line that is the family's return-log prefix followed by the return value
// is not stored but rebuilt from them, so an Algorand call does not keep
// its return value twice. A record's sequence number is the count of
// receipts folded before it. What is the same for every record of a block
// — its number and inclusion time — is stored once per block that has
// records (span), the currency unit and return-log prefix once per chain.
// A block's first record keeps its delay Submitted − Included, the others
// only their difference from it: items submitted together cost one byte
// for it, not five. Get and Each build a fresh Receipt from a record, so a
// caller owns what it is handed.
type Receipts struct {
	// Retention caps how many recent blocks keep their receipts; <= 0
	// retains everything.
	Retention int

	acc   Hash32
	count uint64
	pre   Hasher // include's preimage buffer, then the record's

	unit   Unit
	ret    string // the return-log prefix
	chunks []chunk
	first  uint64 // oldest retained record; the ones before it are pruned
	spans  []span
	lead   time.Duration // the delay of the newest span's first record

	// The lookup index, item hash → its newest record: an open-addressing
	// table of slots (slotOf; zero is an empty slot), probed linearly from
	// the hash's home slot. The key is the record's own hash, read back
	// through the log, so an entry is four bytes and points nowhere. The
	// table doubles before it would be more than ¾ full. Deletion closes
	// the gap it leaves instead of leaving a tombstone: a window that
	// slides forever keeps the table at the size the window needs, which a
	// built-in map under the same churn does not.
	slots   []uint32
	indexed int

	open bool       // between Begin and End
	fold *blockFold // the helper's ring; in use while folding
	// folding says the open block's receipts go to a helper goroutine.
	folding bool
}

// chunkBytes is a chunk's arena capacity, one of the allocator's size
// classes, so that no byte of it is rounding slop; a record longer than
// that gets a chunk of its own. Pruning frees whole chunks but the newest,
// so at most one chunk of records older than the window stays resident,
// and a chain that includes one item pays for one chunk.
const chunkBytes = 16 << 10

type chunk struct {
	first uint64   // sequence number of its first record
	recs  []uint32 // where each record starts in the arena, and the last ends
	arena []byte
}

// Record flags. Each of rowSide to rowLogs says a length-prefixed field is
// present in the record's tail; the fields are stored in this order.
// rowReturnTrimmed says the return value lost leading zero bytes, counted
// by a varint in front of its field.
const (
	rowReverted = 1 << iota
	rowFeeNegative
	rowSide
	rowFeeBytes
	rowRevertMsg
	rowReturn
	rowLogs
	rowReturnTrimmed
)

// span is the records of one block.
type span struct {
	first    uint64 // sequence number of the block's first record
	number   uint64
	included time.Duration
}

func appendField[T ~string | ~[]byte](b []byte, f T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(f))), f...)
}

func uvarint(b []byte) (uint64, []byte) {
	v, w := binary.Uvarint(b)
	return v, b[w:]
}

// field splits the leading length-prefixed field off a record's tail.
func field(tail []byte) (f, rest []byte) {
	n, tail := uvarint(tail)
	return tail[:n], tail[n:]
}

// record is a stored receipt's fixed fields, decoded, and its tail.
type record struct {
	flags    byte
	gas, fee uint64        // fee unless rowFeeBytes
	late     time.Duration // Submitted − Included, less its span's lead unless first
	tail     []byte
}

func decode(b []byte) (rec record) {
	rec.flags = b[len(Hash32{})]
	rec.gas, b = uvarint(b[len(Hash32{})+1:])
	late, w := binary.Varint(b)
	rec.late, b = time.Duration(late), b[w:]
	if rec.flags&rowFeeBytes == 0 {
		rec.fee, b = uvarint(b)
	}
	rec.tail = b
	return rec
}

// foldAheadMin is the fewest receipts a block must announce to Begin for
// them to be folded on a helper goroutine while the block executes, when a
// second core is there to run it. Below it, as in a block of a proof
// lifecycle, starting the helper costs more than it takes off the caller.
const foldAheadMin = 64

// The helper's ring: foldBatches batches of foldBatchLen receipts, each
// filled by Add and then handed over whole, so that the two goroutines
// meet once a batch, not once a receipt. The ring holds what Add queues
// while the helper prunes at the start of a block; it stays resident, so
// it is no larger than that.
const (
	foldBatchLen = 64
	foldBatches  = 3
)

// blockFold is the ring between Add and the helper. A batch belongs to Add
// from its receipt on free until its send on full, then to the helper
// until it is back on free.
type blockFold struct {
	batches [foldBatches]foldBatch
	cur     int      // the batch Add fills, -1 for none
	full    chan int // filled batches in order; -1 ends the block
	free    chan int
	done    chan struct{}
}

type foldBatch struct {
	n    int
	ret  string
	rows [foldBatchLen]struct {
		rc        Receipt
		fee, side []byte
	}
}

// Begin opens block head, which will include about n receipts, and prunes
// the window to end at head: the newest r.Retention blocks up to head keep
// their records (all of them with retention off).
func (r *Receipts) Begin(head uint64, n int) {
	if r.open {
		panic("chain: Receipts.Begin before the last block's End")
	}
	r.open = true
	if n < foldAheadMin || runtime.GOMAXPROCS(0) == 1 {
		r.prune(head)
		return
	}
	if r.fold == nil {
		r.fold = &blockFold{full: make(chan int, foldBatches+1), free: make(chan int, foldBatches), done: make(chan struct{})}
		for b := range foldBatches {
			r.fold.free <- b
		}
	}
	r.fold.cur, r.folding = -1, true
	go r.foldBlock(r.fold, head)
}

// foldBlock is the helper: it prunes, then includes every batch it is
// handed, in order, until End.
func (r *Receipts) foldBlock(f *blockFold, head uint64) {
	r.prune(head)
	for b := <-f.full; b >= 0; b = <-f.full {
		fb := &f.batches[b]
		for i := range fb.rows[:fb.n] {
			row := &fb.rows[i]
			r.include(&row.rc, row.fee, row.side, fb.ret)
			row.rc = Receipt{} // keeps nothing of it alive
		}
		f.free <- b
	}
	f.done <- struct{}{}
}

// Add includes a receipt of the open block: it folds it into the rolling
// hash and keeps it as a record, found again under its TxHash. fee is the
// family's encoding of the fee magnitude for the fold; side is whatever
// else the family wants back per item (Each), empty for nothing; ret is
// the family's return-log prefix, the same on every call. fee and side are
// copied. The receipt must not change until End returns, and nor must
// what it points at.
func (r *Receipts) Add(rc *Receipt, fee, side []byte, ret string) {
	if !r.folding {
		r.include(rc, fee, side, ret)
		return
	}
	f := r.fold
	if f.cur < 0 {
		f.cur = <-f.free
		f.batches[f.cur].n = 0
	}
	fb := &f.batches[f.cur]
	row := &fb.rows[fb.n]
	row.rc = *rc
	row.fee = append(row.fee[:0], fee...)
	row.side = append(row.side[:0], side...)
	fb.ret = ret
	if fb.n++; fb.n == foldBatchLen {
		f.send()
	}
}

func (f *blockFold) send() {
	f.full <- f.cur
	f.cur = -1
}

// End closes the open block once every receipt Add took is folded in.
func (r *Receipts) End() {
	r.open = false
	if !r.folding {
		return
	}
	r.folding = false
	if r.fold.cur >= 0 {
		r.fold.send()
	}
	r.fold.full <- -1
	<-r.fold.done
}

// settled panics inside an open block: its receipts may still be on their
// way in.
func (r *Receipts) settled() {
	if r.open {
		panic("chain: receipts read inside an open block")
	}
}

// include folds a receipt into the rolling hash and keeps it as a record,
// found again under its TxHash (see Add). The receipt is only read.
func (r *Receipts) include(rc *Receipt, fee, side []byte, ret string) {
	p := &r.pre
	p.buf = p.buf[:0]
	p.Bytes(r.acc[:])
	p.Bytes(rc.TxHash[:])
	p.U64(rc.BlockNumber)
	p.U64(rc.GasUsed)
	p.U64(uint64(rc.Submitted))
	p.U64(uint64(rc.Included))
	if rc.Reverted {
		p.U64(1)
	} else {
		p.U64(0)
	}
	p.U64(uint64(len(rc.RevertMsg)))
	p.buf = append(p.buf, rc.RevertMsg...)
	p.Bytes(rc.ReturnValue)
	p.Bytes(fee)
	r.acc = p.Sum()

	var flags byte
	if rc.Reverted {
		flags = rowReverted
	}
	late := rc.Submitted - rc.Included
	if n := len(r.spans); n == 0 || r.spans[n-1].number != rc.BlockNumber || r.spans[n-1].included != rc.Included {
		r.spans = append(r.spans, span{first: r.count, number: rc.BlockNumber, included: rc.Included})
		r.lead = late
	} else {
		late -= r.lead
	}
	b := append(p.buf[:0], rc.TxHash[:]...)
	b = append(b, 0) // the flags, known at the end
	b = binary.AppendUvarint(b, rc.GasUsed)
	// Wrapping is harmless: view adds the differences back modulo 2^64 too.
	b = binary.AppendVarint(b, int64(late))
	if f := rc.Fee.Base; f.IsUint64() {
		b = binary.AppendUvarint(b, f.Uint64())
	} else {
		flags |= rowFeeBytes
		if f.Sign() < 0 {
			flags |= rowFeeNegative
		}
	}
	if len(side) > 0 {
		flags |= rowSide
		b = appendField(b, side)
	}
	if flags&rowFeeBytes != 0 {
		b = appendField(b, rc.Fee.Base.Bytes())
	}
	if rc.RevertMsg != "" {
		flags |= rowRevertMsg
		b = appendField(b, rc.RevertMsg)
	}
	if v := rc.ReturnValue; len(v) > 0 {
		flags |= rowReturn
		if z := len(v) - len(bytes.TrimLeft(v, "\x00")); z > 0 {
			flags |= rowReturnTrimmed
			b = binary.AppendUvarint(b, uint64(z))
			v = v[z:]
		}
		b = appendField(b, v)
	}
	if logs := rc.Logs; len(logs) > 0 {
		flags |= rowLogs
		// The count's low bit says the last line is ret and the return
		// value, left for view to rebuild.
		n := 2 * uint64(len(logs))
		if l, v := logs[len(logs)-1], rc.ReturnValue; len(l) == len(ret)+len(v) && l[:len(ret)] == ret && l[len(ret):] == string(v) {
			logs, n = logs[:len(logs)-1], n-1
		}
		b = binary.AppendUvarint(b, n)
		for _, l := range logs {
			b = appendField(b, l)
		}
	}
	b[len(Hash32{})] = flags
	p.buf = b

	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1].recs) == cap(r.chunks[n-1].recs) ||
		len(r.chunks[n-1].arena)+len(b) > cap(r.chunks[n-1].arena) {
		// A chain's items resemble each other: the chunk before says how
		// many records fit in this one, unless it is a long record's own.
		rows := chunkBytes / 64
		if n > 0 && cap(r.chunks[n-1].arena) == chunkBytes {
			rows = len(r.chunks[n-1].recs)*chunkBytes/len(r.chunks[n-1].arena) + 1
		}
		r.chunks = append(r.chunks, chunk{
			first: r.count,
			recs:  append(slices.Grow([]uint32(nil), rows), 0),
			arena: make([]byte, 0, max(chunkBytes, len(b))),
		})
	}
	r.unit, r.ret = rc.Fee.Unit, ret
	ck := &r.chunks[len(r.chunks)-1]
	ck.arena = append(ck.arena, b...)
	ck.recs = append(ck.recs, uint32(len(ck.arena)))
	r.index(&rc.TxHash, r.count)
	r.count++
}

// slotMod bounds what an index slot keeps of a sequence number: slotOf
// stores it modulo 2^32 − 1, plus one, so that zero is free to mark an
// empty slot. That is exact because the retained records always span far
// fewer than 2^32 − 1 sequence numbers (at tens of bytes a record, that
// many would take over a hundred GiB), so seqOf can read a slot back as
// the one retained sequence number with that residue.
const slotMod = 1<<32 - 1

func slotOf(seq uint64) uint32 { return uint32(seq%slotMod) + 1 }

func (r *Receipts) seqOf(s uint32) uint64 {
	return r.first + (uint64(s)+slotMod-uint64(slotOf(r.first)))%slotMod
}

// hashAt is the item hash of the record that slot s points at.
func (r *Receipts) hashAt(s uint32) *Hash32 { return (*Hash32)(r.at(r.seqOf(s))) }

// home is where the probe for a hash starts: the top bits of a
// multiplicative hash of its first word. Item hashes are uniform already;
// the multiplication spreads the structured ones tests make up.
func (r *Receipts) home(h *Hash32) int {
	return int(binary.LittleEndian.Uint64(h[:]) * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(len(r.slots)))))
}

// find returns the slot holding the newest record of h, or the empty slot
// that ends its probe sequence.
func (r *Receipts) find(h *Hash32) int {
	i := r.home(h)
	for ; r.slots[i] != 0 && *r.hashAt(r.slots[i]) != *h; i = (i + 1) & (len(r.slots) - 1) {
	}
	return i
}

// index points the index at record seq of hash h, in place of an older
// record of the same hash.
func (r *Receipts) index(h *Hash32, seq uint64) {
	if 4*(r.indexed+1) > 3*len(r.slots) {
		old := r.slots
		r.slots = make([]uint32, max(16, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				r.slots[r.find(r.hashAt(s))] = s
			}
		}
	}
	i := r.find(h)
	if r.slots[i] == 0 {
		r.indexed++
	}
	r.slots[i] = slotOf(seq)
}

// unindex forgets record seq, unless the index has moved on to a newer
// record of the same hash, and moves the entries probing past the freed
// slot back so that every probe sequence stays unbroken.
func (r *Receipts) unindex(seq uint64) {
	i := r.find((*Hash32)(r.at(seq)))
	if r.slots[i] != slotOf(seq) {
		return
	}
	r.indexed--
	mask := len(r.slots) - 1
	for j := (i + 1) & mask; r.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home lies
		// cyclically in (i, j]: then it would land before its home.
		if k := r.home(r.hashAt(r.slots[j])); (j-k)&mask >= (j-i)&mask {
			r.slots[i], i = r.slots[j], j
		}
	}
	r.slots[i] = 0
}

// at returns the record of a retained sequence number: its chunk is the
// last one starting at or before it.
func (r *Receipts) at(seq uint64) []byte {
	ck := &r.chunks[sort.Search(len(r.chunks), func(k int) bool { return r.chunks[k].first > seq })-1]
	i := seq - ck.first
	return ck.arena[ck.recs[i]:ck.recs[i+1]]
}

// view builds the receipt of a retained record.
func (r *Receipts) view(seq uint64) *Receipt {
	b := r.at(seq)
	rec := decode(b)
	sp := r.spans[sort.Search(len(r.spans), func(i int) bool { return r.spans[i].first > seq })-1]
	if seq != sp.first {
		rec.late += decode(r.at(sp.first)).late
	}
	rc := &Receipt{
		TxHash:      Hash32(b[:len(Hash32{})]),
		BlockNumber: sp.number,
		GasUsed:     rec.gas,
		Submitted:   sp.included + rec.late,
		Included:    sp.included,
		Reverted:    rec.flags&rowReverted != 0,
	}
	f, tail := []byte(nil), rec.tail
	if rec.flags&rowSide != 0 {
		_, tail = field(tail)
	}
	fee := new(big.Int).SetUint64(rec.fee)
	if rec.flags&rowFeeBytes != 0 {
		f, tail = field(tail)
		fee.SetBytes(f)
		if rec.flags&rowFeeNegative != 0 {
			fee.Neg(fee)
		}
	}
	rc.Fee = Amount{Base: fee, Unit: r.unit}
	if rec.flags&rowRevertMsg != 0 {
		f, tail = field(tail)
		rc.RevertMsg = string(f)
	}
	if rec.flags&rowReturn != 0 {
		var z uint64
		if rec.flags&rowReturnTrimmed != 0 {
			z, tail = uvarint(tail)
		}
		f, tail = field(tail)
		rc.ReturnValue = append(make([]byte, z, int(z)+len(f)), f...)
	}
	if rec.flags&rowLogs != 0 {
		var n uint64
		n, tail = uvarint(tail)
		rc.Logs = make([]string, n/2+n%2)
		for i := range rc.Logs[:n/2] {
			f, tail = field(tail)
			rc.Logs[i] = string(f)
		}
		if n%2 != 0 {
			rc.Logs[n/2] = r.ret + string(rc.ReturnValue)
		}
	}
	return rc
}

// Get returns the receipt of an included item while it is retained. The
// receipt is built for the call: it is the caller's to keep or change.
func (r *Receipts) Get(h Hash32) (*Receipt, bool) {
	r.settled()
	if r.indexed == 0 {
		return nil, false
	}
	s := r.slots[r.find(&h)]
	if s == 0 {
		return nil, false
	}
	return r.view(r.seqOf(s)), true
}

// Each visits, oldest first, every retained record that was included with
// side bytes: side is what Add was given (valid during the call only)
// and receipt builds the record's receipt when the visitor wants it.
func (r *Receipts) Each(visit func(side []byte, receipt func() *Receipt)) {
	r.settled()
	for seq := r.first; seq < r.count; seq++ {
		if rec := decode(r.at(seq)); rec.flags&rowSide != 0 {
			side, _ := field(rec.tail)
			visit(side, func() *Receipt { return r.view(seq) })
		}
	}
}

// Position returns the rolling hash and the number of receipts folded into
// it; SetPosition restores them on a chain reopened from a checkpoint.
func (r *Receipts) Position() (acc Hash32, count uint64) {
	r.settled()
	return r.acc, r.count
}

// SetPosition restores a Position. A checkpoint carries no records, so the
// restored chain retains none of the receipts folded before it.
func (r *Receipts) SetPosition(acc Hash32, count uint64) {
	r.acc, r.count, r.first = acc, count, count
	r.chunks, r.spans, r.slots, r.indexed = nil, nil, nil, 0
}

// Digest appends the rolling hash and count to a chain digest.
func (r *Receipts) Digest(h *Hasher) {
	r.settled()
	h.Bytes(r.acc[:])
	h.U64(r.count)
}

// prune forgets the records of every block numbered head - r.Retention or
// lower, so that the newest r.Retention blocks up to head keep theirs; with
// retention off it forgets nothing. Block numbers are consecutive, so the
// window is the same whether or not its oldest blocks had records.
func (r *Receipts) prune(head uint64) {
	if r.Retention <= 0 || head < uint64(r.Retention) || r.first == r.count {
		return
	}
	last := head - uint64(r.Retention) // the newest block that loses its records
	n := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].number > last })
	cut := r.count
	if n < len(r.spans) {
		cut = r.spans[n].first
	}
	for seq := r.first; seq < cut; seq++ {
		r.unindex(seq)
	}
	r.first = cut
	for len(r.chunks) > 1 && r.chunks[1].first <= cut {
		r.chunks[0] = chunk{}
		r.chunks = r.chunks[1:]
	}
	// The outer slices shed their dead prefixes the next time append
	// reallocates them.
	r.spans = r.spans[n:]
}
