package chain

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/bits"
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
// The hash and count are what a chain's Digest reads, so the rows
// themselves can be pruned (Prune) without changing it. The zero
// value is ready to use.
//
// An included item is kept once, as a pointer-free row of an append-only
// log cut into chunks of rowsPerChunk: the fixed-width fields in the row,
// the rare variable ones (revert message, return value, logs, a fee beyond
// one word, the family's side bytes) in the chunk's byte arena. A return
// value is stored without its leading zero bytes, which a count in front of
// it restores: an ABI word holding a small count costs four arena bytes,
// not 33. A row's sequence number is the count of receipts folded before
// it. What is the same for every row of a block — its number and inclusion
// time — is stored once per block that has rows (span), the currency unit
// once per chain. Get and Each build a fresh Receipt from a row, so a
// caller owns what it is handed.
type Receipts struct {
	// Retention caps how many recent blocks keep their receipts; <= 0
	// retains everything.
	Retention int

	acc   Hash32
	count uint64
	pre   Hasher // Include's preimage buffer

	unit   Unit
	chunks []chunk // chunks[k] starts at sequence number base + k*rowsPerChunk
	base   uint64
	first  uint64 // oldest retained row; the ones before it are pruned
	spans  []span

	// The lookup index, item hash → its newest row: an open-addressing
	// table of sequence numbers plus one (zero is an empty slot), probed
	// linearly from the hash's home slot. The key is the row's own hash,
	// read back through the log, so an entry is one word and points
	// nowhere. The table doubles before it would be more than ¾ full.
	// Deletion closes the gap it leaves instead of leaving a tombstone: a
	// window that slides forever keeps the table at the size the window
	// needs, which a built-in map under the same churn does not.
	slots   []uint64
	indexed int
}

// rowsPerChunk sizes a chunk (16 KiB of rows). Pruning frees whole chunks,
// so less than one chunk of rows older than the window stays resident, and
// a chain that includes one item pays for one chunk.
const rowsPerChunk = 256

type chunk struct {
	rows  []row
	arena []byte
}

type row struct {
	hash      Hash32
	gas       uint64
	submitted time.Duration
	fee       uint64 // the magnitude, unless rowFeeBytes
	tail      uint32 // where the row's variable fields start in the arena
	flags     uint8
}

// Row flags. Each of rowSide to rowLogs says a length-prefixed field is
// present in the row's tail; the fields are stored in this order.
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

// span is the rows of one block.
type span struct {
	first    uint64 // sequence number of the block's first row
	number   uint64
	included time.Duration
}

func appendField[T ~string | ~[]byte](arena []byte, f T) []byte {
	return append(binary.AppendUvarint(arena, uint64(len(f))), f...)
}

// field splits the leading length-prefixed field off a row's tail.
func field(tail []byte) (f, rest []byte) {
	n, w := binary.Uvarint(tail)
	return tail[w : w+int(n)], tail[w+int(n):]
}

// Include folds a receipt into the rolling hash and keeps it as a row,
// found again under its TxHash. fee is the family's encoding of the fee
// magnitude for the fold; side is whatever else the family wants back per
// item (Each), empty for nothing. The receipt is only read.
func (r *Receipts) Include(rc *Receipt, fee, side []byte) {
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

	if n := len(r.chunks); n == 0 {
		r.base, r.first = r.count, r.count
		r.chunks = append(r.chunks, chunk{rows: make([]row, 0, rowsPerChunk)})
	} else if last := &r.chunks[n-1]; len(last.rows) == rowsPerChunk {
		// A chain's items resemble each other: the chunk just filled says
		// how big an arena the next one needs.
		r.chunks = append(r.chunks, chunk{
			rows:  make([]row, 0, rowsPerChunk),
			arena: make([]byte, 0, len(last.arena)),
		})
	}
	if n := len(r.spans); n == 0 || r.spans[n-1].number != rc.BlockNumber || r.spans[n-1].included != rc.Included {
		r.spans = append(r.spans, span{first: r.count, number: rc.BlockNumber, included: rc.Included})
	}
	r.unit = rc.Fee.Unit
	ck := &r.chunks[len(r.chunks)-1]
	rw := row{hash: rc.TxHash, gas: rc.GasUsed, submitted: rc.Submitted, tail: uint32(len(ck.arena))}
	if rc.Reverted {
		rw.flags |= rowReverted
	}
	if len(side) > 0 {
		rw.flags |= rowSide
		ck.arena = appendField(ck.arena, side)
	}
	if b := rc.Fee.Base; b.IsUint64() {
		rw.fee = b.Uint64()
	} else {
		rw.flags |= rowFeeBytes
		if b.Sign() < 0 {
			rw.flags |= rowFeeNegative
		}
		ck.arena = appendField(ck.arena, b.Bytes())
	}
	if rc.RevertMsg != "" {
		rw.flags |= rowRevertMsg
		ck.arena = appendField(ck.arena, rc.RevertMsg)
	}
	if v := rc.ReturnValue; len(v) > 0 {
		rw.flags |= rowReturn
		if z := len(v) - len(bytes.TrimLeft(v, "\x00")); z > 0 {
			rw.flags |= rowReturnTrimmed
			ck.arena = binary.AppendUvarint(ck.arena, uint64(z))
			v = v[z:]
		}
		ck.arena = appendField(ck.arena, v)
	}
	if len(rc.Logs) > 0 {
		rw.flags |= rowLogs
		ck.arena = binary.AppendUvarint(ck.arena, uint64(len(rc.Logs)))
		for _, l := range rc.Logs {
			ck.arena = appendField(ck.arena, l)
		}
	}
	ck.rows = append(ck.rows, rw)
	r.indexRow(r.count)
	r.count++
}

// home is where the probe for a hash starts: the top bits of a
// multiplicative hash of its first word. Item hashes are uniform already;
// the multiplication spreads the structured ones tests make up.
func (r *Receipts) home(h *Hash32) int {
	return int(binary.LittleEndian.Uint64(h[:]) * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(len(r.slots)))))
}

// find returns the slot holding the newest row of h, or the empty slot
// that ends its probe sequence.
func (r *Receipts) find(h *Hash32) int {
	i := r.home(h)
	for ; r.slots[i] != 0; i = (i + 1) & (len(r.slots) - 1) {
		if rw, _ := r.at(r.slots[i] - 1); rw.hash == *h {
			break
		}
	}
	return i
}

// indexRow points the index at row seq, in place of an older row of the
// same hash.
func (r *Receipts) indexRow(seq uint64) {
	if 4*(r.indexed+1) > 3*len(r.slots) {
		old := r.slots
		r.slots = make([]uint64, max(16, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				rw, _ := r.at(s - 1)
				r.slots[r.find(&rw.hash)] = s
			}
		}
	}
	rw, _ := r.at(seq)
	i := r.find(&rw.hash)
	if r.slots[i] == 0 {
		r.indexed++
	}
	r.slots[i] = seq + 1
}

// unindexRow forgets row seq, unless the index has moved on to a newer row
// of the same hash, and moves the entries probing past the freed slot back
// so that every probe sequence stays unbroken.
func (r *Receipts) unindexRow(seq uint64) {
	rw, _ := r.at(seq)
	i := r.find(&rw.hash)
	if r.slots[i] != seq+1 {
		return
	}
	r.indexed--
	mask := len(r.slots) - 1
	for j := (i + 1) & mask; r.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home lies
		// cyclically in (i, j]: then it would land before its home.
		moved, _ := r.at(r.slots[j] - 1)
		if k := r.home(&moved.hash); (j-k)&mask >= (j-i)&mask {
			r.slots[i], i = r.slots[j], j
		}
	}
	r.slots[i] = 0
}

// at locates a retained row and its tail.
func (r *Receipts) at(seq uint64) (*row, []byte) {
	ck := &r.chunks[(seq-r.base)/rowsPerChunk]
	i := int((seq - r.base) % rowsPerChunk)
	end := len(ck.arena)
	if i+1 < len(ck.rows) {
		end = int(ck.rows[i+1].tail)
	}
	return &ck.rows[i], ck.arena[ck.rows[i].tail:end]
}

// view builds the receipt of a retained row.
func (r *Receipts) view(seq uint64) *Receipt {
	rw, tail := r.at(seq)
	sp := r.spans[sort.Search(len(r.spans), func(i int) bool { return r.spans[i].first > seq })-1]
	rc := &Receipt{
		TxHash:      rw.hash,
		BlockNumber: sp.number,
		GasUsed:     rw.gas,
		Submitted:   rw.submitted,
		Included:    sp.included,
		Reverted:    rw.flags&rowReverted != 0,
	}
	var f []byte
	if rw.flags&rowSide != 0 {
		_, tail = field(tail)
	}
	fee := new(big.Int).SetUint64(rw.fee)
	if rw.flags&rowFeeBytes != 0 {
		f, tail = field(tail)
		fee.SetBytes(f)
		if rw.flags&rowFeeNegative != 0 {
			fee.Neg(fee)
		}
	}
	rc.Fee = Amount{Base: fee, Unit: r.unit}
	if rw.flags&rowRevertMsg != 0 {
		f, tail = field(tail)
		rc.RevertMsg = string(f)
	}
	if rw.flags&rowReturn != 0 {
		var z uint64
		if rw.flags&rowReturnTrimmed != 0 {
			var w int
			z, w = binary.Uvarint(tail)
			tail = tail[w:]
		}
		f, tail = field(tail)
		rc.ReturnValue = append(make([]byte, z, int(z)+len(f)), f...)
	}
	if rw.flags&rowLogs != 0 {
		n, w := binary.Uvarint(tail)
		tail = tail[w:]
		rc.Logs = make([]string, n)
		for i := range rc.Logs {
			f, tail = field(tail)
			rc.Logs[i] = string(f)
		}
	}
	return rc
}

// Get returns the receipt of an included item while it is retained. The
// receipt is built for the call: it is the caller's to keep or change.
func (r *Receipts) Get(h Hash32) (*Receipt, bool) {
	if r.indexed == 0 {
		return nil, false
	}
	s := r.slots[r.find(&h)]
	if s == 0 {
		return nil, false
	}
	return r.view(s - 1), true
}

// Each visits, oldest first, every retained row that was included with
// side bytes: side is what Include was given (valid during the call only)
// and receipt builds the row's receipt when the visitor wants it.
func (r *Receipts) Each(visit func(side []byte, receipt func() *Receipt)) {
	if len(r.chunks) == 0 {
		return
	}
	for seq := r.first; seq < r.count; seq++ {
		if rw, tail := r.at(seq); rw.flags&rowSide != 0 {
			side, _ := field(tail)
			visit(side, func() *Receipt { return r.view(seq) })
		}
	}
}

// Position returns the rolling hash and the number of receipts folded into
// it; SetPosition restores them on a chain reopened from a checkpoint.
func (r *Receipts) Position() (acc Hash32, count uint64) { return r.acc, r.count }

// SetPosition restores a Position. A checkpoint carries no rows, so the
// restored chain retains none of the receipts folded before it.
func (r *Receipts) SetPosition(acc Hash32, count uint64) {
	r.acc, r.count = acc, count
	r.chunks, r.spans, r.slots, r.indexed = nil, nil, nil, 0
}

// Digest appends the rolling hash and count to a chain digest.
func (r *Receipts) Digest(h *Hasher) {
	h.Bytes(r.acc[:])
	h.U64(r.count)
}

// Prune forgets the rows of every block numbered head - r.Retention or
// lower, so that the newest r.Retention blocks up to head keep theirs; with
// retention off it forgets nothing. Block numbers are consecutive, so the
// window is the same whether or not its oldest blocks had rows.
func (r *Receipts) Prune(head uint64) {
	if r.Retention <= 0 || head < uint64(r.Retention) || len(r.chunks) == 0 {
		return
	}
	last := head - uint64(r.Retention) // the newest block that loses its rows
	n := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].number > last })
	cut := r.count
	if n < len(r.spans) {
		cut = r.spans[n].first
	}
	for seq := r.first; seq < cut; seq++ {
		r.unindexRow(seq)
	}
	r.first = cut
	for r.first-r.base >= rowsPerChunk {
		r.chunks[0] = chunk{}
		r.chunks = r.chunks[1:]
		r.base += rowsPerChunk
	}
	// The outer slices shed their dead prefixes the next time append
	// reallocates them.
	r.spans = r.spans[n:]
}
