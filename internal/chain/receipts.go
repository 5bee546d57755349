package chain

import (
	"encoding/binary"

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

// Receipts holds a chain's receipts and the rolling hash of every receipt
// ever included, folded in canonical block order. The hash and count are
// what a chain's Digest reads, so the receipts themselves can be pruned
// (PruneBlocks) without changing it. The zero value is ready to use.
type Receipts struct {
	// Retention caps how many recent blocks keep their receipts; <= 0
	// retains everything.
	Retention int

	acc    Hash32
	count  uint64
	byHash map[Hash32]*Receipt
}

// Include stores a receipt under its TxHash and folds it into the rolling
// hash. fee is the family's encoding of the fee magnitude.
func (r *Receipts) Include(rc *Receipt, fee []byte) {
	if r.byHash == nil {
		r.byHash = make(map[Hash32]*Receipt)
	}
	r.byHash[rc.TxHash] = rc
	var p Hasher
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
	p.Bytes([]byte(rc.RevertMsg))
	p.Bytes(rc.ReturnValue)
	p.Bytes(fee)
	r.acc = p.Sum()
	r.count++
}

// Get returns the receipt of an included item while it is retained.
func (r *Receipts) Get(h Hash32) (*Receipt, bool) {
	rc, ok := r.byHash[h]
	return rc, ok
}

// Position returns the rolling hash and the number of receipts folded into
// it; SetPosition restores them on a chain reopened from a checkpoint.
func (r *Receipts) Position() (acc Hash32, count uint64) { return r.acc, r.count }

// SetPosition restores a Position.
func (r *Receipts) SetPosition(acc Hash32, count uint64) { r.acc, r.count = acc, count }

// Digest appends the rolling hash and count to a chain digest.
func (r *Receipts) Digest(h *Hasher) {
	h.Bytes(r.acc[:])
	h.U64(r.count)
}

// PruneBlocks returns the newest r.Retention of blocks (all of them when
// retention is off) and forgets the receipts of the ones it drops;
// hashes names a block's included items.
func PruneBlocks[B any](r *Receipts, blocks []B, hashes func(B) []Hash32) []B {
	if r.Retention <= 0 || len(blocks) <= r.Retention {
		return blocks
	}
	drop := len(blocks) - r.Retention
	for _, b := range blocks[:drop] {
		for _, h := range hashes(b) {
			delete(r.byHash, h)
		}
	}
	return append([]B(nil), blocks[drop:]...)
}
