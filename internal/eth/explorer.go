package eth

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/u256"
)

// Explorer support — the EtherScan view of Fig. 3.1: "this exploration
// allows everybody to look up the history of a specific wallet or contract
// address". The chain keeps a row per executed transaction; HistoryOf
// builds the per-address table from the retained rows and FormatHistory
// renders it in the figure's newest-first layout. A row names its sender
// and target by their ids in the chain's address table, so the 20-byte
// addresses are kept once per address, not once per row.

// TxRecord is one row of an address's history.
type TxRecord struct {
	Hash     chain.Hash32
	Method   string // 0x-prefixed selector, or "Contract Creation"
	Block    uint64
	Time     time.Duration
	From     chain.Address
	To       chain.Address
	Contract bool // true when To is the created contract
	Value    *big.Int
	Fee      chain.Amount
	Reverted bool
}

// addrTable names every address a row has mentioned by a dense id, handed
// out in order of first inclusion. It only grows: an id stays valid for as
// long as any row may carry it.
type addrTable struct {
	addrs []chain.Address
	ids   map[chain.Address]uint32
}

// id returns the id of a, giving it the next one if it has none.
func (t *addrTable) id(a chain.Address) uint32 {
	id, ok := t.ids[a]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[chain.Address]uint32)
		}
		id = uint32(len(t.addrs))
		t.addrs = append(t.addrs, a)
		t.ids[a] = id
	}
	return id
}

// Kinds of explorer row.
const (
	kindCall = iota
	kindCreate
	kindTransfer
)

// What the explorer needs of a transaction beyond its receipt travels with
// the receipt's row as side bytes: the sender's and the target's ids as
// varints, then the kind, the selector and the value's magnitude when it
// is not zero. explorerColumnsLen is the most they take: two five-byte
// ids and a value of 32 bytes.
const explorerColumnsLen = 2*binary.MaxVarintLen32 + 1 + 4 + 32

// appendExplorerColumns appends the explorer columns of a transaction of
// the given kind and selector from the address with id from to the one
// with id to, carrying value, to dst.
func appendExplorerColumns(dst []byte, from, to uint32, kind byte, selector [4]byte, value u256.Word) []byte {
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(from)), uint64(to))
	dst = append(append(dst, kind), selector[:]...)
	return value.AppendBytes(dst)
}

// explorerIDs splits a row's columns into the sender's and the target's
// ids and the rest: kind, selector and value.
func explorerIDs(cols []byte) (from, to uint64, rest []byte) {
	from, n := binary.Uvarint(cols)
	to, m := binary.Uvarint(cols[n:])
	return from, to, cols[n+m:]
}

// explorerColumns returns the explorer columns of tx, executed against
// target with value, naming both addresses in the chain's table.
func (c *Chain) explorerColumns(dst []byte, tx *Tx, target chain.Address, value u256.Word) []byte {
	kind, selector := byte(kindTransfer), [4]byte{}
	if tx.To == nil {
		kind = kindCreate
	} else if len(tx.Data) >= 4 {
		kind, selector = kindCall, [4]byte(tx.Data)
	}
	return appendExplorerColumns(dst, c.addrs.id(tx.From), c.addrs.id(target), kind, selector, value)
}

// HistoryOf returns every retained transaction touching an address, oldest
// first, built on request from the chain's rows. An address no row ever
// named has no id and no history; otherwise rows are matched by id, and
// only a matching row's addresses are looked up.
func (c *Chain) HistoryOf(addr chain.Address) []TxRecord {
	id, ok := c.addrs.ids[addr]
	if !ok {
		return nil
	}
	var out []TxRecord
	c.rcpts.Each(func(cols []byte, receipt func() *chain.Receipt) {
		from, to, rest := explorerIDs(cols)
		if from != uint64(id) && to != uint64(id) {
			return
		}
		rcpt := receipt()
		rec := TxRecord{
			Hash:     rcpt.TxHash,
			Method:   "Transfer",
			Block:    rcpt.BlockNumber,
			Time:     rcpt.Included,
			From:     c.addrs.addrs[from],
			To:       c.addrs.addrs[to],
			Contract: rest[0] == kindCreate,
			Value:    new(big.Int).SetBytes(rest[5:]),
			Fee:      rcpt.Fee,
			Reverted: rcpt.Reverted,
		}
		switch rest[0] {
		case kindCreate:
			rec.Method = "Contract Creation"
		case kindCall:
			rec.Method = "0x" + hex.EncodeToString(rest[1:5])
		}
		out = append(out, rec)
	})
	return out
}

// FormatHistory renders the Fig. 3.1 table: newest transactions on top,
// read bottom-up from contract creation.
func FormatHistory(addr chain.Address, records []TxRecord, unit chain.Unit) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Contract %s\n", addr)
	fmt.Fprintf(&sb, "%-14s %-20s %-7s %-14s %-14s %12s %14s\n",
		"Txn Hash", "Method", "Block", "From", "To", "Value", "Txn Fee")
	for i := len(records) - 1; i >= 0; i-- {
		r := records[i]
		status := ""
		if r.Reverted {
			status = " (reverted)"
		}
		fmt.Fprintf(&sb, "%-14s %-20s %-7d %-14s %-14s %9.4g %s %.8f%s\n",
			short(r.Hash.String()), r.Method, r.Block,
			short(r.From.String()), short(r.To.String()),
			chain.NewAmount(r.Value, unit).Tokens(), unit.Name,
			r.Fee.Tokens(), status)
	}
	return sb.String()
}

func short(s string) string {
	if len(s) <= 12 {
		return s
	}
	return s[:12] + "…"
}
