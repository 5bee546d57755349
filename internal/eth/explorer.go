package eth

import (
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
// renders it in the figure's newest-first layout.

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

// What the explorer needs of a transaction beyond its receipt travels with
// the receipt's row as side bytes: sender, target, kind, selector and the
// value's magnitude when it is not zero.
const (
	colFrom     = 0
	colTo       = 20
	colKind     = 40
	colSelector = 41
	colValue    = 45
)

// Kinds of explorer row.
const (
	kindCall = iota
	kindCreate
	kindTransfer
)

// explorerColumnsLen is the most the columns take: a value of 32 bytes.
const explorerColumnsLen = colValue + 32

// appendExplorerColumns appends the explorer columns of tx, executed
// against target with value, to dst.
func appendExplorerColumns(dst []byte, tx *Tx, target chain.Address, value u256.Word) []byte {
	kind, selector := byte(kindTransfer), [4]byte{}
	if tx.To == nil {
		kind = kindCreate
	} else if len(tx.Data) >= 4 {
		kind, selector = kindCall, [4]byte(tx.Data)
	}
	dst = append(append(dst, tx.From[:]...), target[:]...)
	dst = append(append(dst, kind), selector[:]...)
	return value.AppendBytes(dst)
}

// HistoryOf returns every retained transaction touching an address, oldest
// first, built on request from the chain's rows.
func (c *Chain) HistoryOf(addr chain.Address) []TxRecord {
	var out []TxRecord
	c.rcpts.Each(func(cols []byte, receipt func() *chain.Receipt) {
		from, to := chain.Address(cols[colFrom:colTo]), chain.Address(cols[colTo:colKind])
		if from != addr && to != addr {
			return
		}
		rcpt := receipt()
		rec := TxRecord{
			Hash:     rcpt.TxHash,
			Method:   "Transfer",
			Block:    rcpt.BlockNumber,
			Time:     rcpt.Included,
			From:     from,
			To:       to,
			Contract: cols[colKind] == kindCreate,
			Value:    new(big.Int).SetBytes(cols[colValue:]),
			Fee:      rcpt.Fee,
			Reverted: rcpt.Reverted,
		}
		switch cols[colKind] {
		case kindCreate:
			rec.Method = "Contract Creation"
		case kindCall:
			rec.Method = "0x" + hex.EncodeToString(cols[colSelector:colValue])
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
