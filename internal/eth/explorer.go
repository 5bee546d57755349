package eth

import (
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"
	"time"

	"agnopol/internal/chain"
)

// Explorer support — the EtherScan view of Fig. 3.1: "this exploration
// allows everybody to look up the history of a specific wallet or contract
// address". The chain records every executed transaction; HistoryOf
// reconstructs the per-address table and FormatHistory renders it in the
// figure's newest-first layout.

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

// newTxRecord is the history row of an executed transaction; Step appends
// a block's rows to the log in canonical order.
func newTxRecord(tx *Tx, rcpt *chain.Receipt, target chain.Address, isCreate bool) TxRecord {
	rec := TxRecord{
		Hash:     rcpt.TxHash,
		Block:    rcpt.BlockNumber,
		Time:     rcpt.Included,
		From:     tx.From,
		To:       target,
		Contract: isCreate,
		Value:    new(big.Int).Set(tx.Value),
		Fee:      rcpt.Fee,
		Reverted: rcpt.Reverted,
	}
	if isCreate {
		rec.Method = "Contract Creation"
	} else if len(tx.Data) >= 4 {
		rec.Method = "0x" + hex.EncodeToString(tx.Data[:4])
	} else {
		rec.Method = "Transfer"
	}
	return rec
}

// HistoryOf returns every transaction touching an address, oldest first.
func (c *Chain) HistoryOf(addr chain.Address) []TxRecord {
	var out []TxRecord
	for _, rows := range c.history {
		for _, r := range rows {
			if r.From == addr || r.To == addr {
				out = append(out, r)
			}
		}
	}
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
