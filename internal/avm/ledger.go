package avm

import (
	"errors"

	"agnopol/internal/chain"
)

// Ledger is the application-state interface the AVM mutates. The Algorand
// chain simulator provides the implementation; MemLedger serves tests.
type Ledger interface {
	GlobalGet(app uint64, key string) (Value, bool)
	GlobalPut(app uint64, key string, v Value)
	GlobalDel(app uint64, key string)
	Balance(addr chain.Address) uint64
	// Pay moves µAlgos between accounts; the VM uses it for inner payment
	// transactions from the application account.
	Pay(from, to chain.Address, amount uint64) error
	// AppAddress is the escrow address of an application.
	AppAddress(app uint64) chain.Address
	// LatestTimestamp feeds `global LatestTimestamp`.
	LatestTimestamp() uint64
}

// ErrInsufficientBalance reports a payment the sender cannot fund.
var ErrInsufficientBalance = errors.New("avm: insufficient balance")

// MemLedger is an in-memory Ledger for unit tests.
type MemLedger struct {
	Globals   map[uint64]map[string]Value
	Balances  map[chain.Address]uint64
	Timestamp uint64
}

// NewMemLedger returns an empty ledger.
func NewMemLedger() *MemLedger {
	return &MemLedger{
		Globals:  make(map[uint64]map[string]Value),
		Balances: make(map[chain.Address]uint64),
	}
}

var _ Ledger = (*MemLedger)(nil)

// GlobalGet implements Ledger.
func (l *MemLedger) GlobalGet(app uint64, key string) (Value, bool) {
	v, ok := l.Globals[app][key]
	return v, ok
}

// GlobalPut implements Ledger.
func (l *MemLedger) GlobalPut(app uint64, key string, v Value) {
	m, ok := l.Globals[app]
	if !ok {
		m = make(map[string]Value)
		l.Globals[app] = m
	}
	m[key] = v
}

// GlobalDel implements Ledger.
func (l *MemLedger) GlobalDel(app uint64, key string) {
	delete(l.Globals[app], key)
}

// Balance implements Ledger.
func (l *MemLedger) Balance(addr chain.Address) uint64 { return l.Balances[addr] }

// Pay implements Ledger.
func (l *MemLedger) Pay(from, to chain.Address, amount uint64) error {
	if l.Balances[from] < amount {
		return ErrInsufficientBalance
	}
	l.Balances[from] -= amount
	l.Balances[to] += amount
	return nil
}

// AppAddress implements Ledger.
func (l *MemLedger) AppAddress(app uint64) chain.Address {
	return chain.AddressFromBytes([]byte{byte(app >> 56), byte(app >> 48), byte(app >> 40),
		byte(app >> 32), byte(app >> 24), byte(app >> 16), byte(app >> 8), byte(app), 'a', 'p', 'p'})
}

// LatestTimestamp implements Ledger.
func (l *MemLedger) LatestTimestamp() uint64 { return l.Timestamp }
