package evm

import (
	"math/big"

	"agnopol/internal/chain"
)

// StateDB is the world-state interface the VM mutates. The Ethereum-family
// chain simulator provides the implementation; tests use MemState.
type StateDB interface {
	GetBalance(chain.Address) *big.Int
	AddBalance(chain.Address, *big.Int)
	SubBalance(chain.Address, *big.Int)
	GetStorage(addr chain.Address, key chain.Hash32) chain.Hash32
	SetStorage(addr chain.Address, key, value chain.Hash32)
	AccountExists(chain.Address) bool
}

// MemState is an in-memory StateDB for unit tests and standalone VM use.
type MemState struct {
	Balances map[chain.Address]*big.Int
	Storage  map[chain.Address]map[chain.Hash32]chain.Hash32
}

// NewMemState returns an empty state.
func NewMemState() *MemState {
	return &MemState{
		Balances: make(map[chain.Address]*big.Int),
		Storage:  make(map[chain.Address]map[chain.Hash32]chain.Hash32),
	}
}

var _ StateDB = (*MemState)(nil)

// GetBalance implements StateDB.
func (s *MemState) GetBalance(a chain.Address) *big.Int {
	if b, ok := s.Balances[a]; ok {
		return new(big.Int).Set(b)
	}
	return new(big.Int)
}

// AddBalance implements StateDB.
func (s *MemState) AddBalance(a chain.Address, v *big.Int) {
	b, ok := s.Balances[a]
	if !ok {
		b = new(big.Int)
		s.Balances[a] = b
	}
	b.Add(b, v)
}

// SubBalance implements StateDB.
func (s *MemState) SubBalance(a chain.Address, v *big.Int) {
	b, ok := s.Balances[a]
	if !ok {
		b = new(big.Int)
		s.Balances[a] = b
	}
	b.Sub(b, v)
}

// GetStorage implements StateDB.
func (s *MemState) GetStorage(addr chain.Address, key chain.Hash32) chain.Hash32 {
	if m, ok := s.Storage[addr]; ok {
		return m[key]
	}
	return chain.Hash32{}
}

// SetStorage implements StateDB.
func (s *MemState) SetStorage(addr chain.Address, key, value chain.Hash32) {
	m, ok := s.Storage[addr]
	if !ok {
		m = make(map[chain.Hash32]chain.Hash32)
		s.Storage[addr] = m
	}
	if (value == chain.Hash32{}) {
		delete(m, key)
		return
	}
	m[key] = value
}

// AccountExists implements StateDB.
func (s *MemState) AccountExists(a chain.Address) bool {
	_, ok := s.Balances[a]
	return ok
}

// journalEntry records a reversible state change so REVERT restores the
// pre-call world state.
type journalEntry struct {
	undo func()
}

// journal collects changes applied during one execution frame.
type journal struct {
	entries []journalEntry
}

func (j *journal) record(undo func()) {
	j.entries = append(j.entries, journalEntry{undo: undo})
}

func (j *journal) revert() {
	for i := len(j.entries) - 1; i >= 0; i-- {
		j.entries[i].undo()
	}
	j.entries = nil
}

// journaledState wraps a StateDB with undo logging of balance moves for the
// duration of a transaction. Storage needs none: the interpreter's slot
// table holds every write until the execution has succeeded.
type journaledState struct {
	inner StateDB
	j     journal
}

func (s *journaledState) GetBalance(a chain.Address) *big.Int { return s.inner.GetBalance(a) }

func (s *journaledState) AddBalance(a chain.Address, v *big.Int) {
	amount := new(big.Int).Set(v)
	s.inner.AddBalance(a, amount)
	s.j.record(func() { s.inner.SubBalance(a, amount) })
}

func (s *journaledState) SubBalance(a chain.Address, v *big.Int) {
	amount := new(big.Int).Set(v)
	s.inner.SubBalance(a, amount)
	s.j.record(func() { s.inner.AddBalance(a, amount) })
}

func (s *journaledState) AccountExists(a chain.Address) bool { return s.inner.AccountExists(a) }
