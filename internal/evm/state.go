package evm

import (
	"agnopol/internal/chain"
	"agnopol/internal/u256"
)

// StateDB is the world-state interface the VM mutates. The Ethereum-family
// chain simulator provides the implementation; tests use MemState.
// Balances are 256-bit words, the VM's own word type.
type StateDB interface {
	GetBalance(chain.Address) u256.Word
	AddBalance(chain.Address, u256.Word)
	SubBalance(chain.Address, u256.Word)
	GetStorage(addr chain.Address, key chain.Hash32) chain.Hash32
	SetStorage(addr chain.Address, key, value chain.Hash32)
	AccountExists(chain.Address) bool
}

// MemState is an in-memory StateDB for unit tests and standalone VM use.
// Its balances wrap modulo 2^256 like any VM word; the chain's state is
// the one that refuses an overdraft.
type MemState struct {
	Balances map[chain.Address]u256.Word
	Storage  map[chain.Address]map[chain.Hash32]chain.Hash32
}

// NewMemState returns an empty state.
func NewMemState() *MemState {
	return &MemState{
		Balances: make(map[chain.Address]u256.Word),
		Storage:  make(map[chain.Address]map[chain.Hash32]chain.Hash32),
	}
}

var _ StateDB = (*MemState)(nil)

// GetBalance implements StateDB.
func (s *MemState) GetBalance(a chain.Address) u256.Word { return s.Balances[a] }

// AddBalance implements StateDB.
func (s *MemState) AddBalance(a chain.Address, v u256.Word) { s.Balances[a] = s.Balances[a].Add(v) }

// SubBalance implements StateDB.
func (s *MemState) SubBalance(a chain.Address, v u256.Word) { s.Balances[a] = s.Balances[a].Sub(v) }

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

// journal is the undo log of one execution: every reversible change
// records its inverse, and revert runs them newest first, so REVERT
// restores the pre-call world state.
type journal []func()

func (j *journal) record(undo func()) { *j = append(*j, undo) }

func (j *journal) revert() {
	for i := len(*j) - 1; i >= 0; i-- {
		(*j)[i]()
	}
	*j = nil
}

// journaledState wraps a StateDB with undo logging of balance moves for the
// duration of a transaction. Storage needs none: the interpreter's slot
// table holds every write until the execution has succeeded.
type journaledState struct {
	inner StateDB
	j     journal
}

func (s *journaledState) GetBalance(a chain.Address) u256.Word { return s.inner.GetBalance(a) }

func (s *journaledState) AddBalance(a chain.Address, v u256.Word) {
	s.inner.AddBalance(a, v)
	s.j.record(func() { s.inner.SubBalance(a, v) })
}

func (s *journaledState) SubBalance(a chain.Address, v u256.Word) {
	s.inner.SubBalance(a, v)
	s.j.record(func() { s.inner.AddBalance(a, v) })
}

func (s *journaledState) AccountExists(a chain.Address) bool { return s.inner.AccountExists(a) }
