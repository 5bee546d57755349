// Package eth is a discrete-event simulator of the Ethereum-family chains
// the paper evaluates on (Ropsten, Goerli, Polygon Mumbai): EIP-1559 base
// fee dynamics, a priority-fee-ordered mempool competing with background
// traffic, 12-second proof-of-stake slots with stake-weighted proposer
// selection, contract execution through the EVM (package evm), and a client
// layer whose submit-to-confirmation latency is what the paper's figures
// plot. As in the paper, a client trusts its node provider's receipt:
// blocks carry no committee attestations.
package eth

import (
	"encoding/binary"
	"fmt"
	"math/big"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/mstate"
)

// Account is an externally-owned account with its signing key. Nonces are
// not tracked locally: clients query the chain's pending nonce, as real
// wallets do, so a rejected submission never wedges the account.
type Account = chain.Account

// Trie key derivation. Every logical state entry — a balance, a nonce, a
// code blob, one storage word — is one key in the Merkle trie, tagged by
// column family so families cannot collide.
func balKey(a chain.Address) mstate.Key   { return mstate.KeyOf("eth/bal", a[:]) }
func nonceKey(a chain.Address) mstate.Key { return mstate.KeyOf("eth/nonce", a[:]) }
func codeKey(a chain.Address) mstate.Key  { return mstate.KeyOf("eth/code", a[:]) }
func storKey(a chain.Address, k chain.Hash32) mstate.Key {
	return mstate.KeyOf("eth/stor", a[:], k[:])
}

// encodeBalance renders a balance with an explicit sign byte so that a
// negative value can never hash identically to its positive counterpart
// (the sign-blind big.Int.Bytes() bug). The invariant checks in
// AddBalance/SubBalance should make negatives unreachable; the encoding
// is sign-explicit anyway, as defense in depth for the digest.
func encodeBalance(b *big.Int) []byte {
	return appendBalance(make([]byte, 0, 1+(b.BitLen()+7)/8), b)
}

// appendBalance appends encodeBalance(b) to dst.
func appendBalance(dst []byte, b *big.Int) []byte {
	sign := byte(0)
	switch b.Sign() {
	case 1:
		sign = 1
	case -1:
		sign = 2
	}
	n := (b.BitLen() + 7) / 8
	dst = append(append(dst, sign), make([]byte, n)...)
	b.FillBytes(dst[len(dst)-n:])
	return dst
}

func decodeBalance(enc []byte) *big.Int {
	if len(enc) == 0 {
		return new(big.Int)
	}
	b := new(big.Int).SetBytes(enc[1:])
	if enc[0] == 2 {
		b.Neg(b)
	}
	return b
}

// stateKV is the key/value surface the accessor layer runs on — the
// canonical trie and the shard overlay both implement it, so the state
// semantics below exist exactly once.
type stateKV interface {
	Get(mstate.Key) ([]byte, bool)
	Put(mstate.Key, []byte)
	Delete(mstate.Key)
	Has(mstate.Key) bool
}

var (
	_ stateKV = (*mstate.Trie)(nil)
	_ stateKV = (*mstate.Overlay)(nil)
)

// stateView implements the world-state accessors (evm.StateDB plus nonce
// and code management) over any stateKV.
type stateView struct {
	kv stateKV
}

func (s *stateView) GetBalance(a chain.Address) *big.Int {
	enc, _ := s.kv.Get(balKey(a))
	return decodeBalance(enc)
}

// AddBalance credits a. A zero credit to an absent account is a no-op:
// it must not conjure a phantom account entry (which would flip
// AccountExists and enter the state root).
func (s *stateView) AddBalance(a chain.Address, v *big.Int) {
	k := balKey(a)
	enc, ok := s.kv.Get(k)
	if !ok && v.Sign() == 0 {
		return
	}
	b := decodeBalance(enc)
	b.Add(b, v)
	if b.Sign() < 0 {
		// Unreachable: no credit is negative. Admission (Chain.admit)
		// refuses a negative value or tip, so the value executeOn moves,
		// the proposer's tips and the refund of a reverted transfer are all
		// >= 0; Fund and NewAccount credit only positive amounts; the EVM
		// moves unsigned call values.
		panic(fmt.Sprintf("eth: balance of %x driven negative (%s)", a[:4], b))
	}
	s.kv.Put(k, encodeBalance(b))
}

// SubBalance debits a. Debiting an absent account is an invariant
// violation, not an implicit account creation with a negative balance.
// Both panics are unreachable, because every debit is covered before it
// happens:
//   - a transaction's sender pays its value and fee; admission
//     (Chain.admit: ErrInsufficientEth, ErrNegativeAmount) and Step's
//     selection (covered) reserve maxFee×gasLimit+value of every selected
//     transaction against the sender's balance, and a transaction never
//     costs more, since its gas price is at most maxFee and its gas at
//     most gasLimit;
//   - a reverted transfer takes back from its target exactly what the
//     target was just credited;
//   - the EVM checks a contract's balance before a CALL moves value out
//     of it.
func (s *stateView) SubBalance(a chain.Address, v *big.Int) {
	if v.Sign() == 0 {
		return
	}
	k := balKey(a)
	enc, ok := s.kv.Get(k)
	if !ok {
		panic(fmt.Sprintf("eth: debit of absent account %x", a[:4]))
	}
	b := decodeBalance(enc)
	b.Sub(b, v)
	if b.Sign() < 0 {
		panic(fmt.Sprintf("eth: balance of %x driven negative (%s)", a[:4], b))
	}
	s.kv.Put(k, encodeBalance(b))
}

func (s *stateView) GetStorage(addr chain.Address, key chain.Hash32) chain.Hash32 {
	enc, ok := s.kv.Get(storKey(addr, key))
	var v chain.Hash32
	if ok {
		copy(v[:], enc)
	}
	return v
}

func (s *stateView) SetStorage(addr chain.Address, key, value chain.Hash32) {
	k := storKey(addr, key)
	if (value == chain.Hash32{}) {
		s.kv.Delete(k)
		return
	}
	s.kv.Put(k, value[:])
}

func (s *stateView) AccountExists(a chain.Address) bool {
	return s.kv.Has(balKey(a)) || s.kv.Has(codeKey(a))
}

// Nonce implements execState.
func (s *stateView) Nonce(a chain.Address) uint64 {
	enc, ok := s.kv.Get(nonceKey(a))
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(enc)
}

// SetNonce implements execState.
func (s *stateView) SetNonce(a chain.Address, n uint64) {
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], n)
	s.kv.Put(nonceKey(a), enc[:])
}

// Code implements execState. The returned slice is state-owned; callers
// must not mutate it.
func (s *stateView) Code(a chain.Address) ([]byte, bool) {
	return s.kv.Get(codeKey(a))
}

// SetCode implements execState. The trie copies on Put, so the state
// never aliases the caller's slice — mutating `code` after SetCode must
// not change stored contract code.
func (s *stateView) SetCode(a chain.Address, code []byte) {
	s.kv.Put(codeKey(a), code)
}

// DeleteCode implements execState.
func (s *stateView) DeleteCode(a chain.Address) {
	s.kv.Delete(codeKey(a))
}

// state is the canonical world state: a Merkle trie over balances,
// nonces, contract code and storage. It implements evm.StateDB.
type state struct {
	stateView
	t *mstate.Trie
}

func newState() *state {
	t := mstate.New()
	return &state{stateView: stateView{kv: t}, t: t}
}

var _ evm.StateDB = (*state)(nil)

// Root is the Merkle root of the world state; it goes into every block
// header and anchors the chain digest.
func (s *state) Root() chain.Hash32 {
	return chain.Hash32(s.t.Root())
}
