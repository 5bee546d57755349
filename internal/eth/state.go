// Package eth is a discrete-event simulator of the Ethereum-family chains
// the paper evaluates on (Ropsten, Goerli, Polygon Mumbai): EIP-1559 base
// fee dynamics, a priority-fee-ordered mempool competing with background
// traffic, 12-second proof-of-stake slots whose proposer a RANDAO-style
// draw picks among validators of equal stake, contract execution through the EVM (package evm), and a client
// layer whose submit-to-confirmation latency is what the paper's figures
// plot. As in the paper, a client trusts its node provider's receipt:
// blocks carry no committee attestations.
package eth

import (
	"encoding/binary"
	"fmt"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/mstate"
	"agnopol/internal/u256"
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

// encodeBalance renders a balance — and, in the receipt fold, a fee — as a
// sign byte, 1 or 0 for zero, then the minimal big-endian magnitude. The
// sign byte dates from signed balances, whose negatives it kept from
// hashing like their magnitudes (encoded 2); amounts are unsigned words
// now, and the layout stays so that no state root or digest moves.
func encodeBalance(b u256.Word) []byte {
	return appendBalance(make([]byte, 0, 1+b.ByteLen()), b)
}

// appendBalance appends encodeBalance(b) to dst.
func appendBalance(dst []byte, b u256.Word) []byte {
	sign := min(b.ByteLen(), 1) // 1, or 0 for zero
	return b.AppendBytes(append(dst, byte(sign)))
}

// decodeBalance reads the magnitude past the sign byte; an absent balance
// is zero.
func decodeBalance(enc []byte) u256.Word { return u256.SetBytes(enc[min(len(enc), 1):]) }

// stateKV is the key/value surface the accessor layer runs on — the
// canonical trie and the write-buffer overlay a view runs on
// (Client.view) both implement it, so the state semantics below exist
// exactly once.
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

func (s *stateView) GetBalance(a chain.Address) u256.Word {
	enc, _ := s.kv.Get(balKey(a))
	return decodeBalance(enc)
}

// AddBalance credits a. A zero credit to an absent account is a no-op:
// it must not conjure a phantom account entry (which would flip
// AccountExists and enter the state root). A credit past 2^256-1 panics.
// Every credit but Fund's moves wei that some balance held (a value, a
// tip, the refund of a reverted transfer), so none passes 2^256-1 while
// the wei Fund minted in total stays below it, as in every harness.
func (s *stateView) AddBalance(a chain.Address, v u256.Word) {
	k := balKey(a)
	enc, ok := s.kv.Get(k)
	if !ok && v.IsZero() {
		return
	}
	b, overflow := decodeBalance(enc).AddOverflow(v)
	if overflow {
		panic(fmt.Sprintf("eth: balance of %x passes 2^256-1", a[:4]))
	}
	s.kv.Put(k, encodeBalance(b))
}

// SubBalance debits a. Debiting an absent account is an invariant
// violation, not an implicit account creation with a negative balance.
// Both panics are unreachable, because every debit is covered before it
// happens:
//   - a transaction's sender pays its value and fee; admission
//     (Chain.admit: ErrInsufficientEth) and Step's selection (covered)
//     reserve maxFee×gasLimit+value of every selected transaction against
//     the sender's balance, and a transaction never costs more, since its
//     gas price is at most maxFee and its gas at most gasLimit;
//   - a reverted transfer takes back from its target exactly what the
//     target was just credited;
//   - the EVM checks a contract's balance before a CALL moves value out
//     of it.
func (s *stateView) SubBalance(a chain.Address, v u256.Word) {
	if v.IsZero() {
		return
	}
	k := balKey(a)
	enc, ok := s.kv.Get(k)
	if !ok {
		panic(fmt.Sprintf("eth: debit of absent account %x", a[:4]))
	}
	b := decodeBalance(enc)
	if b.Lt(v) {
		panic(fmt.Sprintf("eth: debit of %s from %x overdraws its %s", v, a[:4], b))
	}
	s.kv.Put(k, encodeBalance(b.Sub(v)))
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

func (s *stateView) Nonce(a chain.Address) uint64 {
	enc, ok := s.kv.Get(nonceKey(a))
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(enc)
}

func (s *stateView) SetNonce(a chain.Address, n uint64) {
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], n)
	s.kv.Put(nonceKey(a), enc[:])
}

// Code returns a's contract code. The returned slice is state-owned;
// callers must not mutate it.
func (s *stateView) Code(a chain.Address) ([]byte, bool) {
	return s.kv.Get(codeKey(a))
}

// SetCode stores a's contract code. The trie copies on Put, so the state
// never aliases the caller's slice — mutating `code` after SetCode must
// not change stored contract code.
func (s *stateView) SetCode(a chain.Address, code []byte) {
	s.kv.Put(codeKey(a), code)
}

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
