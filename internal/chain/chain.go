// Package chain holds the types shared by the Ethereum-family and Algorand
// simulators: addresses, currency units and arithmetic, receipts, and the
// deterministic randomness every simulation component draws from.
package chain

import (
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"

	"agnopol/internal/polcrypto"
)

// Address is a 20-byte account or contract address, derived from the
// account's public key exactly as Ethereum does (last 20 bytes of the hash).
type Address [20]byte

// AddressFromPublicKey derives the canonical address of a public key.
func AddressFromPublicKey(pub ed25519.PublicKey) Address {
	h := polcrypto.Hash(pub)
	var a Address
	copy(a[:], h[12:])
	return a
}

// AddressFromBytes builds an address from raw bytes, hashing inputs that are
// not exactly 20 bytes. Used to derive contract addresses from
// (creator, nonce).
func AddressFromBytes(b []byte) Address {
	var a Address
	if len(b) == len(a) {
		copy(a[:], b)
		return a
	}
	h := polcrypto.Hash(b)
	copy(a[:], h[12:])
	return a
}

// ContractAddress derives the address of a contract created by creator with
// the given account nonce.
func ContractAddress(creator Address, nonce uint64) Address {
	var buf [28]byte
	copy(buf[:20], creator[:])
	binary.BigEndian.PutUint64(buf[20:], nonce)
	return AddressFromBytes(buf[:])
}

func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// Account is a signing key and the address it controls, on either family:
// eth.Account and algorand.Account are this type.
type Account struct {
	Key     *polcrypto.KeyPair
	Address Address
}

// NewAccount derives an account from the next key pair rng yields.
func NewAccount(rng *Rand) *Account {
	kp := polcrypto.MustGenerateKeyPair(rng)
	return &Account{Key: kp, Address: AddressFromPublicKey(kp.Public)}
}

// Contract locates a deployed contract: by address on an Ethereum-family
// chain, by application id on Algorand. The other field is zero.
type Contract struct {
	Addr Address
	App  uint64
}

// Hash32 is a 32-byte hash (block hashes, tx hashes, storage keys).
type Hash32 [32]byte

func (h Hash32) String() string { return "0x" + hex.EncodeToString(h[:]) }

// Unit describes the native currency of a chain and its conversion factors,
// matching the constants the paper's tables use (Nov 17 2022 prices:
// 1 ETH = €1156, 1 ALGO = €0.26, 1 MATIC = €0.85).
type Unit struct {
	// Name of the whole token, e.g. "ETH".
	Name string
	// BaseName of the smallest denomination, e.g. "wei".
	BaseName string
	// BasePerToken is how many base units make one token (1e18 for wei,
	// 1e6 for µAlgo).
	BasePerToken *big.Int
	// EuroPerToken is the fiat conversion used in the paper's tables.
	EuroPerToken float64
}

// Paper conversion constants.
var (
	UnitETH   = Unit{Name: "ETH", BaseName: "wei", BasePerToken: big.NewInt(1e18), EuroPerToken: 1156}
	UnitMATIC = Unit{Name: "MATIC", BaseName: "wei", BasePerToken: big.NewInt(1e18), EuroPerToken: 0.85}
	UnitALGO  = Unit{Name: "ALGO", BaseName: "µALGO", BasePerToken: big.NewInt(1e6), EuroPerToken: 0.26}
)

// Amount is a currency amount in base units (wei / µAlgo) with its unit
// attached so fees from different chains can be rendered side by side.
type Amount struct {
	Base *big.Int
	Unit Unit
}

// NewAmount wraps base units in an Amount.
func NewAmount(base *big.Int, unit Unit) Amount {
	return Amount{Base: new(big.Int).Set(base), Unit: unit}
}

// AmountFromTokens converts whole tokens (possibly fractional) to an Amount.
func AmountFromTokens(tokens float64, unit Unit) Amount {
	f := new(big.Float).Mul(big.NewFloat(tokens), new(big.Float).SetInt(unit.BasePerToken))
	base, _ := f.Int(nil)
	return Amount{Base: base, Unit: unit}
}

// Tokens returns the amount in whole tokens.
func (a Amount) Tokens() float64 {
	if a.Base == nil {
		return 0
	}
	f := new(big.Float).SetInt(a.Base)
	f.Quo(f, new(big.Float).SetInt(a.Unit.BasePerToken))
	v, _ := f.Float64()
	return v
}

// Euros converts the amount with the paper's fixed rates.
func (a Amount) Euros() float64 { return a.Tokens() * a.Unit.EuroPerToken }

// Add returns a + b; both must share a unit.
func (a Amount) Add(b Amount) Amount {
	if a.Base == nil {
		return b
	}
	return Amount{Base: new(big.Int).Add(a.Base, b.Base), Unit: a.Unit}
}

func (a Amount) String() string {
	return fmt.Sprintf("%g %s", a.Tokens(), a.Unit.Name)
}
