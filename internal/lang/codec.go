package lang

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/polcrypto"
	"agnopol/internal/u256"
)

// The value codec: one encoder and one strict decoder per backend. Call
// arguments, return data and off-chain state reads all go through them,
// so a value reads back alike on every connector. Reach frontends read
// contract state directly through the node (filtering the Map by DID,
// §2.2); the state readers decode the storage layouts the two backends
// emit, without paid transactions.

// ErrReturnOverflow reports a UInt word of 2^64 or more, returned by a
// call or read from storage: UInt is 64-bit, and such a word has no UInt
// value.
var ErrReturnOverflow = errors.New("lang: UInt word exceeds 64 bits")

// ErrBadEncoding reports bytes that no value of the declared type encodes
// to: a Bool other than 0 or 1, an Address with non-zero high bytes, a
// word or itob of the wrong length, or an AVM value of the wrong kind.
var ErrBadEncoding = errors.New("lang: malformed value encoding")

// checkArgs checks a call's arguments against the method's parameters.
func checkArgs(method string, params []Param, args []Value) error {
	if len(args) != len(params) {
		return fmt.Errorf("lang: %s wants %d args, got %d", method, len(params), len(args))
	}
	for i, arg := range args {
		if arg.Type != params[i].Type {
			return fmt.Errorf("lang: %s arg %d: want %s, got %s", method, i, params[i].Type, arg.Type)
		}
		if arg.Type < TUInt || arg.Type > TAddress {
			return fmt.Errorf("lang: unsupported arg type %s", arg.Type)
		}
	}
	return nil
}

// EVM codec.

// evmWord is the 32-byte word of a UInt, Bool or Address value:
// right-aligned, as the generated code computes on it. A Bytes value is
// no one word; the callers lay it out.
func evmWord(v Value) (w [32]byte) {
	switch v.Type {
	case TUInt:
		binary.BigEndian.PutUint64(w[24:], v.Uint)
	case TBool:
		if v.Bool {
			w[31] = 1
		}
	case TAddress:
		copy(w[12:], v.Addr[:])
	}
	return w
}

// evmValue is evmWord's inverse, and refuses every word evmWord does not
// produce.
func evmValue(t Type, w [32]byte) (Value, error) {
	switch t {
	case TUInt:
		if [24]byte(w[:24]) != [24]byte{} {
			return Value{}, fmt.Errorf("%w: %x", ErrReturnOverflow, w)
		}
		return Uint64Value(binary.BigEndian.Uint64(w[24:])), nil
	case TBool:
		if [31]byte(w[:31]) != [31]byte{} || w[31] > 1 {
			return Value{}, fmt.Errorf("%w: Bool word %x", ErrBadEncoding, w)
		}
		return BoolValue(w[31] == 1), nil
	case TAddress:
		if [12]byte(w[:12]) != [12]byte{} {
			return Value{}, fmt.Errorf("%w: Address word %x", ErrBadEncoding, w)
		}
		return AddressValue([20]byte(w[12:])), nil
	default:
		return Value{}, fmt.Errorf("lang: %s has no EVM word", t)
	}
}

// EncodeArgsEVM builds the calldata for a method call: 4-byte selector +
// head/tail ABI encoding of args. A bytes argument's head word is its
// tail offset; its tail is a length word and the data padded to 32 bytes.
func EncodeArgsEVM(method string, params []Param, args []Value) ([]byte, error) {
	if err := checkArgs(method, params, args); err != nil {
		return nil, err
	}
	sel := Selector(method)
	out := append(make([]byte, 0, 4+32*len(args)), sel[:]...)
	var tail []byte
	for _, arg := range args {
		w := evmWord(arg)
		if arg.Type == TBytes {
			w = evmWord(Uint64Value(uint64(32*len(args) + len(tail))))
			lw := evmWord(Uint64Value(uint64(len(arg.Bytes))))
			tail = append(append(tail, lw[:]...), arg.Bytes...)
			tail = append(tail, make([]byte, -len(arg.Bytes)&31)...)
		}
		out = append(out, w[:]...)
	}
	return append(out, tail...), nil
}

// DecodeReturnEVM parses the return data of a call according to the
// declared return type: the raw bytes of a Bytes value, else one word.
func DecodeReturnEVM(t Type, data []byte) (Value, error) {
	if t == TBytes {
		return BytesValue(append([]byte(nil), data...)), nil
	}
	if len(data) != 32 {
		return Value{}, fmt.Errorf("%w: %s return of %d bytes", ErrBadEncoding, t, len(data))
	}
	return evmValue(t, [32]byte(data))
}

// StorageGetter reads one raw storage word of a contract.
type StorageGetter func(key chain.Hash32) chain.Hash32

// evmGlobalSlot is the storage slot number of the i-th global; slot 0 is
// the deployed flag.
func evmGlobalSlot(i int) uint64 { return uint64(1 + i) }

// evmMapSlot returns the marker slot of a map entry: keccak(key ‖ tag).
func evmMapSlot(mapIndex int, key uint64) chain.Hash32 {
	kw := evmWord(Uint64Value(key))
	tw := evmWord(Uint64Value(uint64(mapTagBase + mapIndex)))
	return chain.Hash32(polcrypto.Hash(kw[:], tw[:]))
}

// maxEVMBytes bounds a stored bytes value: no EVM memory range passes
// 4 GiB, so the contract never wrote a longer one.
const maxEVMBytes = 1 << 32

// readEVMEntry decodes a value of type t stored behind the marker at
// slot. The marker is 0 when nothing is stored, else 2·v+1: v is the
// value's word or, for Bytes, its length, with the chunks at
// keccak(slot)+j. An absent entry reads as t's zero value.
func readEVMEntry(get StorageGetter, t Type, slot chain.Hash32) (Value, bool, error) {
	m := get(slot)
	marker := u256.SetBytes(m[:])
	if marker.IsZero() {
		return Value{Type: t}, false, nil
	}
	if !marker.Bit(0) {
		return Value{}, false, fmt.Errorf("%w: even marker %x", ErrBadEncoding, m)
	}
	v := marker.Rsh(1)
	if t != TBytes {
		out, err := evmValue(t, v.Bytes32())
		return out, err == nil, err
	}
	if v.Gt(u256.FromUint64(maxEVMBytes)) {
		return Value{}, false, fmt.Errorf("%w: bytes length %s", ErrBadEncoding, v)
	}
	n := v.Uint64()
	h := polcrypto.Hash(slot[:])
	base := u256.SetBytes(h[:])
	out := make([]byte, 0, n+31)
	for j := uint64(0); uint64(len(out)) < n; j++ {
		chunk := get(chain.Hash32(base.Add(u256.FromUint64(j)).Bytes32()))
		out = append(out, chunk[:]...)
	}
	return BytesValue(out[:n]), true, nil
}

// ReadMapEVM reads Map[key] from raw EVM storage.
func ReadMapEVM(get StorageGetter, p *Program, mapName string, key uint64) (Value, bool, error) {
	mi, err := p.mapIndex(mapName)
	if err != nil {
		return Value{}, false, err
	}
	return readEVMEntry(get, p.Maps[mi].Value, evmMapSlot(mi, key))
}

// ReadGlobalEVM reads a global from raw EVM storage: a Bytes global
// behind a marker, any other as its word. An unset global reads as its
// type's zero value.
func ReadGlobalEVM(get StorageGetter, p *Program, name string) (Value, error) {
	gi, err := p.globalIndex(name)
	if err != nil {
		return Value{}, err
	}
	t := p.Globals[gi].Type
	slot := chain.Hash32(evmWord(Uint64Value(evmGlobalSlot(gi))))
	if t != TBytes {
		return evmValue(t, get(slot))
	}
	v, _, err := readEVMEntry(get, t, slot)
	return v, err
}

// TEAL codec.

// tealGlobalKey is the global-state key of a global.
func tealGlobalKey(name string) string { return "g:" + name }

// tealMapPrefix prefixes the itob of a key to form the global-state key
// of a map entry.
func tealMapPrefix(mapIndex int) string { return "m:" + strconv.Itoa(mapIndex) + ":" }

// tealArg is a value as one ApplicationArgs entry, and as a logged
// return: a UInt or Bool as its itob, a Bytes value raw, an Address as its
// 20 bytes.
func tealArg(v Value) []byte {
	switch v.Type {
	case TUInt:
		return avm.Itob(v.Uint)
	case TBool:
		if v.Bool {
			return avm.Itob(1)
		}
		return avm.Itob(0)
	case TAddress:
		return append([]byte(nil), v.Addr[:]...)
	default:
		return append([]byte(nil), v.Bytes...)
	}
}

// tealValue reads an AVM value as a value of type t: a UInt or Bool from
// an AVM uint or its itob, a Bytes or Address value from AVM bytes. It
// refuses everything tealArg and the generated code do not produce.
func tealValue(t Type, v avm.Value) (Value, error) {
	switch t {
	case TBytes:
		if v.IsBytes {
			return BytesValue(append([]byte(nil), v.Bytes...)), nil
		}
	case TAddress:
		if v.IsBytes && len(v.Bytes) == 20 {
			return AddressValue([20]byte(v.Bytes)), nil
		}
	case TUInt, TBool:
		u, ok := v.Uint, !v.IsBytes
		if v.IsBytes && len(v.Bytes) == 8 {
			u, ok = binary.BigEndian.Uint64(v.Bytes), true
		}
		if ok && t == TUInt {
			return Uint64Value(u), nil
		}
		if ok && u <= 1 {
			return BoolValue(u == 1), nil
		}
	}
	return Value{}, fmt.Errorf("%w: %s from %s", ErrBadEncoding, t, v)
}

// EncodeArgsTEAL builds the ApplicationArgs for a method call (method name
// first) or for the constructor (method == "" omits the selector).
func EncodeArgsTEAL(method string, params []Param, args []Value) ([][]byte, error) {
	if err := checkArgs(method, params, args); err != nil {
		return nil, err
	}
	var out [][]byte
	if method != "" {
		out = append(out, []byte(method))
	}
	for _, arg := range args {
		out = append(out, tealArg(arg))
	}
	return out, nil
}

// DecodeReturnTEAL parses the "return:" payload logged by a method.
func DecodeReturnTEAL(t Type, data []byte) (Value, error) {
	return tealValue(t, avm.BytesValue(data))
}

// ReadMapTEAL reads Map[key] from an application's global state, get
// being the reader of one state key.
func ReadMapTEAL(get func(key string) (avm.Value, bool), p *Program, mapName string, key uint64) (Value, bool, error) {
	mi, err := p.mapIndex(mapName)
	if err != nil {
		return Value{}, false, err
	}
	t := p.Maps[mi].Value
	v, ok := get(tealMapPrefix(mi) + string(avm.Itob(key)))
	if !ok {
		return Value{Type: t}, false, nil
	}
	out, err := tealValue(t, v)
	return out, err == nil, err
}

// ReadGlobalTEAL reads a global from an application's global state. An
// unset global reads as its type's zero value.
func ReadGlobalTEAL(get func(key string) (avm.Value, bool), p *Program, name string) (Value, error) {
	gi, err := p.globalIndex(name)
	if err != nil {
		return Value{}, err
	}
	t := p.Globals[gi].Type
	v, ok := get(tealGlobalKey(name))
	if !ok {
		return Value{Type: t}, nil
	}
	return tealValue(t, v)
}
