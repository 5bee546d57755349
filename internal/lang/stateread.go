package lang

import (
	"fmt"
	"math/big"
	"strconv"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/polcrypto"
)

// Off-chain state reads. Reach frontends read contract state directly
// through the node (filtering the Map by DID, §2.2); these helpers decode
// the storage layouts the two backends emit so connectors can offer the
// same facility without paid transactions.

// EVMGlobalSlot returns the storage slot of the i-th global.
func EVMGlobalSlot(i int) chain.Hash32 {
	var h chain.Hash32
	new(big.Int).SetUint64(uint64(1 + i)).FillBytes(h[:])
	return h
}

// EVMMapSlot returns the marker slot of a map entry: keccak(key ‖ tag).
func EVMMapSlot(mapIndex int, key uint64) chain.Hash32 {
	var kw, tw [32]byte
	new(big.Int).SetUint64(key).FillBytes(kw[:])
	new(big.Int).SetUint64(uint64(mapTagBase + mapIndex)).FillBytes(tw[:])
	return chain.Hash32(polcrypto.Hash(kw[:], tw[:]))
}

// evmDataBase returns the first chunk slot for a bytes value whose marker
// lives at slot.
func evmDataBase(slot chain.Hash32) *big.Int {
	h := polcrypto.Hash(slot[:])
	return new(big.Int).SetBytes(h[:])
}

// StorageGetter reads one raw storage word of a contract.
type StorageGetter func(key chain.Hash32) chain.Hash32

// word reads a storage slot as a big integer.
func word(get StorageGetter, slot chain.Hash32) *big.Int {
	v := get(slot)
	return new(big.Int).SetBytes(v[:])
}

// readEVMBytesAt decodes the marker+chunks encoding at slot.
func readEVMBytesAt(get StorageGetter, slot chain.Hash32) ([]byte, bool) {
	marker := word(get, slot)
	if marker.Sign() == 0 {
		return nil, false
	}
	length := new(big.Int).Rsh(marker, 1).Uint64()
	base := evmDataBase(slot)
	out := make([]byte, 0, length)
	for off := uint64(0); off < length; off += 32 {
		var cs chain.Hash32
		new(big.Int).Add(base, new(big.Int).SetUint64(off/32)).FillBytes(cs[:])
		chunk := get(cs)
		out = append(out, chunk[:]...)
	}
	return out[:length], true
}

// ReadMapEVM reads Map[key] from raw EVM storage.
func ReadMapEVM(get StorageGetter, p *Program, mapName string, key uint64) (Value, bool, error) {
	mi, err := p.mapIndex(mapName)
	if err != nil {
		return Value{}, false, err
	}
	slot := EVMMapSlot(mi, key)
	if p.Maps[mi].Value == TBytes {
		b, ok := readEVMBytesAt(get, slot)
		if !ok {
			return Value{}, false, nil
		}
		return BytesValue(b), true, nil
	}
	marker := word(get, slot)
	if marker.Sign() == 0 {
		return Value{}, false, nil
	}
	return Uint64Value(new(big.Int).Rsh(marker, 1).Uint64()), true, nil
}

// ReadGlobalEVM reads a global from raw EVM storage.
func ReadGlobalEVM(get StorageGetter, p *Program, name string) (Value, error) {
	gi, err := p.globalIndex(name)
	if err != nil {
		return Value{}, err
	}
	slot := EVMGlobalSlot(gi)
	switch p.Globals[gi].Type {
	case TBytes:
		b, _ := readEVMBytesAt(get, slot)
		return BytesValue(b), nil
	case TAddress:
		w := get(slot)
		var a [20]byte
		copy(a[:], w[12:])
		return AddressValue(a), nil
	default:
		return Uint64Value(word(get, slot).Uint64()), nil
	}
}

// ReadMapTEAL reads Map[key] from an application's global state, get
// being the reader of one state key.
func ReadMapTEAL(get func(key string) (avm.Value, bool), p *Program, mapName string, key uint64) (Value, bool, error) {
	mi, err := p.mapIndex(mapName)
	if err != nil {
		return Value{}, false, err
	}
	v, ok := get("m:" + strconv.Itoa(mi) + ":" + string(avm.Itob(key)))
	if !ok {
		return Value{}, false, nil
	}
	out, err := decodeTEALValue(p.Maps[mi].Value, v)
	if err != nil {
		return Value{}, false, err
	}
	return out, true, nil
}

// ReadGlobalTEAL reads a global from an application's global state.
func ReadGlobalTEAL(get func(key string) (avm.Value, bool), p *Program, name string) (Value, error) {
	gi, err := p.globalIndex(name)
	if err != nil {
		return Value{}, err
	}
	v, ok := get("g:" + name)
	if !ok {
		return Value{}, fmt.Errorf("lang: global %q not set", name)
	}
	return decodeTEALValue(p.Globals[gi].Type, v)
}

// decodeTEALValue converts an AVM state value to a language Value of the
// declared type.
func decodeTEALValue(t Type, v avm.Value) (Value, error) {
	switch t {
	case TUInt:
		u, err := v.AsUint()
		if err != nil {
			return Value{}, err
		}
		return Uint64Value(u), nil
	case TBool:
		u, err := v.AsUint()
		if err != nil {
			return Value{}, err
		}
		return BoolValue(u != 0), nil
	case TBytes:
		b, err := v.AsBytes()
		if err != nil {
			return Value{}, err
		}
		return BytesValue(append([]byte(nil), b...)), nil
	case TAddress:
		b, err := v.AsBytes()
		if err != nil {
			return Value{}, err
		}
		if len(b) != 20 {
			return Value{}, fmt.Errorf("lang: address state value of %d bytes", len(b))
		}
		var a [20]byte
		copy(a[:], b)
		return AddressValue(a), nil
	default:
		return Value{}, fmt.Errorf("lang: unsupported state type %s", t)
	}
}
