// Package avm implements the Algorand Virtual Machine subset the
// blockchain-agnostic contract language compiles to: a TEAL-like assembly
// language (Fig. 1.7 of the thesis), its parser, and a stack interpreter
// with Algorand's per-call opcode budget, global application state and inner
// payment transactions. The Algorand chain simulator executes
// application calls through this VM.
package avm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Value is a TEAL stack value: either a uint64 or a byte string.
type Value struct {
	IsBytes bool
	Uint    uint64
	Bytes   []byte
}

// Uint64Value wraps a uint.
func Uint64Value(v uint64) Value { return Value{Uint: v} }

// BytesValue wraps a byte string.
func BytesValue(b []byte) Value { return Value{IsBytes: true, Bytes: b} }

// ErrTypeMismatch reports a stack value of the wrong TEAL type.
var ErrTypeMismatch = errors.New("avm: type mismatch")

// The two type mismatches, built once so the accessors stay inlinable.
var (
	errWantUint  = fmt.Errorf("%w: want uint64, have bytes", ErrTypeMismatch)
	errWantBytes = fmt.Errorf("%w: want bytes, have uint64", ErrTypeMismatch)
)

// AsUint returns the uint64 content or ErrTypeMismatch.
func (v Value) AsUint() (uint64, error) {
	if v.IsBytes {
		return 0, errWantUint
	}
	return v.Uint, nil
}

// AsBytes returns the byte content or ErrTypeMismatch.
func (v Value) AsBytes() ([]byte, error) {
	if !v.IsBytes {
		return nil, errWantBytes
	}
	return v.Bytes, nil
}

func (v Value) String() string {
	if v.IsBytes {
		return fmt.Sprintf("bytes(%q)", v.Bytes)
	}
	return fmt.Sprintf("uint(%d)", v.Uint)
}

// Itob converts a uint64 to its 8-byte big-endian representation (the TEAL
// itob opcode).
func Itob(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Btoi converts big-endian bytes (up to 8) to a uint64 (the TEAL btoi
// opcode). Longer inputs fail as on the real AVM.
func Btoi(b []byte) (uint64, error) {
	if len(b) > 8 {
		return 0, fmt.Errorf("avm: btoi of %d bytes", len(b))
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, nil
}
