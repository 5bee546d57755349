package lang

import (
	"errors"
	"fmt"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
)

// sameValue compares two values of one type by what the type carries; a
// nil and an empty Bytes value are the same value.
func sameValue(a, b Value) bool { return a.Type == b.Type && a.String() == b.String() }

// TestBackendsDecodeAlike: each backend's decoder refuses what its encoder
// never produces, on call returns and on state reads alike, and an unset
// global reads as the same zero value through both backends.
func TestBackendsDecodeAlike(t *testing.T) {
	p := counterProgram(t)
	wordOf := func(set func(w []byte)) []byte {
		w := make([]byte, 32)
		set(w)
		return w
	}
	noStorage := func(chain.Hash32) chain.Hash32 { return chain.Hash32{} }
	noState := func(string) (avm.Value, bool) { return avm.Value{}, false }
	readBoth := func(name string) func() (Value, error) {
		return func() (Value, error) {
			ev, eerr := ReadGlobalEVM(noStorage, p, name)
			tv, terr := ReadGlobalTEAL(noState, p, name)
			if err := errors.Join(eerr, terr); err != nil {
				return Value{}, err
			}
			if !sameValue(ev, tv) {
				return Value{}, fmt.Errorf("EVM reads %v, TEAL reads %v", ev, tv)
			}
			return ev, nil
		}
	}
	// count = 2^63, then bump(2^63): the EVM's 256-bit ADD stores 2^64.
	overflowedCount := func() (Value, error) {
		c := compileCounter(t)
		h := newEVMHarness(t, c)
		h.call(CtorMethodName, c.Program.Ctor.Params, 0, Uint64Value(1<<63), BytesValue([]byte("n")))
		if res := h.call("bump", c.Program.FindAPI("bump").Params, 0, Uint64Value(1<<63)); res.Err != nil || res.Reverted {
			t.Fatalf("bump(2^63): %+v", res)
		}
		return ReadGlobalEVM(func(k chain.Hash32) chain.Hash32 { return h.state.GetStorage(h.self, k) }, p, "count")
	}
	// Every slot holds the marker 2·2^64+1 of a UInt map value of 2^64.
	wideScore := func() (Value, error) {
		marker := chain.Hash32(wordOf(func(w []byte) { w[23], w[31] = 2, 1 }))
		v, _, err := ReadMapEVM(func(chain.Hash32) chain.Hash32 { return marker }, p, "scores", 1)
		return v, err
	}
	for _, row := range []struct {
		name string
		read func() (Value, error)
		want Value
		err  error
	}{
		{"EVM Bool word 2", func() (Value, error) {
			return DecodeReturnEVM(TBool, wordOf(func(w []byte) { w[31] = 2 }))
		}, Value{}, ErrBadEncoding},
		{"EVM Bool word 256", func() (Value, error) {
			return DecodeReturnEVM(TBool, wordOf(func(w []byte) { w[30] = 1 }))
		}, Value{}, ErrBadEncoding},
		{"TEAL Bool itob(2)", func() (Value, error) {
			return DecodeReturnTEAL(TBool, avm.Itob(2))
		}, Value{}, ErrBadEncoding},
		{"EVM Address word with byte 0 set", func() (Value, error) {
			return DecodeReturnEVM(TAddress, wordOf(func(w []byte) { w[0], w[31] = 1, 7 }))
		}, Value{}, ErrBadEncoding},
		{"ReadGlobalEVM count overflowed to 2^64", overflowedCount, Value{}, ErrReturnOverflow},
		{"ReadMapEVM UInt value 2^64", wideScore, Value{}, ErrReturnOverflow},
		{"unset UInt global, both backends", readBoth("count"), Uint64Value(0), nil},
		{"unset Bytes global, both backends", readBoth("note"), BytesValue(nil), nil},
	} {
		got, err := row.read()
		if !errors.Is(err, row.err) || (err == nil && !sameValue(got, row.want)) {
			t.Errorf("%s: got %v, %v; want %v, %v", row.name, got, err, row.want, row.err)
		}
	}
}

// TestEVMStateReadsRefuseBadMarkers: the contract writes a map entry's or
// bytes global's marker as 2·v+1 and never a bytes value past 4 GiB, so an
// even marker or a longer length is refused, not read.
func TestEVMStateReadsRefuseBadMarkers(t *testing.T) {
	p := counterProgram(t)
	storing := func(set func(w []byte)) StorageGetter {
		var w chain.Hash32
		set(w[:])
		return func(chain.Hash32) chain.Hash32 { return w }
	}
	even := storing(func(w []byte) { w[31] = 2 })
	huge := storing(func(w []byte) { w[27], w[31] = 2, 3 }) // marker 2^33+3: length 2^32+1
	for _, row := range []struct {
		name string
		err  error
	}{
		{"UInt map entry, even marker", mapReadErr(ReadMapEVM(even, p, "scores", 1))},
		{"Bytes map entry, even marker", mapReadErr(ReadMapEVM(even, p, "data", 1))},
		{"Bytes map entry, length 2^32+1", mapReadErr(ReadMapEVM(huge, p, "data", 1))},
		{"Bytes global, even marker", func() error { _, err := ReadGlobalEVM(even, p, "note"); return err }()},
	} {
		if !errors.Is(row.err, ErrBadEncoding) {
			t.Errorf("%s: got %v, want ErrBadEncoding", row.name, row.err)
		}
	}
}

// mapReadErr keeps the error of a map read.
func mapReadErr(_ Value, _ bool, err error) error { return err }
