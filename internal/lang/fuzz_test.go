package lang

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"agnopol/internal/avm"
)

// FuzzParseSource: the textual frontend is on the production path (core
// compiles the shipped .pol files), so for any input the pipeline
// ParseSource → Check → Compile must not panic, and
// whatever it refuses it must refuse with one of the package's typed errors
// — an untyped backend error is a hole in Check.
func FuzzParseSource(f *testing.F) {
	files, err := filepath.Glob("../../contracts/*.pol")
	if err != nil || len(files) == 0 {
		f.Fatalf("no contracts found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, tc := range namespaceClashes {
		f.Add(tc.src)
	}
	for _, tc := range parseErrorCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		refused := func(stage string, err error) bool {
			if err != nil && !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrType) && !errors.Is(err, ErrVerification) {
				t.Fatalf("%s failed with an untyped error: %v", stage, err)
			}
			return err != nil
		}
		prog, err := ParseSource(src)
		if refused("ParseSource", err) || refused("Check", Check(prog)) {
			return
		}
		_, err = Compile(prog, Options{})
		refused("Compile", err)
	})
}

// FuzzValueCodec: each backend's encoder and strict decoder are inverses.
// Every value of every type round-trips through both backends' codecs; an
// arbitrary EVM word, return payload or AVM value either decodes and
// re-encodes to exactly itself or is refused with ErrReturnOverflow or
// ErrBadEncoding; nothing panics.
func FuzzValueCodec(f *testing.F) {
	word := func(i int, b byte) []byte {
		w := make([]byte, 32)
		w[i] = b
		return w
	}
	for typ := TUInt; typ <= TAddress; typ++ {
		for _, raw := range [][]byte{nil, {1}, word(31, 1), word(31, 2), word(30, 1), word(23, 1), word(0, 1), append(word(31, 1), 0), avm.Itob(2), make([]byte, 20)} {
			f.Add(uint8(typ), raw, uint64(2))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, raw []byte, u uint64) {
		typ := Type(1 + kind%4)
		refused := func(what string, err error) bool {
			if err != nil && !errors.Is(err, ErrReturnOverflow) && !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("%s: untyped refusal: %v", what, err)
			}
			return err != nil
		}

		// A value of typ round-trips through both codecs.
		v := Value{Type: typ, Uint: u, Bool: u&1 == 1, Bytes: raw}
		copy(v.Addr[:], raw)
		// evmData is what DecodeReturnEVM reads a value from.
		evmData := func(v Value) []byte {
			if v.Type == TBytes {
				return v.Bytes
			}
			w := evmWord(v)
			return w[:]
		}
		if got, err := DecodeReturnEVM(typ, evmData(v)); err != nil || !sameValue(got, v) {
			t.Fatalf("EVM round trip of %v: got %v, %v", v, got, err)
		}
		if got, err := DecodeReturnTEAL(typ, tealArg(v)); err != nil || !sameValue(got, v) {
			t.Fatalf("TEAL round trip of %v: got %v, %v", v, got, err)
		}

		// Arbitrary EVM return data, and raw as a zero-extended word.
		if got, err := DecodeReturnEVM(typ, raw); !refused("DecodeReturnEVM", err) {
			if string(evmData(got)) != string(raw) {
				t.Fatalf("EVM %s return %x re-encodes to %x", typ, raw, evmData(got))
			}
		}
		if typ != TBytes {
			var w [32]byte
			copy(w[:], raw)
			if got, err := evmValue(typ, w); !refused("evmValue", err) && evmWord(got) != w {
				t.Fatalf("EVM %s word %x re-encodes to %x", typ, w, evmWord(got))
			}
		}

		// Arbitrary AVM values: raw as bytes, u as a uint.
		for _, av := range []avm.Value{avm.BytesValue(raw), avm.Uint64Value(u)} {
			got, err := tealValue(typ, av)
			if refused("tealValue", err) {
				continue
			}
			want := raw
			if !av.IsBytes {
				want = avm.Itob(u)
			}
			if string(tealArg(got)) != string(want) {
				t.Fatalf("TEAL %s from %v re-encodes to %x", typ, av, tealArg(got))
			}
		}
	})
}
