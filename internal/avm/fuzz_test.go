package avm

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzParse: the assembler reads every TEAL program the compiler emits, so
// for any source it must return a program or an error, never panic; and a
// byte constant must survive it whatever its bytes are — `//`, quotes and
// escapes included — followed by a comment.
func FuzzParse(f *testing.F) {
	f.Add("byte \"ipfs://bafy\" // uri\nint 1\nreturn", []byte("ipfs://bafy"))
	f.Add("loop: // head\nint 1\nbnz loop", []byte(`"//"\`))
	f.Add("byte \"a\\\"//b\"", []byte{0, 0xff, '/', '/'})
	f.Fuzz(func(t *testing.T, src string, b []byte) {
		_, _ = Parse(src)

		p, err := Parse("byte " + strconv.Quote(string(b)) + " // c")
		if err != nil {
			t.Fatalf("quoted constant %q: %v", b, err)
		}
		if len(p.Instrs) != 1 || p.Instrs[0].Op != "byte" || len(p.Instrs[0].Args) != 1 {
			t.Fatalf("quoted constant %q parsed to %+v, want one byte instruction", b, p.Instrs)
		}
		if got := argString(p.Instrs[0].Args[0]); !bytes.Equal([]byte(got), b) {
			t.Fatalf("immediate = %q, want %q", got, b)
		}
	})
}
