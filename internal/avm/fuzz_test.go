package avm

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzParse: the assembler reads every TEAL program the compiler emits, so
// for any source it must return a program or an error, never panic, and
// every program it accepts must execute to a Result, never panic; and a
// byte constant must survive it whatever its bytes are — `//`, quotes and
// escapes included — followed by a comment.
func FuzzParse(f *testing.F) {
	f.Add("byte \"ipfs://bafy\" // uri\nint 1\nreturn", []byte("ipfs://bafy"))
	f.Add("loop: // head\nint 1\nbnz loop", []byte(`"//"\`))
	f.Add("byte \"a\\\"//b\"", []byte{0, 0xff, '/', '/'})
	// Instructions without their immediates, which Parse used to accept.
	for _, src := range []string{
		"int\nreturn", "byte\nreturn", "txn\nreturn", "bz\nreturn", "b\nreturn",
		"gtxn 0\nreturn", "txna ApplicationArgs\nreturn", "itxn_begin\nitxn_field\nreturn",
	} {
		f.Add(src, []byte("arg"))
	}
	// Programs that run: argument reads, branches, state reads, inner
	// payments and the precompile pseudo-ops.
	f.Add("txna ApplicationArgs 0\nbtoi\nbnz yes\nint 0\nb done\nyes:\nint 1\ndone:\nreturn", []byte{7})
	f.Add("int 0\ntxna ApplicationArgs 0\napp_global_get_ex\nbz miss\nreturn\nmiss:\npop\nint 1\nreturn", []byte("k"))
	f.Add("itxn_begin\nint 1\nitxn_field TypeEnum\ntxn Sender\nitxn_field Receiver\nint 1\nitxn_field Amount\nitxn_submit\nint 1\nreturn", []byte{})
	f.Add("txna ApplicationArgs 0\ntxna ApplicationArgs 0\nsha256_parts 2\ntxna ApplicationArgs 0\nolc_contains\nreturn", []byte("x"))
	f.Add("txna ApplicationArgs 0\ntxna ApplicationArgs 0\ntxna ApplicationArgs 0\ned25519verify\nreturn", []byte("k"))
	f.Fuzz(func(t *testing.T, src string, b []byte) {
		if p, err := Parse(src); err == nil {
			Execute(p, NewMemLedger(), TxContext{AppID: 1, Args: [][]byte{b}, BudgetTxns: 2})
		}

		p, err := Parse("byte " + strconv.Quote(string(b)) + " // c")
		if err != nil {
			t.Fatalf("quoted constant %q: %v", b, err)
		}
		if len(p.Instrs) != 1 || p.Instrs[0].code != opBytes {
			t.Fatalf("quoted constant %q parsed to %+v, want one byte instruction", b, p.Instrs)
		}
		if got := p.Instrs[0].data; !bytes.Equal(got, b) {
			t.Fatalf("immediate = %q, want %q", got, b)
		}
	})
}
