package avm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"agnopol/internal/chain"
)

func TestParseLabelsAndComments(t *testing.T) {
	p, err := Parse(`
// leading comment
int 1        // trailing comment
bnz skip
err
skip:
int 1
return
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 5 {
		t.Fatalf("instrs = %d", len(p.Instrs))
	}
	// The branch is resolved to the instruction after its label.
	if p.Instrs[1].code != opBnz || p.Instrs[1].arg != 3 {
		t.Fatalf("bnz skip decoded to %+v, want a branch to instruction 3", p.Instrs[1])
	}
	// Lines are tracked for diagnostics.
	if p.Instrs[0].Line != 3 {
		t.Fatalf("first instr line %d", p.Instrs[0].Line)
	}
}

// parseErrorCases pins what Parse rejects: one source per decode failure,
// and the line the error must name.
var parseErrorCases = []struct {
	name, src string
	line      int
}{
	{"unterminated-string", "byte \"unterminated", 1},
	{"duplicate-label", "x:\nx:\nint 1\nreturn", 2},
	{"unknown-opcode", "frobnicate\nint 1\nreturn", 1},
	{"missing-immediate", "int 1\nint\nreturn", 2},
	{"missing-second-immediate", "txna ApplicationArgs\nreturn", 1},
	{"extra-immediate", "int 1 2\nreturn", 1},
	{"immediate-on-plain-op", "int 1\nreturn 1", 2},
	{"non-decimal-uint", "int 0x10\nreturn", 1},
	{"uint-overflow", "int 18446744073709551616\nreturn", 1},
	{"unknown-txn-field", "txn Mystery\nint 1\nreturn", 1},
	{"unknown-global-field", "global Mystery\nint 1\nreturn", 1},
	{"unknown-itxn-field", "itxn_begin\nitxn_field Mystery\nint 1\nreturn", 2},
	{"txna-field", "txna Mystery 0\nint 1\nreturn", 1},
	{"txna-index", "txna ApplicationArgs first\nint 1\nreturn", 1},
	{"gtxn-group-index", "gtxn 1 Amount\nint 1\nreturn", 1},
	{"gtxn-field", "gtxn 0 Fee\nint 1\nreturn", 1},
	{"sha256-parts-0", "byte \"x\"\nsha256_parts 0\nreturn", 2},
	{"sha256-parts-17", "byte \"x\"\nsha256_parts 17\nreturn", 2},
	{"undefined-label", "int 1\nb nowhere\nint 1\nreturn", 2},
	// General TEAL that the contract language never emits.
	{"unemitted-store", "int 1\nf:\nstore 0\nreturn", 3},
	{"unemitted-load", "int 1\nf:\nload 0\nreturn", 3},
	{"unemitted-callsub", "int 1\nf:\ncallsub f\nreturn", 3},
	{"unemitted-retsub", "int 1\nf:\nretsub\nreturn", 3},
	{"unemitted-app_local_get", "int 1\nf:\napp_local_get\nreturn", 3},
	{"unemitted-app_local_put", "int 1\nf:\napp_local_put\nreturn", 3},
	{"unemitted-app_local_del", "int 1\nf:\napp_local_del\nreturn", 3},
	{"unemitted-dup", "int 1\nf:\ndup\nreturn", 3},
	{"unemitted-select", "int 1\nf:\nselect\nreturn", 3},
	{"unemitted-len", "int 1\nf:\nlen\nreturn", 3},
	{"unemitted-keccak256", "int 1\nf:\nkeccak256\nreturn", 3},
	{"unemitted-pushint", "int 1\nf:\npushint 1\nreturn", 3},
	{"unemitted-pushbytes", "int 1\nf:\npushbytes \"x\"\nreturn", 3},
	{"unemitted-addr", "int 1\nf:\naddr X\nreturn", 3},
	{"unemitted-txn-NumAppArgs", "int 1\nf:\ntxn NumAppArgs\nreturn", 3},
	{"unemitted-txn-OnCompletion", "int 1\nf:\ntxn OnCompletion\nreturn", 3},
	{"unemitted-txn-Fee", "int 1\nf:\ntxn Fee\nreturn", 3},
	{"unemitted-global-Round", "int 1\nf:\nglobal Round\nreturn", 3},
	{"unemitted-global-CurrentApplicationID", "int 1\nf:\nglobal CurrentApplicationID\nreturn", 3},
	{"unemitted-global-ZeroAddress", "int 1\nf:\nglobal ZeroAddress\nreturn", 3},
	{"unemitted-global-MinTxnFee", "int 1\nf:\nglobal MinTxnFee\nreturn", 3},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Parse(c.src)
			if !errors.Is(err, ErrBadProgram) {
				t.Fatalf("Parse = %+v, %v; want ErrBadProgram", p, err)
			}
			line := fmt.Sprintf("line %d", c.line)
			if msg := err.Error(); !strings.Contains(msg, line+":") && !strings.Contains(msg, line+" (") {
				t.Fatalf("err = %q, want it to name %s", msg, line)
			}
		})
	}
}

func TestTokenizeQuotedStrings(t *testing.T) {
	toks, err := tokenize(`byte "hello \"world\"" extra`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Fatalf("tokens = %v", toks)
	}
	if got := argString(toks[1]); got != `hello "world"` {
		t.Fatalf("string token %q", got)
	}
	if toks[2] != "extra" {
		t.Fatalf("tail token %q", toks[2])
	}
}

func TestTokenizeErrors(t *testing.T) {
	if _, err := tokenize(`byte "open`); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := tokenize(`   `); err == nil {
		t.Fatal("empty instruction accepted")
	}
}

func TestValueHelpers(t *testing.T) {
	v := Uint64Value(9)
	if _, err := v.AsBytes(); err == nil {
		t.Fatal("uint read as bytes")
	}
	if _, err := BytesValue(nil).AsUint(); err == nil {
		t.Fatal("bytes read as uint")
	}
	if !strings.Contains(BytesValue([]byte("ab")).String(), "ab") {
		t.Fatal("bytes String")
	}
	if !strings.Contains(Uint64Value(7).String(), "7") {
		t.Fatal("uint String")
	}
}

func TestExecutionErrorsCarryLineNumbers(t *testing.T) {
	p, err := Parse("int 1\nint 0\n/\nreturn")
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(p, NewMemLedger(), TxContext{AppID: 1})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "line 3") {
		t.Fatalf("err = %v, want line info", res.Err)
	}
}

func TestStackUnderflowReported(t *testing.T) {
	p, err := Parse("pop\nint 1\nreturn")
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(p, NewMemLedger(), TxContext{AppID: 1})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "stack") {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestTxnArgsOutOfRange(t *testing.T) {
	p, err := Parse("txna ApplicationArgs 3\nint 1\nreturn")
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(p, NewMemLedger(), TxContext{AppID: 1, Args: [][]byte{[]byte("a")}})
	if res.Err == nil {
		t.Fatal("out-of-range ApplicationArgs accepted")
	}
}

func TestItxnProtocolErrors(t *testing.T) {
	for name, src := range map[string]string{
		"field-outside":  "int 1\nitxn_field Amount\nint 1\nreturn",
		"submit-outside": "itxn_submit\nint 1\nreturn",
		"nested-begin":   "itxn_begin\nitxn_begin\nint 1\nreturn",
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res := Execute(p, NewMemLedger(), TxContext{AppID: 1})
		if res.Err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestBalanceTakesAnAddress: balance reads the account whose address bytes
// it pops; a uint is a type mismatch, not an index into the call's
// accounts.
func TestBalanceTakesAnAddress(t *testing.T) {
	led := NewMemLedger()
	sender := chain.AddressFromBytes([]byte("sender"))
	led.Balances[sender] = 11
	res := Execute(mustParse(t, "txn Sender\nbalance\nint 11\n==\nreturn"), led, TxContext{AppID: 1, Sender: sender})
	if !res.Approved {
		t.Fatalf("balance of the sender: %v", res.Err)
	}
	res = Execute(mustParse(t, "int 0\nbalance\nreturn"), led, TxContext{AppID: 1, Sender: sender})
	if !errors.Is(res.Err, ErrTypeMismatch) {
		t.Fatalf("balance of a uint: err = %v, want a type mismatch", res.Err)
	}
}
