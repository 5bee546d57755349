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
	{"scratch-slot-256", "int 1\nstore 256\nint 1\nreturn", 2},
	{"scratch-slot-300", "load 300\nint 1\nreturn", 1},
	{"sha256-parts-0", "byte \"x\"\nsha256_parts 0\nreturn", 2},
	{"sha256-parts-17", "byte \"x\"\nsha256_parts 17\nreturn", 2},
	{"undefined-label", "int 1\nb nowhere\nint 1\nreturn", 2},
	{"undefined-callsub", "callsub nowhere\nint 1\nreturn", 1},
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

func TestAccountIndexing(t *testing.T) {
	// Numeric account reference 0 = sender; 1 = Accounts[0]; out of range
	// errors.
	led := NewMemLedger()
	sender := mustAddr("sender")
	other := mustAddr("other")
	led.Balances[sender] = 11
	led.Balances[other] = 22
	p, err := Parse("int 0\nbalance\nint 11\n==\nassert\nint 1\nbalance\nint 22\n==\nreturn")
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(p, led, TxContext{AppID: 1, Sender: sender, Accounts: []chainAddr{other}})
	if !res.Approved {
		t.Fatalf("account indexing failed: %v", res.Err)
	}
	p2, err := Parse("int 5\nbalance\npop\nint 1\nreturn")
	if err != nil {
		t.Fatal(err)
	}
	res = Execute(p2, led, TxContext{AppID: 1, Sender: sender})
	if res.Err == nil {
		t.Fatal("out-of-range account index accepted")
	}
}

// small helpers for the tests above.
type chainAddr = chain.Address

func mustAddr(s string) chainAddr {
	var a chainAddr
	copy(a[:], s)
	return a
}
