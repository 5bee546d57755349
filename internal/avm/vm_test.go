package avm

import (
	"crypto/sha256"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"agnopol/internal/chain"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return p
}

func exec(t *testing.T, src string, tx TxContext) (Result, *MemLedger) {
	t.Helper()
	led := NewMemLedger()
	return Execute(mustParse(t, src), led, tx), led
}

func TestArithmeticOps(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"add", "int 40\nint 2\n+\nint 42\n==\nreturn", true},
		{"sub", "int 50\nint 8\n-\nint 42\n==\nreturn", true},
		{"mul", "int 6\nint 7\n*\nint 42\n==\nreturn", true},
		{"div", "int 85\nint 2\n/\nint 42\n==\nreturn", true},
		{"mod", "int 85\nint 43\n%\nint 42\n==\nreturn", true},
		{"lt", "int 1\nint 2\n<\nreturn", true},
		{"gt", "int 1\nint 2\n>\nreturn", false},
		{"le", "int 2\nint 2\n<=\nreturn", true},
		{"ge", "int 1\nint 2\n>=\nreturn", false},
		{"ne", "int 1\nint 2\n!=\nreturn", true},
		{"not", "int 0\n!\nreturn", true},
		{"and", "int 1\nint 0\n&&\nreturn", false},
		{"or", "int 1\nint 0\n||\nreturn", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, _ := exec(t, c.src, TxContext{AppID: 1})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Approved != c.want {
				t.Fatalf("approved = %v, want %v", res.Approved, c.want)
			}
		})
	}
}

func TestArithmeticFaults(t *testing.T) {
	for name, src := range map[string]string{
		"div-zero":      "int 1\nint 0\n/\nreturn",
		"mod-zero":      "int 1\nint 0\n%\nreturn",
		"sub-underflow": "int 1\nint 2\n-\nreturn",
		"add-overflow":  "int 18446744073709551615\nint 1\n+\nreturn",
		"mul-overflow":  "int 18446744073709551615\nint 2\n*\nreturn",
	} {
		t.Run(name, func(t *testing.T) {
			res, _ := exec(t, src, TxContext{AppID: 1})
			if res.Err == nil {
				t.Fatal("fault not reported")
			}
		})
	}
}

// brokenLedger is a Ledger whose global writes panic: a defect outside the
// program, which must not pass for the program's fault.
type brokenLedger struct{ *MemLedger }

var errLedgerBroken = errors.New("ledger backend failed")

func (brokenLedger) GlobalPut(uint64, string, Value) { panic(errLedgerBroken) }

// TestForeignPanicEscapes: run's recover turns only the VM's own faults
// into Result.Err and re-raises any other panic unchanged. A pooled
// machine still runs the next program correctly.
func TestForeignPanicEscapes(t *testing.T) {
	prog := mustParse(t, "byte \"k\"\nint 1\napp_global_put\nint 1\nreturn")
	r := func() (r any) {
		defer func() { r = recover() }()
		Execute(prog, brokenLedger{NewMemLedger()}, TxContext{AppID: 1})
		return nil
	}()
	if r != errLedgerBroken {
		t.Fatalf("Execute panicked with %v, want the ledger's panic", r)
	}
	res, led := exec(t, "byte \"k\"\nint 6\nint 7\n*\napp_global_put\nint 1\nreturn", TxContext{AppID: 1})
	if v, ok := led.GlobalGet(1, "k"); !res.Approved || !ok || v.Uint != 42 {
		t.Fatalf("after the panic: approved %v, err %v, k = %v", res.Approved, res.Err, v)
	}
}

func TestBytesOps(t *testing.T) {
	src := `
byte "foo"
byte "bar"
concat
byte "foobar"
==
return`
	res, _ := exec(t, src, TxContext{AppID: 1})
	if !res.Approved {
		t.Fatalf("concat/== failed: %v", res.Err)
	}

	res, _ = exec(t, "byte \"foo\"\nbyte \"bar\"\n!=\nreturn", TxContext{AppID: 1})
	if !res.Approved {
		t.Fatalf("!= of unequal bytes failed: %v", res.Err)
	}

	res, _ = exec(t, "int 258\nitob\nbyte \"\\x00\\x00\\x00\\x00\\x00\\x00\\x01\\x02\"\n==\nreturn", TxContext{AppID: 1})
	if !res.Approved {
		t.Fatalf("itob is not 8 big-endian bytes: %v", res.Err)
	}
}

func TestItobBtoiRoundTrip(t *testing.T) {
	err := quick.Check(func(v uint64) bool {
		got, err := Btoi(Itob(v))
		return err == nil && got == v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Btoi(make([]byte, 9)); err == nil {
		t.Fatal("9-byte btoi accepted")
	}
}

func TestTypeMismatch(t *testing.T) {
	res, _ := exec(t, "int 1\nbyte \"x\"\n+\nreturn", TxContext{AppID: 1})
	if !errors.Is(res.Err, ErrTypeMismatch) {
		t.Fatalf("err = %v, want type mismatch", res.Err)
	}
	res, _ = exec(t, "int 1\nbyte \"x\"\n==\nreturn", TxContext{AppID: 1})
	if !errors.Is(res.Err, ErrTypeMismatch) {
		t.Fatalf("==: err = %v, want type mismatch", res.Err)
	}
}

func TestGlobalState(t *testing.T) {
	src := `
byte "count"
int 41
app_global_put
byte "count"
app_global_get
int 1
+
byte "count"
swap
app_global_put
byte "count"
app_global_get
int 42
==
return`
	res, led := exec(t, src, TxContext{AppID: 5})
	if !res.Approved {
		t.Fatalf("rejected: %v", res.Err)
	}
	v, ok := led.GlobalGet(5, "count")
	if !ok || v.Uint != 42 {
		t.Fatalf("count = %v (ok=%v)", v, ok)
	}
}

func TestGlobalGetEx(t *testing.T) {
	src := `
int 0
byte "missing"
app_global_get_ex
swap
pop
!
assert
byte "present"
int 1
app_global_put
int 0
byte "present"
app_global_get_ex
swap
pop
return`
	res, _ := exec(t, src, TxContext{AppID: 2})
	if !res.Approved {
		t.Fatalf("rejected: %v", res.Err)
	}
}

func TestBranching(t *testing.T) {
	src := `
int 0
bz zero
err
zero:
int 5
bnz five
err
five:
b done
err
done:
int 1
return`
	res, _ := exec(t, src, TxContext{AppID: 1})
	if !res.Approved {
		t.Fatalf("rejected: %v", res.Err)
	}
	// A branch to a label after the last instruction ends the program
	// without a return, which rejects.
	res, _ = exec(t, "b end\nint 1\nreturn\nend:", TxContext{AppID: 1})
	if res.Err == nil {
		t.Fatal("a branch past the last instruction returned")
	}
}

func TestTxnFields(t *testing.T) {
	sender := chain.AddressFromBytes([]byte("abc"))
	src := `
txn Sender
txna ApplicationArgs 1
==
assert
txna ApplicationArgs 0
byte "method"
==
assert
txn ApplicationID
int 1
==
return`
	res, _ := exec(t, src, TxContext{
		AppID: 1, Sender: sender,
		Args: [][]byte{[]byte("method"), sender[:]},
	})
	if !res.Approved {
		t.Fatalf("rejected: %v", res.Err)
	}
	stranger := chain.AddressFromBytes([]byte("def"))
	res, _ = exec(t, src, TxContext{
		AppID: 1, Sender: stranger,
		Args: [][]byte{[]byte("method"), sender[:]},
	})
	if res.Approved {
		t.Fatal("txn Sender read an address other than the sender's")
	}
}

func TestCreateModeApplicationID(t *testing.T) {
	src := `
txn ApplicationID
!
return`
	res, _ := exec(t, src, TxContext{AppID: 7, CreateMode: true})
	if !res.Approved {
		t.Fatal("ApplicationID should read 0 in create mode")
	}
	res, _ = exec(t, src, TxContext{AppID: 7})
	if res.Approved {
		t.Fatal("ApplicationID should be non-zero outside create mode")
	}
}

func TestGtxnPayAmount(t *testing.T) {
	src := `
gtxn 0 Amount
int 500
==
return`
	res, _ := exec(t, src, TxContext{AppID: 1, PayAmount: 500})
	if !res.Approved {
		t.Fatalf("rejected: %v", res.Err)
	}
}

func TestInnerPayment(t *testing.T) {
	led := NewMemLedger()
	app := uint64(4)
	led.Balances[led.AppAddress(app)] = 1000
	to := chain.AddressFromBytes([]byte("rcpt"))
	// The receiver is taken from txn Sender because raw addresses are not
	// printable in source literals.
	prog := mustParse(t, `
itxn_begin
int 1
itxn_field TypeEnum
txn Sender
itxn_field Receiver
int 300
itxn_field Amount
itxn_submit
int 1
return`)
	res := Execute(prog, led, TxContext{AppID: app, Sender: to})
	if !res.Approved {
		t.Fatalf("rejected: %v", res.Err)
	}
	if led.Balances[to] != 300 {
		t.Fatalf("recipient got %d", led.Balances[to])
	}
	if led.Balances[led.AppAddress(app)] != 700 {
		t.Fatalf("app kept %d", led.Balances[led.AppAddress(app)])
	}
}

// TestInnerTxnTypeIsPay: an inner transaction of any type but pay (1) is
// refused and moves nothing. An asset transfer (4) used to pay ALGO.
func TestInnerTxnTypeIsPay(t *testing.T) {
	for push, want := range map[string]error{
		"int 0":      ErrBadProgram,
		"int 4":      ErrBadProgram,
		"int 6":      ErrBadProgram,
		`byte "pay"`: ErrTypeMismatch,
	} {
		led := NewMemLedger()
		app := uint64(4)
		led.Balances[led.AppAddress(app)] = 1000
		to := chain.AddressFromBytes([]byte("rcpt"))
		prog := mustParse(t, "itxn_begin\n"+push+`
itxn_field TypeEnum
txn Sender
itxn_field Receiver
int 300
itxn_field Amount
itxn_submit
int 1
return`)
		res := Execute(prog, led, TxContext{AppID: app, Sender: to})
		if res.Approved || !errors.Is(res.Err, want) {
			t.Fatalf("%s: approved %v, err %v, want %v", push, res.Approved, res.Err, want)
		}
		if led.Balances[to] != 0 || led.Balances[led.AppAddress(app)] != 1000 {
			t.Fatalf("%s moved ALGO: %d sent, %d kept", push, led.Balances[to], led.Balances[led.AppAddress(app)])
		}
	}
}

func TestInnerPaymentInsufficient(t *testing.T) {
	led := NewMemLedger()
	prog := mustParse(t, `
itxn_begin
int 1
itxn_field TypeEnum
txn Sender
itxn_field Receiver
int 300
itxn_field Amount
itxn_submit
int 1
return`)
	res := Execute(prog, led, TxContext{AppID: 9, Sender: chain.AddressFromBytes([]byte("x"))})
	if res.Approved {
		t.Fatal("underfunded inner payment approved")
	}
	if !errors.Is(res.Err, ErrInsufficientBalance) {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestBudgetEnforced(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("int 0\n")
	for i := 0; i < 800; i++ {
		sb.WriteString("int 1\n+\n")
	}
	sb.WriteString("return\n")
	res, _ := exec(t, sb.String(), TxContext{AppID: 1})
	if !errors.Is(res.Err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", res.Err)
	}
	// Pooled budget with 3 grouped txns passes.
	res, _ = exec(t, sb.String(), TxContext{AppID: 1, BudgetTxns: 3})
	if res.Err != nil {
		t.Fatalf("pooled budget rejected: %v", res.Err)
	}
}

func TestSha256Cost(t *testing.T) {
	want := sha256.Sum256([]byte("x"))
	res, _ := exec(t, "byte \"x\"\nsha256\ntxna ApplicationArgs 0\n==\nreturn",
		TxContext{AppID: 1, Args: [][]byte{want[:]}})
	if !res.Approved {
		t.Fatalf("rejected: %v", res.Err)
	}
	if res.Cost < 35 {
		t.Fatalf("sha256 cost %d, want ≥35", res.Cost)
	}
}

func TestAssertAndErr(t *testing.T) {
	res, _ := exec(t, "int 0\nassert\nint 1\nreturn", TxContext{AppID: 1})
	if !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("assert 0: err = %v", res.Err)
	}
	res, _ = exec(t, "err", TxContext{AppID: 1})
	if !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("err: %v", res.Err)
	}
}

func TestProgramMustReturn(t *testing.T) {
	res, _ := exec(t, "int 1\npop", TxContext{AppID: 1})
	if res.Err == nil {
		t.Fatal("fall-off-the-end accepted")
	}
}

func TestLogReturnConvention(t *testing.T) {
	src := `
byte "return:ok"
log
int 1
return`
	res, _ := exec(t, src, TxContext{AppID: 1})
	if string(res.Return) != "ok" {
		t.Fatalf("return payload %q", res.Return)
	}
	if len(res.Logs) != 1 {
		t.Fatalf("logs %v", res.Logs)
	}
}

func TestSwap(t *testing.T) {
	src := `
int 10
int 30
swap
-
int 20
==
return`
	res, _ := exec(t, src, TxContext{AppID: 1})
	if !res.Approved {
		t.Fatalf("swap: %v", res.Err)
	}
}
