package avm

import (
	"errors"
	"testing"

	"agnopol/internal/chain"
)

// TestPooledStackIsolation: a call that returns with values still on its
// stack, or that logged, must leave nothing a later call on the recycled
// machine can pop or read — emptying the stack and the logs between calls
// is what keeps pooled machines indistinguishable from fresh ones.
func TestPooledStackIsolation(t *testing.T) {
	writer, err := Parse(`
byte "left behind"
log
int 77
int 1
return
`)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Parse(`
pop
int 1
return
`)
	if err != nil {
		t.Fatal(err)
	}
	led := NewMemLedger()
	for i := 0; i < 20; i++ {
		if res := Execute(writer, led, TxContext{AppID: 1}); res.Err != nil || len(res.Logs) != 1 {
			t.Fatalf("writer: logs %q, err %v", res.Logs, res.Err)
		}
		res := Execute(reader, led, TxContext{AppID: 1})
		if !errors.Is(res.Err, ErrStack) {
			t.Fatalf("round %d: a value left on the stack leaked across pooled calls: err = %v", i, res.Err)
		}
		if len(res.Logs) != 0 {
			t.Fatalf("round %d: logs leaked across pooled calls: %q", i, res.Logs)
		}
	}
}

// TestPooledSenderEscapesToLedger: a contract that stores its creator's
// address in a global must still see the original creator after other
// senders run on the recycled machine. Guards against pushing slices that
// alias the pooled machine's tx field — the ledger would then track
// whoever called last instead of the creator.
func TestPooledSenderEscapesToLedger(t *testing.T) {
	writer, err := Parse(`
byte "creator"
txn Sender
app_global_put
int 1
return
`)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := Parse(`
byte "creator"
app_global_get
txn Sender
==
return
`)
	if err != nil {
		t.Fatal(err)
	}
	led := NewMemLedger()
	creator := chain.AddressFromBytes([]byte("the-creator-address!"))
	stranger := chain.AddressFromBytes([]byte("a-total-stranger----"))
	if res := Execute(writer, led, TxContext{AppID: 1, Sender: creator}); res.Err != nil {
		t.Fatal(res.Err)
	}
	// The stranger's call reuses the pooled machine; the stored global must
	// not follow it.
	if res := Execute(checker, led, TxContext{AppID: 1, Sender: stranger}); res.Err != nil || res.Approved {
		t.Fatalf("stored creator aliased the pooled machine: approved=%v err=%v", res.Approved, res.Err)
	}
	if res := Execute(checker, led, TxContext{AppID: 1, Sender: creator}); res.Err != nil || !res.Approved {
		t.Fatalf("creator no longer matches its own stored address: approved=%v err=%v", res.Approved, res.Err)
	}
}

// TestPooledMachineConcurrent exercises the machine pool under -race.
func TestPooledMachineConcurrent(t *testing.T) {
	prog, err := Parse(`
int 6
int 7
*
itob
log
int 1
return
`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			led := NewMemLedger()
			for i := 0; i < 200; i++ {
				res := Execute(prog, led, TxContext{AppID: 1, Sender: chain.Address{byte(i)}})
				if res.Err != nil {
					done <- res.Err
					return
				}
				if v, err := Btoi([]byte(res.Logs[0])); err != nil || v != 42 {
					done <- res.Err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestInstrCostPrecomputed(t *testing.T) {
	prog, err := Parse(`
byte "x"
sha256
pop
int 1
return
`)
	if err != nil {
		t.Fatal(err)
	}
	var sha Instr
	for _, ins := range prog.Instrs {
		if ins.Op == "sha256" {
			sha = ins
		}
		if ins.Cost == 0 {
			t.Fatalf("instruction %q has no precomputed cost", ins.Op)
		}
	}
	if sha.Cost != 35 {
		t.Fatalf("sha256 cost = %d, want 35", sha.Cost)
	}
	// And the executed cost matches: byte(1) + sha256(35) + pop(1) + int(1) + return(1).
	res := Execute(prog, NewMemLedger(), TxContext{AppID: 1})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Cost != 39 {
		t.Fatalf("cost = %d, want 39", res.Cost)
	}
}

func BenchmarkExecuteLoop(b *testing.B) {
	prog, err := Parse(`
byte "n"
int 50
app_global_put
loop:
byte "n"
byte "n"
app_global_get
int 1
-
app_global_put
byte "n"
app_global_get
bnz loop
int 1
return
`)
	if err != nil {
		b.Fatal(err)
	}
	led := NewMemLedger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Execute(prog, led, TxContext{AppID: 1, BudgetTxns: 2}); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
