package core

import (
	"strings"
	"testing"
	"time"

	"agnopol/internal/eth"
	"agnopol/internal/faults"
	"agnopol/internal/lang"
)

// compilePing builds the smallest contract with a paid API, so the retry
// tests exercise the full submit path without PoL-contract ceremony.
func compilePing(t *testing.T) *lang.Compiled {
	t.Helper()
	p := lang.NewProgram("ping")
	p.DeclareGlobal("count", lang.TUInt)
	p.SetConstructor(nil)
	p.AddAPI(&lang.API{
		Name:    "ping",
		Returns: lang.TUInt,
		Body: []lang.Stmt{
			&lang.SetGlobal{Name: "count", Value: lang.Add(lang.G("count"), lang.U(1))},
			&lang.Return{Value: lang.G("count")},
		},
	})
	c, err := lang.Compile(p, lang.Options{MaxBytesLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newPingWorld deploys the ping contract on a clean Goerli chain; faults
// are attached only after deployment so the deploy itself never retries.
func newPingWorld(t *testing.T, seed uint64) (*eth.Chain, *EVMConnector, *Account, *Handle) {
	t.Helper()
	ch := eth.NewChain(eth.Goerli(), seed)
	conn := NewEVMConnector(ch)
	acct, err := conn.NewAccount(50)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := conn.Deploy(acct, compilePing(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ch, conn, acct, h
}

// TestInvokeRetriesThroughTxDrop drives Invoke into a certain-drop
// mempool with a two-fault budget: the call must succeed on the third
// attempt, report both retries, advance the simulated clock by the
// capped-exponential backoffs, and account both faults as recovered.
func TestInvokeRetriesThroughTxDrop(t *testing.T) {
	ch, conn, acct, h := newPingWorld(t, 1)
	inj := faults.NewInjector(&faults.Plan{
		Rates: map[string]float64{faults.ClassTxDrop: 1}, Burst: 2,
	}, 7, nil)
	ch.SetFaults(inj)
	conn.SetResilience(faults.DefaultRetry)

	before := conn.Now()
	v, op, err := conn.Invoke(acct, h, "ping", CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint != 1 {
		t.Fatalf("ping returned %d, want 1", v.Uint)
	}
	if op.Retries != 2 {
		t.Fatalf("retries = %d, want 2", op.Retries)
	}
	// DefaultRetry backs off 2s then 4s before the winning attempt.
	if waited := conn.Now() - before; waited < 6*time.Second {
		t.Fatalf("simulated clock advanced %v, want ≥ 6s of backoff", waited)
	}
	if op.Latency < 6*time.Second {
		t.Fatalf("latency %v does not span the backoff waits", op.Latency)
	}
	for _, s := range inj.Snapshot() {
		if s.Class != faults.ClassTxDrop {
			continue
		}
		if s.Injected != 2 || s.Recovered != 2 {
			t.Fatalf("tx_drop injected/recovered = %d/%d, want 2/2", s.Injected, s.Recovered)
		}
	}
}

// TestInvokeDeadlineOnSimulatedClock pins the per-call deadline: against
// an unbounded fault storm the call must give up with a deadline error
// once the cumulative simulated backoff would cross CallOpts.Deadline.
func TestInvokeDeadlineOnSimulatedClock(t *testing.T) {
	ch, conn, acct, h := newPingWorld(t, 2)
	ch.SetFaults(faults.NewInjector(&faults.Plan{
		Rates: map[string]float64{faults.ClassTxDrop: 1},
	}, 3, nil))

	before := conn.Now()
	_, _, err := conn.Invoke(acct, h, "ping", CallOpts{
		Deadline: 10 * time.Second,
		Retry:    faults.RetryPolicy{MaxAttempts: 1000, BaseBackoff: 2 * time.Second, MaxBackoff: 4 * time.Second},
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
	if cls, ok := faults.ClassOf(err); !ok || cls != faults.ClassTxDrop {
		t.Fatalf("deadline error lost its fault class: %v", err)
	}
	// The giving-up check runs before the sleep, so the clock stays at or
	// under the deadline.
	if waited := conn.Now() - before; waited > 10*time.Second {
		t.Fatalf("clock ran %v past a 10s deadline", waited)
	}
}

// TestZeroPolicySingleAttempt is the historical behaviour: without
// SetResilience and with zero CallOpts, a dropped submission surfaces
// immediately as its fault error — one attempt, no retries, no recovery.
func TestZeroPolicySingleAttempt(t *testing.T) {
	ch, conn, acct, h := newPingWorld(t, 4)
	inj := faults.NewInjector(&faults.Plan{
		Rates: map[string]float64{faults.ClassTxDrop: 1},
	}, 5, nil)
	ch.SetFaults(inj)

	_, op, err := conn.Invoke(acct, h, "ping", CallOpts{})
	if err == nil {
		t.Fatal("want a surfaced fault, got success")
	}
	if cls, ok := faults.ClassOf(err); !ok || cls != faults.ClassTxDrop {
		t.Fatalf("error is not a tx_drop fault: %v", err)
	}
	_ = op
	for _, s := range inj.Snapshot() {
		if s.Class == faults.ClassTxDrop && s.Recovered != 0 {
			t.Fatalf("single-attempt failure recorded %d recoveries", s.Recovered)
		}
	}
}
