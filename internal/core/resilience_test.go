package core

import (
	"fmt"
	"testing"
	"time"

	"agnopol/internal/eth"
	"agnopol/internal/faults"
	"agnopol/internal/lang"
	"agnopol/internal/obs"
	"agnopol/internal/olc"
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

// txDropCounts reads the tx_drop class's injected and recovered counters.
func txDropCounts(reg *obs.Registry) (injected, recovered uint64) {
	cls := obs.L("class", faults.ClassTxDrop)
	return reg.Counter("faults_injected_total", cls).Value(), reg.Counter("faults_recovered_total", cls).Value()
}

// TestInvokeRetriesThroughTxDrop drives Invoke into a certain-drop
// mempool with a two-fault budget: the call must succeed on the third
// attempt, report both retries, advance the simulated clock by the
// capped-exponential backoffs, and account both faults as recovered.
func TestInvokeRetriesThroughTxDrop(t *testing.T) {
	ch, conn, acct, h := newPingWorld(t, 1)
	reg := obs.NewRegistry()
	ch.SetFaults(faults.NewInjector(&faults.Plan{
		Rates: map[string]float64{faults.ClassTxDrop: 1}, Burst: 2,
	}, 7, reg))

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
	// Retry backs off 2s then 4s before the winning attempt.
	if waited := conn.Now() - before; waited < 6*time.Second {
		t.Fatalf("simulated clock advanced %v, want ≥ 6s of backoff", waited)
	}
	if op.Latency < 6*time.Second {
		t.Fatalf("latency %v does not span the backoff waits", op.Latency)
	}
	if inj, rec := txDropCounts(reg); inj != 2 || rec != 2 {
		t.Fatalf("tx_drop injected/recovered = %d/%d, want 2/2", inj, rec)
	}
}

// TestInvokeExhaustsAttemptBudget: against a mempool that drops every
// submission, Invoke gives up after the retry budget's eight attempts and
// seven backoffs (2+4+8+16+30+30+30 s of simulated time), the error still
// names the fault class, and nothing is counted as recovered.
func TestInvokeExhaustsAttemptBudget(t *testing.T) {
	ch, conn, acct, h := newPingWorld(t, 4)
	reg := obs.NewRegistry()
	ch.SetFaults(faults.NewInjector(&faults.Plan{
		Rates: map[string]float64{faults.ClassTxDrop: 1},
	}, 5, reg))

	before := conn.Now()
	_, op, err := conn.Invoke(acct, h, "ping", CallOpts{})
	if err == nil {
		t.Fatal("want a surfaced fault, got success")
	}
	if cls, ok := faults.ClassOf(err); !ok || cls != faults.ClassTxDrop {
		t.Fatalf("error is not a tx_drop fault: %v", err)
	}
	if op == nil || op.Retries != 7 {
		t.Fatalf("op = %+v, want 7 retries after 8 attempts", op)
	}
	if waited := conn.Now() - before; waited < 120*time.Second {
		t.Fatalf("simulated clock advanced %v, want ≥ 120s of backoff", waited)
	}
	if inj, rec := txDropCounts(reg); inj != 8 || rec != 0 {
		t.Fatalf("tx_drop injected/recovered = %d/%d, want 8/0", inj, rec)
	}
}

// churnAreaCode synthesizes the i-th valid full Open Location Code of the
// test grid by spelling i in base 20 over the second digit quad.
func churnAreaCode(i int) string {
	a := olc.Alphabet
	n := len(a)
	return fmt.Sprintf("7H36%c%c%c%c+Q2",
		a[(i/(n*n*n))%n], a[(i/(n*n))%n], a[(i/n)%n], a[i%n])
}

// TestLookupHopBoundUnderChurn is the property test for the resilience
// claim on the discovery path every binary uses: with the fault engine's
// DHT churn class injecting node failures on routing paths, contract
// publish and lookup still resolve every area and never exceed the
// hypercube's r-hop bound — detours flip a different differing bit, they
// never lengthen the path.
func TestLookupHopBoundUnderChurn(t *testing.T) {
	plan, err := faults.Profile("cube", 0.35)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 99} {
		sys, err := NewSystem(seed)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sys.SetFaults(faults.NewInjector(plan, seed, reg))
		areas := make([]string, 96)
		for i := range areas {
			areas[i] = churnAreaCode(i)
			h := &Handle{Connector: "algorand", AppID: uint64(i) + 1}
			if _, err := sys.PublishContract(uint64(i)%(1<<uint(sys.R)), areas[i], h); err != nil {
				t.Fatal(err)
			}
		}
		for ui := 0; ui < 400; ui++ {
			i := ui % len(areas)
			via := uint64(ui) * 2654435761 & (1<<uint(sys.R) - 1)
			h, hops, ok, err := sys.LookupContract(via, areas[i])
			if err != nil || !ok {
				t.Fatalf("seed %d: churned lookup %s: ok=%v err=%v", seed, areas[i], ok, err)
			}
			if hops > sys.R {
				t.Fatalf("seed %d: lookup %s took %d hops, above the r=%d bound under churn",
					seed, areas[i], hops, sys.R)
			}
			if h.AppID != uint64(i)+1 {
				t.Fatalf("seed %d: lookup %s resolved app %d, published %d", seed, areas[i], h.AppID, i+1)
			}
		}
		if reg.Counter("faults_recovered_total", obs.L("class", faults.ClassCubeNodeDown)).Value() == 0 {
			t.Fatalf("seed %d: churn at rate 0.35 never rerouted a hop — the property was not exercised", seed)
		}
	}
}
