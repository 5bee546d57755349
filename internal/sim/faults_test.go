package sim

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"agnopol/internal/faults"
	"agnopol/internal/obs"
)

// defaultProfile is every fault class at one rate.
func defaultProfile(t *testing.T, rate float64) *faults.Plan {
	t.Helper()
	p, err := faults.Profile("default", rate)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMatrixDeterministicAcrossParallelismWithFaults extends the engine's
// core guarantee to fault injection: every run's fault stream is a pure
// function of (derived seed, site, sequence), so a sequential sweep and an
// over-subscribed parallel sweep of the same faulty grid must agree run
// for run — injected delays, drops and retries included.
func TestMatrixDeterministicAcrossParallelismWithFaults(t *testing.T) {
	spec := MatrixSpec{
		Cells: smallGrid, Reps: 2, Seed: 11, Parallel: 1,
		Faults: defaultProfile(t, 0.3), Verify: true,
	}
	seq, err := RunMatrix(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallel = 8
	par, err := RunMatrix(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Summaries, par.Summaries) {
		t.Fatalf("faulty summaries diverge across parallelism:\nseq: %+v\npar: %+v", seq.Summaries, par.Summaries)
	}
	for i := range seq.Runs {
		if !reflect.DeepEqual(seq.Runs[i].Result.Measurements, par.Runs[i].Result.Measurements) {
			t.Fatalf("run %d measurements diverged across parallelism under faults", i)
		}
	}
}

// TestZeroRateFaultPlanMatchesNoFaultRun is the bit-identity regression:
// a zero-rate plan must leave every measurement exactly where the
// fault-free code path puts it — the injector consumes no randomness the
// chain would otherwise see, and the resilience layer adds no latency
// when nothing fails.
func TestZeroRateFaultPlanMatchesNoFaultRun(t *testing.T) {
	for _, chain := range AllChains {
		plain, err := Execute(Spec{Chain: chain, Users: 8, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := Execute(Spec{Chain: chain, Users: 8, Seed: 21, Faults: defaultProfile(t, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Measurements, faulty.Measurements) {
			t.Fatalf("%s: zero-rate plan diverged from the no-fault run:\nplain:  %+v\nfaulty: %+v",
				chain, plain.Measurements, faulty.Measurements)
		}
		if !reflect.DeepEqual(plain.DeploySummary, faulty.DeploySummary) ||
			!reflect.DeepEqual(plain.AttachSummary, faulty.AttachSummary) {
			t.Fatalf("%s: zero-rate summaries diverged", chain)
		}
	}
}

// TestFaultSweepRecoversEveryRetryableClass runs the polbench reliability
// grid in miniature and asserts the obs registry shows every retryable
// fault class both injected and recovered — the pipeline survives the
// default profile end to end.
func TestFaultSweepRecoversEveryRetryableClass(t *testing.T) {
	o := obs.New()
	_, err := RunMatrix(MatrixSpec{
		Cells: smallGrid, Reps: 3, Seed: 7, Parallel: 4,
		Faults: defaultProfile(t, 0.3), Verify: true,
	}, o)
	if err != nil {
		t.Fatalf("pipeline did not survive the default fault profile: %v", err)
	}
	retryable := []string{
		faults.ClassTxDrop, faults.ClassWitnessDown,
		faults.ClassIPFSFetch, faults.ClassIPFSUnpin,
	}
	for _, cls := range retryable {
		inj := o.Registry.Counter("faults_injected_total", obs.L("class", cls)).Value()
		rec := o.Registry.Counter("faults_recovered_total", obs.L("class", cls)).Value()
		if inj == 0 {
			t.Errorf("class %s never injected at rate 0.3 — injection site unwired?", cls)
		}
		if rec == 0 {
			t.Errorf("class %s injected %d times but never recovered", cls, inj)
		}
	}
}

// TestFaultedRunGolden pins what the resilience layer does under the
// default profile across commits: every measurement, the verification
// phase, the per-class injected/recovered counters and the retries the
// pipeline's spans record, for three presets × two seeds × two rates. The
// constant was captured before the retry loops were folded into
// faults.Injector.Retry; if this fails, a change moved a retry, a backoff
// or a recovery credit.
func TestFaultedRunGolden(t *testing.T) {
	const want = "5494948b1b59d837258ce0a5422588b15025eedc47237c50c95b46682439bfc5"
	h := sha256.New()
	for _, chain := range AllChains {
		for _, seed := range []uint64{13, 29} {
			for _, rate := range []float64{0.2, 0.4} {
				plan, err := faults.Profile("default", rate)
				if err != nil {
					t.Fatal(err)
				}
				o := obs.New()
				r, err := Execute(Spec{Chain: chain, Users: 16, Seed: seed, Verify: true, Faults: plan, Obs: o})
				if err != nil {
					t.Fatalf("%s seed %d rate %v: %v", chain, seed, rate, err)
				}
				fmt.Fprintf(h, "%s/%d/%v\n", chain, seed, rate)
				for _, m := range r.Measurements {
					fmt.Fprintf(h, "m %d %s %v %d %v %d\n", m.User, m.OLC, m.Deployed, m.Latency, m.Fee.Base, m.GasUsed)
				}
				fmt.Fprintf(h, "v %+v %v %d\n", r.VerifySummary, r.VerifyFees.Base, r.Accepted)
				for _, cls := range faults.Classes() {
					fmt.Fprintf(h, "c %s %d %d\n", cls,
						o.Registry.Counter("faults_injected_total", obs.L("class", cls)).Value(),
						o.Registry.Counter("faults_recovered_total", obs.L("class", cls)).Value())
				}
				retries := 0
				for _, sp := range o.Tracer.Spans() {
					for _, l := range sp.Labels {
						if l.Key == "retries" {
							n, err := strconv.Atoi(l.Value)
							if err != nil {
								t.Fatal(err)
							}
							retries += n
						}
					}
				}
				fmt.Fprintf(h, "r %d\n", retries)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("faulted-run digest = %s, want %s", got, want)
	}
}

// TestExecuteVerifyUnderFaults pins graceful degradation end to end: with
// every class firing at a high rate, the verify flavour must still accept
// all provers.
func TestExecuteVerifyUnderFaults(t *testing.T) {
	r, err := Execute(Spec{
		Chain: ChainAlgorand, Users: 8, Seed: 13,
		Verify: true, Faults: defaultProfile(t, 0.4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted != 8 {
		t.Fatalf("accepted = %d of 8 under faults", r.Accepted)
	}
}
