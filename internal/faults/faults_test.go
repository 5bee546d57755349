package faults

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"agnopol/internal/obs"
)

// uniform is every fault class at one rate (the "default" profile).
func uniform(rate float64) *Plan {
	p, err := Profile("default", rate)
	if err != nil {
		panic(err)
	}
	return p
}

// TestStreamDeterminism: two injectors with the same (plan, seed) must
// agree decision-for-decision regardless of when they were built, and the
// interleaving of *other* sites' draws must not shift a site's stream —
// that's the property that makes runs bit-identical at any parallelism.
func TestStreamDeterminism(t *testing.T) {
	plan := uniform(0.5)
	a := NewInjector(plan, 42, nil)
	b := NewInjector(plan, 42, nil)

	var seqA []bool
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Hit(ClassTxDrop, "eth.mempool"))
	}
	// b interleaves draws on unrelated sites between every tx_drop draw.
	var seqB []bool
	for i := 0; i < 200; i++ {
		b.Hit(ClassIPFSFetch, "ipfs.get")
		b.Hit(ClassWitnessDown, "core.witness")
		seqB = append(seqB, b.Hit(ClassTxDrop, "eth.mempool"))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("draw %d diverged under interleaving: %v vs %v", i, seqA[i], seqB[i])
		}
	}

	// Different seeds must decorrelate.
	c := NewInjector(plan, 43, nil)
	same := 0
	for i := 0; i < 200; i++ {
		if c.Hit(ClassTxDrop, "eth.mempool") == seqA[i] {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seed 43 reproduced seed 42's stream exactly")
	}
}

// TestRates: rate 0 never fires (and counts nothing), rate 1 always
// fires, intermediate rates land near their expectation.
func TestRates(t *testing.T) {
	o := obs.New()
	zero := NewInjector(uniform(0), 7, o.Registry)
	one := NewInjector(uniform(1), 7, nil)
	half := NewInjector(uniform(0.5), 7, nil)
	zeroHits, oneHits, halfHits := 0, 0, 0
	for i := 0; i < 1000; i++ {
		if zero.Hit(ClassTxDrop, "s") {
			zeroHits++
		}
		if one.Hit(ClassTxDrop, "s") {
			oneHits++
		}
		if half.Hit(ClassTxDrop, "s") {
			halfHits++
		}
	}
	if zeroHits != 0 {
		t.Errorf("rate 0 fired %d times", zeroHits)
	}
	if oneHits != 1000 {
		t.Errorf("rate 1 fired %d/1000 times", oneHits)
	}
	if halfHits < 400 || halfHits > 600 {
		t.Errorf("rate 0.5 fired %d/1000 times, implausibly far from 500", halfHits)
	}
	if got := o.Registry.Counter("faults_injected_total", obs.L("class", ClassTxDrop)).Value(); got != 0 {
		t.Errorf("zero-rate injector counted %d injections", got)
	}
}

// TestBurstCap: Burst bounds each (class, site) stream independently.
func TestBurstCap(t *testing.T) {
	plan := uniform(1)
	plan.Burst = 2
	inj := NewInjector(plan, 9, nil)
	hits := 0
	for i := 0; i < 10; i++ {
		if inj.Hit(ClassTxDrop, "siteA") {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("siteA injected %d faults, want burst cap 2", hits)
	}
	// An unrelated site has its own budget.
	if !inj.Hit(ClassTxDrop, "siteB") {
		t.Fatal("siteB stream exhausted by siteA's burst budget")
	}
}

// TestNilInjector: every method on a nil injector is an inert no-op.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if inj.Hit(ClassTxDrop, "s") {
		t.Fatal("nil injector fired")
	}
	if err := inj.Try(ClassTxDrop, "s"); err != nil {
		t.Fatal("nil injector returned a fault")
	}
	inj.Recover(ClassTxDrop) // must not panic
	calls := 0
	fault := &Fault{Class: ClassTxDrop, Site: "s"}
	if n, err := inj.Retry(func(time.Duration) { t.Fatal("nil injector slept") }, func() error {
		calls++
		return fault
	}); n != 0 || err != fault || calls != 1 {
		t.Fatalf("nil injector Retry: %d retries, err %v, %d calls; want one bare attempt", n, err, calls)
	}
	if NewInjector(nil, 1, nil) != nil {
		t.Fatal("nil plan did not produce a nil injector")
	}
}

// TestFaultError: ClassOf sees through wrapping; ordinary errors carry no
// class.
func TestFaultError(t *testing.T) {
	f := &Fault{Class: ClassIPFSFetch, Site: "ipfs.get"}
	wrapped := fmt.Errorf("fetch report: %w", f)
	if cls, ok := ClassOf(wrapped); !ok || cls != ClassIPFSFetch {
		t.Fatalf("ClassOf(wrapped) = %q, %v", cls, ok)
	}
	if _, ok := ClassOf(errors.New("genuine failure")); ok {
		t.Fatal("plain error produced a class")
	}
	if _, ok := ClassOf(nil); ok {
		t.Fatal("nil error produced a class")
	}
}

// TestRegistryCounters: injections and recoveries land in the obs
// registry per class, with quiet classes pre-registered at zero.
func TestRegistryCounters(t *testing.T) {
	o := obs.New()
	plan := uniform(1)
	plan.Burst = 3
	inj := NewInjector(plan, 5, o.Registry)
	for i := 0; i < 5; i++ {
		inj.Hit(ClassTxDrop, "s")
	}
	inj.Recover(ClassTxDrop)
	inj.Recover(ClassTxDrop)
	if got := o.Registry.Counter("faults_injected_total", obs.L("class", ClassTxDrop)).Value(); got != 3 {
		t.Errorf("faults_injected_total{tx_drop} = %d, want 3", got)
	}
	if got := o.Registry.Counter("faults_recovered_total", obs.L("class", ClassTxDrop)).Value(); got != 2 {
		t.Errorf("faults_recovered_total{tx_drop} = %d, want 2", got)
	}
	// Quiet class present at zero (pre-registered).
	if got := o.Registry.Counter("faults_injected_total", obs.L("class", ClassCubeNodeDown)).Value(); got != 0 {
		t.Errorf("quiet class counted %d", got)
	}
}

// TestProfiles: known names resolve to their class subsets; unknown names
// and out-of-range rates error.
func TestProfiles(t *testing.T) {
	p, err := Profile("ipfs", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rates) != 2 || p.Rates[ClassIPFSFetch] != 0.3 || p.Rates[ClassIPFSUnpin] != 0.3 {
		t.Fatalf("ipfs profile = %+v", p.Rates)
	}
	if p.Rates[ClassTxDrop] != 0 {
		t.Fatal("ipfs profile enabled tx_drop")
	}
	if def, err := Profile("default", 0.1); err != nil || len(def.Rates) != len(Classes()) {
		t.Fatalf("default profile = %+v, %v", def, err)
	}
	if _, err := Profile("bogus", 0.1); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := Profile("default", 1.5); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
	if _, err := Profile("default", -0.1); err == nil {
		t.Fatal("rate -0.1 accepted")
	}
}

// TestProfileRejectsNaN: NaN fails both `rate < 0` and `rate > 1`, and an
// injector's `rate <= 0` / `u1 >= rate` checks are false for it too, so a
// NaN rate let through would fire on every draw.
func TestProfileRejectsNaN(t *testing.T) {
	if _, err := Profile("default", math.NaN()); err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Fatalf("Profile(NaN) error = %v, want outside [0,1]", err)
	}
}

// TestBackoff: capped exponential growth of the retry backoff.
func TestBackoff(t *testing.T) {
	want := []time.Duration{
		2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second,
		30 * time.Second, 30 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := backoff(200); got != maxBackoff {
		t.Errorf("backoff(200) = %v, want the %v cap", got, maxBackoff)
	}
}

// TestRetry: faults back off and retry, a later success credits every
// fault it overcame, a plain error ends the loop at once, and a fault on
// every attempt gives up after maxAttempts with its class still readable.
func TestRetry(t *testing.T) {
	o := obs.New()
	inj := NewInjector(&Plan{}, 1, o.Registry)
	recovered := func(class string) uint64 {
		return o.Registry.Counter("faults_recovered_total", obs.L("class", class)).Value()
	}
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d) }

	faultsFirst := []error{&Fault{Class: ClassTxDrop}, &Fault{Class: ClassIPFSFetch}, nil}
	n, err := inj.Retry(sleep, func() error { e := faultsFirst[0]; faultsFirst = faultsFirst[1:]; return e })
	if n != 2 || err != nil {
		t.Fatalf("Retry = %d, %v; want 2 retries and success", n, err)
	}
	if fmt.Sprint(slept) != "[2s 4s]" || recovered(ClassTxDrop) != 1 || recovered(ClassIPFSFetch) != 1 {
		t.Fatalf("slept %v, recovered tx_drop %d ipfs_fetch %d; want [2s 4s], 1, 1",
			slept, recovered(ClassTxDrop), recovered(ClassIPFSFetch))
	}

	plain := errors.New("genuine failure")
	calls := 0
	if n, err := inj.Retry(sleep, func() error { calls++; return plain }); n != 0 || err != plain || calls != 1 {
		t.Fatalf("plain error: %d retries, err %v, %d calls; want no retry", n, err, calls)
	}

	slept, calls = nil, 0
	n, err = inj.Retry(sleep, func() error { calls++; return &Fault{Class: ClassTxDrop} })
	if calls != maxAttempts || n != maxAttempts-1 || len(slept) != maxAttempts-1 {
		t.Fatalf("exhaustion: %d calls, %d retries, %d sleeps; want %d, %d, %d",
			calls, n, len(slept), maxAttempts, maxAttempts-1, maxAttempts-1)
	}
	if cls, ok := ClassOf(err); !ok || cls != ClassTxDrop || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("exhaustion error %v lost its class or its reason", err)
	}
	if recovered(ClassTxDrop) != 1 {
		t.Fatalf("an exhausted retry credited %d recoveries", recovered(ClassTxDrop)-1)
	}

	calls = 0
	if _, err := inj.Retry(nil, func() error {
		if calls++; calls < 3 {
			return &Fault{Class: ClassIPFSUnpin}
		}
		return nil
	}); err != nil || calls != 3 {
		t.Fatalf("nil sleep: err %v after %d calls; want success on the third", err, calls)
	}
}
