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

// TestStreamDeterminism: two injectors with the same (plan, seed) must
// agree decision-for-decision regardless of when they were built, and the
// interleaving of *other* sites' draws must not shift a site's stream —
// that's the property that makes runs bit-identical at any parallelism.
func TestStreamDeterminism(t *testing.T) {
	plan := Uniform(0.5)
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
	zero := NewInjector(Uniform(0), 7, nil)
	one := NewInjector(Uniform(1), 7, nil)
	half := NewInjector(Uniform(0.5), 7, nil)
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
	if got := zero.Snapshot()[0].Injected; got != 0 {
		t.Errorf("zero-rate injector counted %d injections", got)
	}
}

// TestBurstCap: Burst bounds each (class, site) stream independently.
func TestBurstCap(t *testing.T) {
	plan := Uniform(1)
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
	if inj.Snapshot() != nil {
		t.Fatal("nil injector returned a snapshot")
	}
	if NewInjector(nil, 1, nil) != nil {
		t.Fatal("nil plan did not produce a nil injector")
	}
}

// TestFaultError: ClassOf sees through wrapping; ordinary errors are not
// transient.
func TestFaultError(t *testing.T) {
	f := &Fault{Class: ClassIPFSFetch, Site: "ipfs.get"}
	wrapped := fmt.Errorf("fetch report: %w", f)
	if cls, ok := ClassOf(wrapped); !ok || cls != ClassIPFSFetch {
		t.Fatalf("ClassOf(wrapped) = %q, %v", cls, ok)
	}
	if !Transient(wrapped) {
		t.Fatal("wrapped fault not transient")
	}
	if Transient(errors.New("genuine failure")) {
		t.Fatal("plain error reported transient")
	}
	if _, ok := ClassOf(nil); ok {
		t.Fatal("nil error produced a class")
	}
}

// TestRegistryCounters: injections and recoveries land in the obs
// registry per class, with quiet classes pre-registered at zero.
func TestRegistryCounters(t *testing.T) {
	o := obs.New()
	plan := Uniform(1)
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
	snap := inj.Snapshot()
	if len(snap) != len(Classes()) {
		t.Fatalf("snapshot has %d classes, want %d", len(snap), len(Classes()))
	}
	for _, s := range snap {
		if s.Class == ClassTxDrop && (s.Injected != 3 || s.Recovered != 2) {
			t.Errorf("snapshot tx_drop = %+v, want 3/2", s)
		}
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

// TestBackoff: capped exponential growth on the retry policy.
func TestBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 2 * time.Second, MaxBackoff: 30 * time.Second}
	want := []time.Duration{
		2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second,
		30 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	var zero RetryPolicy
	if !zero.IsZero() || zero.Attempts() != 1 || zero.Backoff(3) != 0 {
		t.Errorf("zero policy: IsZero=%v Attempts=%d Backoff=%v", zero.IsZero(), zero.Attempts(), zero.Backoff(3))
	}
	uncapped := RetryPolicy{BaseBackoff: time.Second}
	if got := uncapped.Backoff(5); got != 16*time.Second {
		t.Errorf("uncapped Backoff(5) = %v, want 16s", got)
	}
}
