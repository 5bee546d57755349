// Package faults is the deterministic fault-injection engine: a seed-driven
// source of "should this operation fail here?" decisions that the chain
// simulators, the IPFS swarm, the hypercube DHT and the PoL actors consult
// at well-known sites. Every decision is a pure function of (seed, site,
// sequence) — the same splitmix64 finalizer the experiment matrix derives
// its per-run seeds from — so a faulted run is bit-for-bit reproducible at
// any parallelism: per-site sequence counters advance with the run's own
// (single-threaded) operation order, never with worker scheduling.
//
// The package also owns the resilience side: RetryPolicy is the capped
// exponential backoff (on simulated clocks) the connector layer and the
// prover/witness/verifier actors apply when an injected fault surfaces as
// a transient error. Injections and recoveries are counted per class, both
// locally and — when an obs registry is attached — as
// faults_injected_total / faults_recovered_total series.
package faults

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// Fault classes — the named failure modes a Plan can enable. Classes that
// surface as errors (transient, retryable) are tx_drop, witness_unavailable,
// ipfs_fetch and ipfs_unpin; tx_delay, congestion and cube_node_down degrade
// latency or routing without erroring, and recover implicitly.
const (
	// ClassTxDrop drops a submitted transaction (or group) at the mempool:
	// the node accepts the RPC but the transaction never propagates.
	ClassTxDrop = "tx_drop"
	// ClassTxDelay delays a submitted transaction's propagation by up to a
	// few block intervals before it becomes includable.
	ClassTxDelay = "tx_delay"
	// ClassCongestion starts a background-demand storm on the EVM chains:
	// blocks fill, the base fee climbs, user transactions get priced out.
	ClassCongestion = "congestion"
	// ClassWitnessDown makes a witness not answer the Bluetooth exchange
	// (churn/no-response during discovery and signing).
	ClassWitnessDown = "witness_unavailable"
	// ClassIPFSFetch fails a content fetch: no reachable provider answers
	// this request.
	ClassIPFSFetch = "ipfs_fetch"
	// ClassIPFSUnpin fails a pin operation, leaving content at risk of
	// garbage collection until re-pinned.
	ClassIPFSUnpin = "ipfs_unpin"
	// ClassCubeNodeDown fails a hypercube node on a routing path, forcing
	// greedy routing to detour around it.
	ClassCubeNodeDown = "cube_node_down"
)

// Classes lists every fault class in report order.
func Classes() []string {
	return []string{
		ClassTxDrop, ClassTxDelay, ClassCongestion, ClassWitnessDown,
		ClassIPFSFetch, ClassIPFSUnpin, ClassCubeNodeDown,
	}
}

// Plan selects which fault classes are active and how often they fire.
// The zero rate disables a class; a Plan with every rate zero is inert —
// an Injector built from it draws nothing and perturbs nothing, so runs
// are bit-identical to the no-faults path.
type Plan struct {
	// Rates maps class name to per-decision probability in [0,1].
	Rates map[string]float64
	// Burst, when positive, caps how many faults each (class, site) stream
	// may inject — the deterministic way tests and bounded storms say
	// "fail twice, then behave".
	Burst int
}

// Uniform returns a plan with every class at the same rate.
func Uniform(rate float64) *Plan {
	p := &Plan{Rates: make(map[string]float64)}
	for _, c := range Classes() {
		p.Rates[c] = rate
	}
	return p
}

// Profiles are the named class subsets `polbench faults` sweeps.
var profiles = map[string][]string{
	"default": Classes(),
	"chain":   {ClassTxDrop, ClassTxDelay, ClassCongestion},
	"witness": {ClassWitnessDown},
	"ipfs":    {ClassIPFSFetch, ClassIPFSUnpin},
	"cube":    {ClassCubeNodeDown},
}

// ProfileNames lists the known profiles, sorted.
func ProfileNames() []string {
	out := make([]string, 0, len(profiles))
	for name := range profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Profile builds the plan for a named class subset at the given rate.
func Profile(name string, rate float64) (*Plan, error) {
	classes, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("faults: unknown profile %q (known: %v)", name, ProfileNames())
	}
	if !(rate >= 0 && rate <= 1) { // written so that NaN is refused too
		return nil, fmt.Errorf("faults: rate %v outside [0,1]", rate)
	}
	p := &Plan{Rates: make(map[string]float64)}
	for _, c := range classes {
		p.Rates[c] = rate
	}
	return p, nil
}

// Fault is the error an injected, retryable failure surfaces as. Layers
// detect it with errors.As (via ClassOf) to distinguish transient injected
// faults from genuine protocol failures.
type Fault struct {
	Class string
	Site  string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("injected fault: %s at %s", f.Class, f.Site)
}

// ClassOf extracts the fault class from an error chain; ok is false when
// the error is not (wrapping) an injected fault.
func ClassOf(err error) (string, bool) {
	for e := err; e != nil; {
		if f, ok := e.(*Fault); ok {
			return f.Class, true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return "", false
		}
		e = u.Unwrap()
	}
	return "", false
}

// Transient reports whether an error is an injected fault a retry can
// overcome.
func Transient(err error) bool {
	_, ok := ClassOf(err)
	return ok
}

// Injector draws fault decisions for one run. A nil *Injector is inert:
// every method is a no-op and every Hit/Try answers "no fault", so
// uninstrumented code pays a single nil check.
type Injector struct {
	plan *Plan
	seed uint64

	mu        sync.Mutex
	seq       map[string]uint64 // (class,site) -> next sequence number
	burst     map[string]int    // (class,site) -> faults already injected
	injected  map[string]uint64 // class -> injected count
	recovered map[string]uint64 // class -> recovered count

	// Registry counters, nil when no registry is attached.
	injCtr map[string]*obs.Counter
	recCtr map[string]*obs.Counter
}

// NewInjector builds the injector for one run from the shared plan and the
// run's derived seed. A nil plan returns a nil (inert) injector; a zero-rate
// plan returns a live injector that never fires, so the zero-rate path is
// exercised but bit-identical to no faults. When reg is non-nil the
// per-class faults_injected_total / faults_recovered_total counters are
// registered up front so the exposition shows zeros for quiet classes.
func NewInjector(plan *Plan, seed uint64, reg *obs.Registry) *Injector {
	if plan == nil {
		return nil
	}
	inj := &Injector{
		plan:      plan,
		seed:      seed,
		seq:       make(map[string]uint64),
		burst:     make(map[string]int),
		injected:  make(map[string]uint64),
		recovered: make(map[string]uint64),
	}
	if reg != nil {
		inj.injCtr = make(map[string]*obs.Counter)
		inj.recCtr = make(map[string]*obs.Counter)
		for _, c := range Classes() {
			inj.injCtr[c] = reg.Counter("faults_injected_total", obs.L("class", c))
			inj.recCtr[c] = reg.Counter("faults_recovered_total", obs.L("class", c))
		}
		reg.Help("faults_injected_total", "Faults injected by the deterministic fault engine, per class.")
		reg.Help("faults_recovered_total", "Injected faults the resilience layer recovered from, per class.")
	}
	return inj
}

// mix is the splitmix64 finalizer, the same mixer the matrix seed
// derivation uses.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// siteKey hashes (class, site) into the stream's base offset.
func siteKey(class, site string) uint64 {
	h := polcrypto.Hash([]byte(class), []byte{0}, []byte(site))
	return binary.BigEndian.Uint64(h[:8])
}

// draw returns two uniforms in [0,1) for the stream's next sequence number
// — a pure function of (seed, site, sequence).
func (inj *Injector) draw(key string, base uint64) (float64, float64) {
	inj.mu.Lock()
	seq := inj.seq[key]
	inj.seq[key] = seq + 1
	inj.mu.Unlock()
	u1 := mix(inj.seed ^ base ^ mix(2*seq+1)*0x9E3779B97F4A7C15)
	u2 := mix(inj.seed ^ base ^ mix(2*seq+2)*0x9E3779B97F4A7C15)
	return float64(u1>>11) / float64(uint64(1)<<53), float64(u2>>11) / float64(uint64(1)<<53)
}

// hit decides the stream's next draw and returns the secondary uniform for
// magnitude shaping.
func (inj *Injector) hit(class, site string) (bool, float64) {
	if inj == nil {
		return false, 0
	}
	rate := inj.plan.Rates[class]
	if rate <= 0 {
		return false, 0
	}
	key := class + "\x00" + site
	u1, u2 := inj.draw(key, siteKey(class, site))
	if u1 >= rate {
		return false, 0
	}
	inj.mu.Lock()
	if inj.plan.Burst > 0 && inj.burst[key] >= inj.plan.Burst {
		inj.mu.Unlock()
		return false, 0
	}
	inj.burst[key]++
	inj.injected[class]++
	inj.mu.Unlock()
	inj.injCtr[class].Inc()
	return true, u2
}

// Hit reports whether the class's next decision at this site injects a
// fault, counting the injection when it does.
func (inj *Injector) Hit(class, site string) bool {
	h, _ := inj.hit(class, site)
	return h
}

// Draw is Hit plus a deterministic magnitude uniform in [0,1) for shaping
// the fault (delay length, storm duration).
func (inj *Injector) Draw(class, site string) (bool, float64) {
	return inj.hit(class, site)
}

// Try returns the injected *Fault for the class's next decision at this
// site, or nil when no fault fires — the one-liner for error-surfacing
// sites.
func (inj *Injector) Try(class, site string) error {
	if h, _ := inj.hit(class, site); h {
		return &Fault{Class: class, Site: site}
	}
	return nil
}

// Recover counts one recovered fault of a class (a retry, reroute or
// re-pin that overcame an injection).
func (inj *Injector) Recover(class string) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	inj.recovered[class]++
	inj.mu.Unlock()
	inj.recCtr[class].Inc()
}

// RecoverN counts n recovered faults of a class.
func (inj *Injector) RecoverN(class string, n int) {
	for i := 0; i < n; i++ {
		inj.Recover(class)
	}
}

// ClassStats is one class's injection/recovery tally.
type ClassStats struct {
	Class     string
	Injected  uint64
	Recovered uint64
}

// Snapshot returns per-class tallies in Classes() order (quiet classes
// included with zeros). A nil injector returns nil.
func (inj *Injector) Snapshot() []ClassStats {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]ClassStats, 0, len(Classes()))
	for _, c := range Classes() {
		out = append(out, ClassStats{Class: c, Injected: inj.injected[c], Recovered: inj.recovered[c]})
	}
	return out
}

// RetryPolicy is the capped-exponential-backoff resilience policy applied
// on simulated clocks: attempt n sleeps BaseBackoff<<(n-1), capped at
// MaxBackoff, and the whole operation gives up once Deadline of simulated
// time has elapsed. The zero value means "no retries" — exactly one
// attempt, no deadline — which keeps un-faulted runs on the historical
// code path.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (first try included); values
	// below 1 mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Deadline bounds the operation's total simulated time across
	// attempts; 0 means unbounded.
	Deadline time.Duration
}

// DefaultRetry is the policy the simulator wires when a fault plan is
// active: durations are simulated time, so generous budgets cost no wall
// clock.
var DefaultRetry = RetryPolicy{
	MaxAttempts: 8,
	BaseBackoff: 2 * time.Second,
	MaxBackoff:  30 * time.Second,
	Deadline:    15 * time.Minute,
}

// IsZero reports whether the policy is the zero value (single attempt).
func (p RetryPolicy) IsZero() bool { return p == RetryPolicy{} }

// Attempts is MaxAttempts clamped to at least one.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the capped exponential delay before retry n (1-based:
// Backoff(1) follows the first failed attempt).
func (p RetryPolicy) Backoff(n int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	d := p.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}
