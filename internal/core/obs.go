package core

import (
	"time"

	"agnopol/internal/obs"
)

// Pipeline phase names used in core_phase_duration_seconds and as span
// names (prefixed pol.). The PoL lifecycle is discover → challenge →
// sign → submit → verify → publish.
const (
	PhaseDiscover  = "discover"
	PhaseChallenge = "challenge"
	PhaseSign      = "sign"
	PhaseSubmit    = "submit"
	PhaseVerify    = "verify"
	PhasePublish   = "publish"
)

// phaseBuckets covers wall-clock phase durations from 1 µs to 100 s.
// Literal bounds, not powers computed at run time: 1e-6·10 is not
// representable as exactly 1e-5 in float64, and the drift leaks into
// the le labels of the exposition.
var phaseBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100}

// chainOpBuckets covers simulated on-chain operation latency, which is
// dominated by block/round inclusion time.
var chainOpBuckets = []float64{1, 2.5, 5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 300}

// hopBuckets covers hypercube routing distances; the DHT dimension is 6,
// so a greedy route takes at most 6 hops.
var hopBuckets = []float64{0, 1, 2, 3, 4, 5, 6}

// sysObs bundles the proof-pipeline instruments. nil means the system is
// uninstrumented; every hook reduces to a nil check.
type sysObs struct {
	o *obs.Obs
	// scope is the system's span stack. A System runs one proof pipeline
	// at a time, but many instrumented Systems may run concurrently
	// against one shared tracer (sim.RunMatrix); a per-system scope keeps
	// each run's span tree correctly nested.
	scope *obs.Scope

	phases            map[string]*obs.Histogram
	chainOps          map[string]*obs.Histogram
	hops              *obs.Histogram
	proofsIssued      *obs.Counter
	contractsDeployed *obs.Counter
	proofsAttached    *obs.Counter
	verifAccepted     *obs.Counter
	verifRejected     *obs.Counter
	sigCacheHits      *obs.Counter
	sigCacheMisses    *obs.Counter
}

// Instrument attaches an observability bundle to the system: per-phase
// duration histograms, proof-lifecycle counters and the span tracer.
// Passing nil detaches instrumentation.
func (s *System) Instrument(o *obs.Obs) {
	if o == nil || o.Registry == nil {
		s.obs = nil
		return
	}
	reg := o.Registry
	so := &sysObs{
		o:        o,
		scope:    o.Tracer.NewScope(nil),
		phases:   make(map[string]*obs.Histogram),
		chainOps: make(map[string]*obs.Histogram),
	}
	for _, phase := range []string{PhaseDiscover, PhaseChallenge, PhaseSign, PhaseSubmit, PhaseVerify, PhasePublish} {
		so.phases[phase] = reg.Histogram("core_phase_duration_seconds", phaseBuckets, obs.L("phase", phase))
	}
	for _, op := range []string{"deploy", "attach", "verify"} {
		so.chainOps[op] = reg.Histogram("core_chain_op_latency_seconds", chainOpBuckets, obs.L("op", op))
	}
	so.hops = reg.Histogram("core_hypercube_hops", hopBuckets)
	so.proofsIssued = reg.Counter("core_proofs_issued_total")
	so.contractsDeployed = reg.Counter("core_contracts_deployed_total")
	so.proofsAttached = reg.Counter("core_proofs_attached_total")
	so.verifAccepted = reg.Counter("core_verifications_total", obs.L("result", "accepted"))
	so.verifRejected = reg.Counter("core_verifications_total", obs.L("result", "rejected"))
	so.sigCacheHits = reg.Counter("core_sigcache_total", obs.L("result", "hit"))
	so.sigCacheMisses = reg.Counter("core_sigcache_total", obs.L("result", "miss"))
	reg.Help("core_phase_duration_seconds", "Wall-clock duration of each proof-pipeline phase.")
	reg.Help("core_chain_op_latency_seconds", "Simulated latency of on-chain PoL operations.")
	reg.Help("core_hypercube_hops", "DHT routing hops per contract lookup.")
	reg.Help("core_proofs_issued_total", "Location proofs signed by witnesses.")
	reg.Help("core_proofs_rejected_total", "Witness-side proof request rejections by reason.")
	reg.Help("core_contracts_deployed_total", "PoL contracts deployed (first prover in an area).")
	reg.Help("core_proofs_attached_total", "Proofs attached to an existing contract.")
	reg.Help("core_verifications_total", "Verifier decisions on staged proofs.")
	reg.Help("core_sigcache_total", "Signature-verification cache lookups by result.")
	s.obs = so
}

// TraceScope returns the explicit span stack the system's pol.* spans
// record under, or nil when uninstrumented. Harnesses that drive the
// system open their own spans on the same scope, so the pipeline spans
// nest under the harness's per-run and per-user spans.
func (s *System) TraceScope() *obs.Scope {
	if s.obs == nil {
		return nil
	}
	return s.obs.scope
}

// span opens a trace span on the system's scope; nil-safe when
// uninstrumented.
func (s *System) span(name string, labels ...obs.Label) *obs.Span {
	if s.obs == nil {
		return nil
	}
	return s.obs.scope.Start(name, labels...)
}

// endPhase ends a span and records its duration in the phase histogram.
func (s *System) endPhase(sp *obs.Span, phase string) {
	d := sp.End()
	if s.obs != nil {
		s.obs.phases[phase].Observe(d.Seconds())
	}
}

// observeChainOp records the simulated latency of a deploy/attach/verify
// chain operation.
func (s *System) observeChainOp(op string, latency time.Duration) {
	if s.obs != nil {
		s.obs.chainOps[op].Observe(latency.Seconds())
	}
}

// rejectProof counts a witness-side rejection under its reason label.
func (s *System) rejectProof(reason string) {
	if s.obs != nil {
		s.obs.o.Registry.Counter("core_proofs_rejected_total", obs.L("reason", reason)).Inc()
	}
}

// countSigCache records a signature-cache lookup outcome; nil-safe.
func (s *System) countSigCache(hit bool) {
	if s.obs == nil {
		return
	}
	if hit {
		s.obs.sigCacheHits.Inc()
	} else {
		s.obs.sigCacheMisses.Inc()
	}
}
