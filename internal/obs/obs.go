// Package obs records what a run did, for reading after it ends: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus-style text exposition, span tracing through
// explicit per-strand scopes into a ring buffer with a chrome://tracing
// JSON exporter, and a per-opcode VM profiler hook.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Span, *Scope or *Tracer are no-ops, so instrumented code
// pays only a nil check (or nothing at all) when observability is off.
// That keeps the hot paths of the VMs and chain simulators unaffected by
// default — benchmarks run against the exact same code whether or not a
// registry is attached.
package obs

// Label is one key=value dimension of a metric or span.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefaultTraceCapacity is the ring-buffer size of Tracer spans kept by
// New.
const DefaultTraceCapacity = 16384

// Obs bundles one observability session: a registry, a tracer and the
// per-VM opcode profiles. A nil *Obs means "uninstrumented" throughout
// the repo.
type Obs struct {
	Registry   *Registry
	Tracer     *Tracer
	EVMProfile *OpcodeProfile
	AVMProfile *OpcodeProfile
}

// New creates a fully wired observability session.
func New() *Obs {
	return &Obs{
		Registry:   NewRegistry(),
		Tracer:     NewTracer(DefaultTraceCapacity),
		EVMProfile: NewOpcodeProfile(),
		AVMProfile: NewOpcodeProfile(),
	}
}

// ExportProfiles flushes the opcode profiles into the registry so a
// single text dump carries the per-opcode gas/budget attribution.
func (o *Obs) ExportProfiles() {
	if o == nil {
		return
	}
	o.EVMProfile.Export(o.Registry, "evm", "gas")
	o.AVMProfile.Export(o.Registry, "avm", "budget")
}
