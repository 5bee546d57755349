package obs

import "sync"

// Profiler is the VM-level profiling hook: the EVM and AVM interpreters
// call Op once per executed opcode with its mnemonic and the gas (or
// budget) it consumed. Implementations must be cheap — the hook sits on
// the interpreter hot path behind a single nil check.
type Profiler interface {
	Op(name string, cost uint64)
}

// OpStat is the per-opcode accumulation.
type OpStat struct {
	Count uint64
	Cost  uint64
}

// OpcodeProfile is a concurrency-safe Profiler accumulating per-opcode
// execution counts and cost attribution. A nil *OpcodeProfile is a
// no-op Profiler.
type OpcodeProfile struct {
	mu       sync.Mutex
	ops      map[string]*OpStat
	exported map[string]OpStat
}

// NewOpcodeProfile returns an empty profile.
func NewOpcodeProfile() *OpcodeProfile {
	return &OpcodeProfile{
		ops:      make(map[string]*OpStat),
		exported: make(map[string]OpStat),
	}
}

// Op implements Profiler.
func (p *OpcodeProfile) Op(name string, cost uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	st, ok := p.ops[name]
	if !ok {
		st = &OpStat{}
		p.ops[name] = st
	}
	st.Count++
	st.Cost += cost
	p.mu.Unlock()
}

// Export flushes the profile into a registry as
// `{vm}_opcode_executions_total{op=...}` and
// `{vm}_opcode_{costUnit}_total{op=...}` counters (e.g. vm="evm",
// costUnit="gas"). Export is incremental: repeated calls only add what
// accumulated since the previous call, so it never double-counts.
func (p *OpcodeProfile) Export(r *Registry, vm, costUnit string) {
	if p == nil || r == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, st := range p.ops {
		prev := p.exported[name]
		if d := st.Count - prev.Count; d > 0 {
			r.Counter(vm+"_opcode_executions_total", L("op", name)).Add(d)
		}
		if d := st.Cost - prev.Cost; d > 0 {
			r.Counter(vm+"_opcode_"+costUnit+"_total", L("op", name)).Add(d)
		}
		p.exported[name] = *st
	}
}
