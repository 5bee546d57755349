package obs

import (
	"strings"
	"sync"
	"testing"
)

// stat reads op's accumulated execution count and cost.
func stat(p *OpcodeProfile, op string) OpStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.ops[op]; st != nil {
		return *st
	}
	return OpStat{}
}

func TestOpcodeProfileAccumulates(t *testing.T) {
	p := NewOpcodeProfile()
	p.Op("SSTORE", 20000)
	p.Op("SSTORE", 2900)
	p.Op("ADD", 3)
	if st := stat(p, "SSTORE"); st.Count != 2 || st.Cost != 22900 {
		t.Errorf("SSTORE = %+v, want {2 22900}", st)
	}
	if st := stat(p, "ADD"); st.Count != 1 || st.Cost != 3 {
		t.Errorf("ADD = %+v, want {1 3}", st)
	}
}

func TestOpcodeProfileExportIncremental(t *testing.T) {
	p := NewOpcodeProfile()
	r := NewRegistry()
	p.Op("ADD", 3)
	p.Export(r, "evm", "gas")
	p.Export(r, "evm", "gas") // second export of same data must not double-count
	if got := r.Counter("evm_opcode_executions_total", L("op", "ADD")).Value(); got != 1 {
		t.Errorf("executions after re-export = %d, want 1", got)
	}
	if got := r.Counter("evm_opcode_gas_total", L("op", "ADD")).Value(); got != 3 {
		t.Errorf("gas after re-export = %d, want 3", got)
	}
	p.Op("ADD", 3)
	p.Export(r, "evm", "gas")
	if got := r.Counter("evm_opcode_gas_total", L("op", "ADD")).Value(); got != 6 {
		t.Errorf("gas after incremental export = %d, want 6", got)
	}
	if !strings.Contains(r.Text(), `evm_opcode_gas_total{op="ADD"} 6`) {
		t.Errorf("exposition missing opcode gas attribution:\n%s", r.Text())
	}
}

func TestNilProfileIsNoOp(t *testing.T) {
	var p *OpcodeProfile
	p.Op("ADD", 1) // must not panic
	r := NewRegistry()
	p.Export(r, "evm", "gas")
	if txt := r.Text(); txt != "" {
		t.Errorf("nil profile exported %q", txt)
	}
}

func TestOpcodeProfileConcurrency(t *testing.T) {
	p := NewOpcodeProfile()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Op("MUL", 5)
			}
		}()
	}
	wg.Wait()
	if st := stat(p, "MUL"); st.Count != 8000 || st.Cost != 40000 {
		t.Errorf("MUL = %+v, want {8000 40000}", st)
	}
}
