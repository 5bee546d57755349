package vmbench

import (
	"reflect"
	"testing"
)

// names lists a report's workload names in order.
func names(rep *Report) []string {
	var out []string
	for _, w := range rep.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// TestRunSmoke runs the whole harness at one iteration per workload and
// checks the record holds the four rows bench/ reads, each measured.
func TestRunSmoke(t *testing.T) {
	rep, err := Run("1x", "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"evm_deploy_attach", "avm_deploy_attach",
		"evm_proof_verify_precompile", "avm_proof_verify_precompile",
	}
	if got := names(rep); !reflect.DeepEqual(got, want) {
		t.Fatalf("workloads = %v, want %v", got, want)
	}
	for _, w := range rep.Workloads {
		if w.U256 == nil || w.U256.Iterations < 1 {
			t.Fatalf("workload %q did not run: %+v", w.Name, w)
		}
	}
}

// TestRunFilter: a filter restricts the record to the matching workloads.
func TestRunFilter(t *testing.T) {
	for filter, want := range map[string][]string{
		"proof_verify":      {"evm_proof_verify_precompile", "avm_proof_verify_precompile"},
		"avm_deploy_attach": {"avm_deploy_attach"},
		"nothing":           nil,
	} {
		rep, err := Run("1x", filter)
		if err != nil {
			t.Fatal(err)
		}
		if got := names(rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %q: workloads = %v, want %v", filter, got, want)
		}
	}
}
