package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"agnopol/internal/sim"
)

// TestHygieneProblem: an incoherent command line exits 2 with the usage
// text, before anything runs. The per-subcommand flag sets and the
// positional checks refuse it; the rows named after the old single flag
// set's combinations keep their command lines, whose modes no longer
// exist, so the parser refuses the first flag of a deleted mode.
func TestHygieneProblem(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr besides the usage text, "" = coherent
	}{
		{"bare run is coherent", nil, ""},
		{"unknown subcommand", []string{"soak"}, `unknown subcommand "soak"`},
		{"another subcommand's flag", []string{"tables", "-reps", "2"}, "-reps"},
		{"grid flag without a grid", []string{"-parallel", "4"}, "-parallel"},
		{"matrix flag on faults", []string{"matrix", "-rate", "0.2"}, "-rate"},
		{"faults without a profile", []string{"faults"}, `unknown profile ""`},
		{"faults with an unknown profile", []string{"faults", "nope"}, `unknown profile "nope"`},
		{"unknown figure", []string{"figures", "9.9"}, `unknown figure "9.9"`},
		{"two figures", []string{"figures", "5.2", "5.3b"}, "unexpected arguments: 5.3b"},
		{"stray argument", []string{"tables", "5.2"}, "unexpected arguments: 5.2"},

		{"reps without matrix or faults", []string{"-reps", "2"}, "-reps"},
		{"faultrate without faults", []string{"tables", "-rate", "0.5"}, "-rate"},
		{"faultrate out of range", []string{"faults", "default", "-rate", "1.5"}, "outside [0,1]"},
		{"benchout without a bench mode", []string{"tables", "-benchout", "b.json"}, "-benchout"},
		{"benchout ambiguous", []string{"matrix", "-soak", "-benchout", "b.json"}, "-soak"},
		{"benchout ambiguous with soak+persist", []string{"matrix", "-benchout", "b.json", "-soak", "-persist"}, "-soak"},
		{"areas without soak", []string{"-areas", "8"}, "-areas"},
		{"vmfilter without vmbench", []string{"-vmfilter", "proof_verify"}, "-vmfilter"},
		{"empty vmfilter", []string{"-vmfilter="}, "-vmfilter"},
		{"serve without a run mode", []string{"-serve", ":0"}, "-serve"},
		{"sampleinterval without serve", []string{"-sampleinterval", "1s", "-soak"}, "-sampleinterval"},
		{"sampleinterval zero", []string{"-sampleinterval", "0", "-serve", ":0", "-soak"}, "-sampleinterval"},
		{"sampleinterval negative", []string{"-sampleinterval", "-1s", "-serve", ":0", "-soak"}, "-sampleinterval"},
		{"servehold without serve", []string{"-servehold", "1s", "-soak"}, "-servehold"},
		{"statedir without soak", []string{"-statedir", "s"}, "-statedir"},
		{"statedir with persist only", []string{"-statedir", "s", "-persist"}, "-statedir"},
		{"checkpoint without statedir or persist", []string{"-checkpoint", "5", "-soak"}, "-checkpoint"},
		{"checkpoint below one", []string{"-checkpoint", "0", "-soak", "-statedir", "s"}, "-checkpoint"},
		{"resume without statedir", []string{"-resume", "-soak"}, "-resume"},
		{"resume with explicit areas", []string{"-resume", "-areas", "8", "-soak", "-statedir", "s"}, "-resume"},
		{"resume with explicit seed", []string{"-seed", "9", "-resume", "-soak", "-statedir", "s"}, "-resume"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if c.want == "" {
				if code != 0 || stdout.Len() == 0 {
					t.Fatalf("exit %d with %d bytes of results, want a coherent run (stderr %q)", code, stdout.Len(), stderr.String())
				}
				return
			}
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "usage: polbench") || !strings.Contains(stderr.String(), c.want) {
				t.Fatalf("stderr %q lacks the usage text or %q", stderr.String(), c.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("a usage error printed %d bytes of results", stdout.Len())
			}
		})
	}
}

// TestPaperOutputsMatchDocs pins the committed renderings: what the
// paper subcommands print at the default seed is docs/*.txt byte for byte,
// so the files cannot go stale behind a change to the simulation.
func TestPaperOutputsMatchDocs(t *testing.T) {
	for sub, file := range map[string]string{
		"tables":   "tables.txt",
		"figures":  "figures.txt",
		"analysis": "fig5_1_analysis.txt",
	} {
		t.Run(sub, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "docs", file))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{sub}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("polbench %s differs from docs/%s; regenerate it with `go run ./cmd/polbench %s > docs/%s`",
					sub, file, sub, file)
			}
		})
	}
}

// metricFamilies is every `# TYPE` line `polbench figures 5.2 -metrics`
// prints: the registry's families after one instrumented Ropsten run.
var metricFamilies = []string{
	"# TYPE core_chain_op_latency_seconds histogram",
	"# TYPE core_contracts_deployed_total counter",
	"# TYPE core_hypercube_hops histogram",
	"# TYPE core_phase_duration_seconds histogram",
	"# TYPE core_proofs_attached_total counter",
	"# TYPE core_proofs_issued_total counter",
	"# TYPE core_sigcache_total counter",
	"# TYPE core_verifications_total counter",
	"# TYPE eth_base_fee_wei gauge",
	"# TYPE eth_block_gas_used_total counter",
	"# TYPE eth_blocks_produced_total counter",
	"# TYPE eth_congestion_spikes_total counter",
	"# TYPE eth_inclusion_latency_seconds histogram",
	"# TYPE eth_mempool_depth gauge",
	"# TYPE eth_txs_deferred_total counter",
	"# TYPE eth_txs_included_total counter",
	"# TYPE eth_txs_submitted_total counter",
	"# TYPE evm_opcode_executions_total counter",
	"# TYPE evm_opcode_gas_total counter",
	"# TYPE faults_injected_delay_seconds histogram",
}

// TestMetricsAndTraceOutputs drives the observability surface: -metrics
// prints exactly the pinned metric families on every run, and -trace
// writes a chrome trace whose spans all nest — every parent id names a
// span in the file, and every pol.* pipeline span sits under a sim.user.
func TestMetricsAndTraceOutputs(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("trace%d.json", i))
		var stdout, stderr bytes.Buffer
		if code := run([]string{"figures", "5.2", "-metrics", "-trace", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		var types []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				types = append(types, line)
			}
		}
		if !slices.Equal(types, metricFamilies) {
			t.Fatalf("run %d: metric families\n%s\nwant\n%s", i, strings.Join(types, "\n"), strings.Join(metricFamilies, "\n"))
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("trace does not decode: %v", err)
		}
		type span struct{ name, parent string }
		spans := make(map[string]span, len(trace.TraceEvents))
		for _, ev := range trace.TraceEvents {
			spans[ev.Args["span_id"]] = span{ev.Name, ev.Args["parent_id"]}
		}
		pol := 0
		for id, s := range spans {
			if s.parent != "" {
				if _, ok := spans[s.parent]; !ok {
					t.Fatalf("span %s (%s) names parent %s, which is not in the trace", id, s.name, s.parent)
				}
			}
			if !strings.HasPrefix(s.name, "pol.") {
				continue
			}
			pol++
			a := s
			for a.name != "sim.user" && a.parent != "" {
				a = spans[a.parent]
			}
			if a.name != "sim.user" {
				t.Fatalf("span %s (%s) has no sim.user ancestor", id, s.name)
			}
		}
		if pol == 0 {
			t.Fatal("trace holds no pol.* spans")
		}
	}
}

// TestHarnessesWriteRecords runs both grid harnesses on two workers and
// reads their records back: each must hold its determinism verdict.
func TestHarnessesWriteRecords(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"matrix", "-parallel", "2", "-benchout", filepath.Join(dir, "matrix.json")},
		{"faults", "default", "-rate", "0.2", "-parallel", "2", "-faultsout", filepath.Join(dir, "faults.json")},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		data, err := os.ReadFile(args[len(args)-1])
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Deterministic bool `json:"deterministic"`
			RunsTotal     int  `json:"runs_total"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("%s: %v", args[0], err)
		}
		if !rec.Deterministic || rec.RunsTotal == 0 {
			t.Fatalf("%s record: deterministic=%v runs=%d", args[0], rec.Deterministic, rec.RunsTotal)
		}
	}
}

// TestDivergedSummariesFail: a parallel run whose summaries differ from
// the sequential baseline in one field is an error, not a record.
func TestDivergedSummariesFail(t *testing.T) {
	seq := &sim.MatrixResult{Summaries: []sim.CellSummary{{Reps: 1, DeployFeesEuro: 1}}}
	same := &sim.MatrixResult{Parallel: 2, Summaries: []sim.CellSummary{{Reps: 1, DeployFeesEuro: 1}}}
	if err := diverged("matrix", seq, same); err != nil {
		t.Fatalf("equal summaries: %v", err)
	}
	other := &sim.MatrixResult{Parallel: 2, Summaries: []sim.CellSummary{{Reps: 1, DeployFeesEuro: 2}}}
	if err := diverged("matrix", seq, other); err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("diverging summaries: err = %v", err)
	}
}
