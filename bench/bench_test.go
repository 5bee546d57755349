package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

const specPath = "../BENCHMARK.json"

// mayBeZero lists per-layer metrics that are legitimately 0 on every
// workload of a healthy small run; every other declared metric must be
// non-zero on at least one workload, or its name is misspelt somewhere.
var mayBeZero = map[string]bool{
	"connector.retries_per_op": true,
	"eth.drain_steps":          true,
	"algorand.drain_steps":     true,
	"bench.gc_cycles":          true,
	"bench.gc_pause_ms":        true,
	"bench.trace_overhead_pct": true,
}

// TestSmokeAllWorkloads runs every workload through both passes at 1 % of
// its size and checks the output contract: every metric BENCHMARK.json
// declares is emitted, finite, with the declared unit, nothing failed, and
// the traced pass ends in the same state as the untraced one.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 7, scale: 0.01, seconds: 0.001, outDir: t.TempDir()}
	if _, err := setupEnvironment(cfg); err != nil {
		t.Skip(err)
	}
	nonZero := make(map[string]bool)
	for _, w := range spec.workloadNames() {
		var passes [2]*runResult
		for p, declared := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			res, err := runWorkload(spec, w, cfg, p == 1)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w, p, err)
			}
			passes[p] = res
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s pass %d: correct=%v attempted=%d failed=%d: %v", w, p, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s pass %d: %d metrics emitted, %d declared", w, p, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: declared metric %s not emitted", w, d.Name)
					continue
				}
				if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v %q, want a finite value in %q", w, d.Name, v.Value, v.Unit, d.Unit)
				}
				if p == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, v.Value)
				}
				if v.Value != 0 {
					nonZero[d.Name] = true
				}
			}
		}
		if passes[0].Digest != passes[1].Digest || passes[0].StateRoot != passes[1].StateRoot || passes[0].exact != passes[1].exact {
			t.Errorf("%s: traced pass ended in a different state than the untraced pass", w)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w, err)
		}
	}
	for _, d := range spec.PerLayer {
		if !nonZero[d.Name] && !mayBeZero[d.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", d.Name)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "state-*")); len(left) > 0 {
		t.Errorf("temporary state directories left behind: %v", left)
	}
}

// TestChecksBite injects the two faults and expects the correctness checks
// to count failures and the command to exit non-zero.
func TestChecksBite(t *testing.T) {
	for _, tc := range []struct{ workload, fault string }{
		{"lifecycle_evm", faultFlipProof},
		{"lifecycle_algorand", faultFlipProof},
		{"soak_evm", faultDropTx},
		{"soak_algorand", faultDropTx},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			spec, err := loadSpec(specPath)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{seed: 7, scale: 0.01, seconds: 0.001, fault: tc.fault, outDir: t.TempDir()}
			if _, err := setupEnvironment(cfg); err != nil {
				t.Skip(err)
			}
			res, err := runWorkload(spec, tc.workload, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct || len(res.Failures) == 0 {
				t.Errorf("fault %s went unnoticed: failed=%d correct=%v failures=%v", tc.fault, res.Failed, res.Correct, res.Failures)
			}
			if res.Failed >= res.Attempted && tc.fault == faultFlipProof {
				t.Errorf("one flipped proof failed all %d operations: %v", res.Attempted, res.Failures)
			}
			code := run([]string{
				"-spec", specPath, "-outdir", cfg.outDir, "-workload", tc.workload,
				"-scale", "0.01", "-seconds", "0.001", "-fault", tc.fault,
			})
			if code == 0 {
				t.Errorf("command exited 0 with fault %s injected", tc.fault)
			}
		})
	}
}

func TestCommandRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-spec", specPath, "-workload", "nope"},
		{"-spec", specPath, "-trace", "2"},
		{"-spec", specPath, "-scale", "0"},
		{"-spec", specPath, "-fault", "gremlins"},
		{"-spec", specPath, "-compare", "only-one.json"},
		{"-spec", "missing.json"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
