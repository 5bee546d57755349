// Command bench is the repository benchmark: five fixed-work workloads that
// drive the proof-of-location system through its public functions, check
// every output, and print every metric declared in BENCHMARK.json by name
// with its unit. See README.md.
//
//	go run -C bench . [-seed n] [-seconds s] [-scale f] [-runs n]    all workloads, both passes
//	go run -C bench . --workload w --seed n --seconds s --trace 0|1  one pass, JSON on the last line
//	go run -C bench . -compare a.json b.json                         apply the bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		cfg      config
		specPath = fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		workload = fs.String("workload", "", "run one pass of this workload and print the driver's JSON line; empty runs every workload, both passes")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		runs     = fs.Int("runs", 1, "without -workload: repeat the whole suite this many times into one result file")
		out      = fs.String("out", "", "without -workload: result file (default <outdir>/results.json)")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
	)
	fs.Uint64Var(&cfg.seed, "seed", 7, "workload seed: the only input of the generated workloads")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "measured seconds per pass (default run_seconds of BENCHMARK.json)")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiply every op count (smoke tests; results with scale != 1 are not comparable)")
	fs.StringVar(&cfg.fault, "fault", "", "self-test of the checks: flip_proof or drop_tx must make the run fail")
	fs.StringVar(&cfg.outDir, "outdir", filepath.Join("bench", "out"), "directory for traces, results and temporary state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || cfg.scale <= 0 || *runs < 1 ||
		!slices.Contains([]string{"", faultFlipProof, faultDropTx}, cfg.fault) {
		fs.Usage()
		return 2
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	env, err := setupEnvironment(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *workload != "" {
		if !slices.Contains(spec.workloadNames(), *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, spec.workloadNames())
			return 2
		}
		return runOne(spec, *workload, cfg, *trace == 1)
	}
	if *out == "" {
		*out = filepath.Join(cfg.outDir, "results.json")
	}
	return runAll(spec, env, cfg, *runs, *out)
}

// runOne is the driver's entry: one pass of one workload, the result as one
// JSON object on the last line of standard output.
func runOne(spec *benchSpec, workload string, cfg config, traced bool) int {
	res, err := runWorkload(spec, workload, cfg, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printResult(spec, res)
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced, then traced, checks that the two
// passes agree on everything that is exact, and writes the result file.
func runAll(spec *benchSpec, env environment, cfg config, runs int, outPath string) int {
	file := resultFile{Env: env}
	ok := true
	for i := 0; i < runs; i++ {
		for _, w := range spec.workloadNames() {
			var passes [2]*runResult
			for p := range passes {
				res, err := runWorkload(spec, w, cfg, p == 1)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				passes[p] = res
			}
			plain, traced := passes[0], passes[1]
			if plain.Digest != traced.Digest || plain.StateRoot != traced.StateRoot || plain.exact != traced.exact {
				traced.Correct = false
				traced.Failures = append(traced.Failures, "traced pass ended in a different state than the untraced pass")
			}
			if d := math.Abs(ratio(traced.opsPerSec, plain.opsPerSec) - 1); d > 0.10 {
				plain.Noisy, traced.Noisy = true, true
				fmt.Fprintf(os.Stderr, "bench: %s: ops_per_s differs by %.1f%% between the passes; treat this run as noisy\n", w, d*100)
			}
			for _, res := range passes {
				printResult(spec, res)
				ok = ok && res.Correct
				file.Results = append(file.Results, res)
			}
		}
	}
	data, err := json.MarshalIndent(&file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
			err = os.WriteFile(outPath, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("results written to %s\n", outPath)
	if !ok {
		return 1
	}
	return 0
}

func runCompare(spec *benchSpec, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !printCompare(os.Stdout, compareResults(spec, a, b)) {
		return 1
	}
	return 0
}

// printResult prints one pass: a header, then every metric by name with its
// unit, in the order BENCHMARK.json declares them.
func printResult(spec *benchSpec, r *runResult) {
	pass, declared := "end-to-end, untraced", spec.EndToEnd
	if r.Traced {
		pass, declared = "per-layer, traced", spec.PerLayer
	}
	fmt.Printf("== %s (%s) worlds=%d samples=%d attempted=%d failed=%d correct=%v noisy=%v\n",
		r.Workload, pass, r.Worlds, r.Samples, r.Attempted, r.Failed, r.Correct, r.Noisy)
	fmt.Printf("   digest=%s state_root=%s\n   ops/s of each world: %.5g\n", r.Digest, r.StateRoot, r.WorldOpsPerSec)
	fmt.Printf("   timings are in reference-host time: host slowdown %.3f, %.5g ops/s by the wall clock\n", r.HostSlowdown, r.RawOpsPerSec)
	for _, d := range declared {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("   %-34s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
}
