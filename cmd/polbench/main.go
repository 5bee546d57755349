// Command polbench regenerates the evaluation chapter: Fig 5.1's
// conservative analysis, Tables 5.1–5.4 and Figures 5.2–5.5, rendered as
// text tables and ASCII bar charts — and runs the same grid on a worker
// pool or under injected faults.
//
//	polbench                          # analysis + figures + tables (docs/*.txt at seed 7)
//	polbench tables                   # Tables 5.1–5.4
//	polbench figures                  # Figures 5.2–5.5 (a–d)
//	polbench figures 5.3b             # one figure
//	polbench analysis                 # Fig 5.1
//	polbench matrix -parallel 4 -reps 5   # the grid on a worker pool -> BENCH_parallel.json
//	polbench faults default -rate 0.2     # reliability sweep -> FAULTS_report.json
//
// Every subcommand takes -seed N, -json (machine-readable results),
// -metrics (dump the registry), -trace FILE (chrome://tracing export),
// -cpuprofile FILE and -memprofile FILE; -parallel and -reps belong to
// matrix and faults, -benchout to matrix, -rate and -faultsout to faults.
// The subcommand and its one argument come first. Anything else is a
// usage error (exit 2).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"agnopol/internal/core"
	"agnopol/internal/faults"
	"agnopol/internal/obs"
	"agnopol/internal/sim"
	"agnopol/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const synopsis = `usage: polbench [tables | figures [ID] | analysis | matrix | faults PROFILE] [flags]
  with no subcommand: analysis, figures and tables
`

// options are the parsed flags: the shared ones every subcommand
// registers, then the grid harnesses' (matrix, faults).
type options struct {
	seed                          uint64
	json, metrics                 bool
	trace, cpuProfile, memProfile string

	parallel, reps int
	rate           float64
	out            string // -benchout (matrix) or -faultsout (faults)
}

// registerGrid registers the flags of the two harnesses over the grid.
func (o *options) registerGrid(fs *flag.FlagSet) {
	fs.IntVar(&o.parallel, "parallel", 0, "worker count (0 = GOMAXPROCS)")
	fs.IntVar(&o.reps, "reps", 1, "seed-varied repetitions per grid cell")
}

// registerShared registers the flags every subcommand takes.
func (o *options) registerShared(fs *flag.FlagSet) {
	fs.Uint64Var(&o.seed, "seed", 7, "experiment seed")
	fs.BoolVar(&o.json, "json", false, "emit machine-readable JSON results instead of tables and charts")
	fs.BoolVar(&o.metrics, "metrics", false, "dump the metrics registry (Prometheus text format) after the runs")
	fs.StringVar(&o.trace, "trace", "", "write a chrome://tracing JSON export of the runs to this file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
}

// run is the whole command: it returns the exit status — 0, 1 for a
// failed run, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var sub, arg string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		arg, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("polbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, synopsis)
		fs.PrintDefaults()
	}
	var o options
	o.registerShared(fs)
	switch sub {
	case "", "tables", "figures", "analysis":
	case "matrix":
		o.registerGrid(fs)
		fs.StringVar(&o.out, "benchout", "BENCH_parallel.json", "where the speedup record is written")
	case "faults":
		o.registerGrid(fs)
		fs.Float64Var(&o.rate, "rate", 0.1, "per-draw fault probability, in [0,1]")
		fs.StringVar(&o.out, "faultsout", "FAULTS_report.json", "where the recovery-rate report is written")
	default:
		return usageErr(fs, fmt.Sprintf("unknown subcommand %q", sub))
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2 // the flag package already printed the error and usage
	}
	if fs.NArg() > 0 {
		return usageErr(fs, fmt.Sprintf("unexpected arguments: %s", strings.Join(fs.Args(), " ")))
	}

	var figs []sim.FigureSpec
	var plan *faults.Plan
	switch {
	case sub == "figures" && arg != "":
		for _, spec := range sim.FigureSpecs {
			if strings.Contains(spec.ID, "Fig "+arg+" ") {
				figs = append(figs, spec)
				break
			}
		}
		if figs == nil {
			return usageErr(fs, fmt.Sprintf("unknown figure %q", arg))
		}
	case sub == "faults":
		var err error
		if plan, err = faults.Profile(arg, o.rate); err != nil {
			return usageErr(fs, err.Error())
		}
	case arg != "":
		return usageErr(fs, fmt.Sprintf("unexpected arguments: %s", arg))
	case sub == "" || sub == "figures":
		figs = sim.FigureSpecs
	}

	if err := execute(sub, o, figs, arg, plan, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "polbench: %v\n", err)
		return 1
	}
	return 0
}

// usageErr rejects an invocation: message, usage, exit status 2.
func usageErr(fs *flag.FlagSet, msg string) int {
	fmt.Fprintf(fs.Output(), "polbench: %s\n", msg)
	fs.Usage()
	return 2
}

// execute runs one validated invocation. The paper subcommands print in
// the order EXPERIMENTS.md shows: Fig 5.1, the figures, then the tables.
func execute(sub string, o options, figs []sim.FigureSpec, profile string, plan *faults.Plan, stdout, stderr io.Writer) (err error) {
	if o.cpuProfile != "" {
		f, cerr := os.Create(o.cpuProfile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer func() { // err is execute's result: a failed close surfaces
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			fmt.Fprintf(stderr, "polbench: CPU profile written to %s\n", o.cpuProfile)
		}()
	}

	var ob *obs.Obs
	if o.metrics || o.trace != "" {
		ob = obs.New()
	}
	experiments := []experimentJSON{}

	if (sub == "" || sub == "analysis") && !o.json {
		compiled, err := core.CompilePoL()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Fig 5.1 — conservative analysis of the smart contract ==")
		fmt.Fprint(stdout, compiled.Report)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, compiled.Analysis)
		fmt.Fprintln(stdout)
	}
	for _, spec := range figs {
		f, r, err := sim.RunFigure(spec, o.seed, ob)
		if err != nil {
			return err
		}
		if !o.json {
			fmt.Fprintln(stdout, f)
		}
		experiments = append(experiments, resultJSON(spec.ID, r))
	}
	switch sub {
	case "matrix":
		err = runMatrix(o, ob, stdout, stderr)
	case "faults":
		err = runFaultSweep(profile, plan, o, stdout, stderr)
	case "", "tables":
		err = runTables(o, ob, &experiments, stdout)
	}
	if err != nil {
		return err
	}
	if o.json && sub != "matrix" && sub != "faults" {
		if err := encodeJSON(stdout, experiments); err != nil {
			return err
		}
	}

	if ob != nil {
		ob.ExportProfiles()
	}
	if o.metrics {
		fmt.Fprint(stdout, ob.Registry.Text())
	}
	if o.trace != "" {
		if err := create(o.trace, ob.Tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "polbench: trace written to %s\n", o.trace)
	}
	if o.memProfile != "" {
		runtime.GC() // settle live heap before the snapshot
		if err := create(o.memProfile, pprof.WriteHeapProfile); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "polbench: heap profile written to %s\n", o.memProfile)
	}
	return nil
}

// runTables runs Tables 5.1–5.4 and prints them, or appends one JSON
// experiment per (users, chain) cell.
func runTables(o options, ob *obs.Obs, experiments *[]experimentJSON, stdout io.Writer) error {
	ts, byUsers, err := sim.RunTables(o.seed, ob)
	if err != nil {
		return err
	}
	if !o.json {
		for _, t := range ts {
			fmt.Fprintln(stdout, t)
		}
		return nil
	}
	for _, users := range []int{16, 32} {
		for _, c := range sim.AllChains {
			if r, ok := byUsers[users][c]; ok {
				*experiments = append(*experiments, resultJSON("", r))
			}
		}
	}
	return nil
}

// create writes path through write and closes it, reporting the first
// error.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeRecord writes v as an indented JSON record to path.
func writeRecord(path string, v any) error {
	return create(path, func(w io.Writer) error { return encodeJSON(w, v) })
}

// opJSON is the machine-readable aggregate of one operation series.
type opJSON struct {
	MeanSeconds   float64 `json:"mean_seconds"`
	MaxSeconds    float64 `json:"max_seconds"`
	MinSeconds    float64 `json:"min_seconds"`
	StdDevSeconds float64 `json:"stddev_seconds"`
	Fees          string  `json:"fees"`
	FeesEuro      float64 `json:"fees_euro"`
	Gas           uint64  `json:"gas"`
	N             int     `json:"n"`
}

// experimentJSON is one experiment in -json output.
type experimentJSON struct {
	ID     string `json:"id,omitempty"`
	Chain  string `json:"chain"`
	Users  int    `json:"users"`
	Deploy opJSON `json:"deploy"`
	Attach opJSON `json:"attach"`
}

func opJSONOf(s stats.Summary, fees string, euro float64, gas uint64) opJSON {
	return opJSON{
		MeanSeconds: s.Mean, MaxSeconds: s.Max, MinSeconds: s.Min,
		StdDevSeconds: s.StdDev, Fees: fees, FeesEuro: euro, Gas: gas, N: s.N,
	}
}

func resultJSON(id string, r *sim.Result) experimentJSON {
	return experimentJSON{
		ID:     id,
		Chain:  string(r.Chain),
		Users:  r.Users,
		Deploy: opJSONOf(r.DeploySummary, r.DeployFees.String(), r.DeployFees.Euros(), r.DeployGas),
		Attach: opJSONOf(r.AttachSummary, r.AttachFees.String(), r.AttachFees.Euros(), r.AttachGas),
	}
}

// diverged is the determinism verdict both harnesses share: the run with
// the requested worker count must reproduce the sequential baseline's
// cross-seed summaries exactly.
func diverged(what string, seq, par *sim.MatrixResult) error {
	if reflect.DeepEqual(seq.Summaries, par.Summaries) {
		return nil
	}
	return fmt.Errorf("%s is not deterministic: parallel=%d summaries diverge from the sequential baseline", what, par.Parallel)
}

// cellSummaryJSON is one cross-seed aggregate of the speedup record.
type cellSummaryJSON struct {
	Chain          string  `json:"chain"`
	Users          int     `json:"users"`
	Reps           int     `json:"reps"`
	DeployMean     float64 `json:"deploy_mean_seconds"`
	DeployStdDev   float64 `json:"deploy_stddev_seconds"`
	DeployMin      float64 `json:"deploy_min_seconds"`
	DeployMax      float64 `json:"deploy_max_seconds"`
	AttachMean     float64 `json:"attach_mean_seconds"`
	AttachStdDev   float64 `json:"attach_stddev_seconds"`
	AttachMin      float64 `json:"attach_min_seconds"`
	AttachMax      float64 `json:"attach_max_seconds"`
	DeployFeesEuro float64 `json:"deploy_fees_euro"`
	AttachFeesEuro float64 `json:"attach_fees_euro"`
}

// benchParallelJSON is the BENCH_parallel.json record: sequential vs
// parallel wall time over the identical grid, plus the cross-seed
// summaries (taken from the parallel run — diverged asserts the sequential
// ones are equal). It is a CI artifact, never committed.
type benchParallelJSON struct {
	Grid              string  `json:"grid"`
	Cells             int     `json:"cells"`
	Reps              int     `json:"reps"`
	RunsTotal         int     `json:"runs_total"`
	Seed              uint64  `json:"seed"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"num_cpu"`
	Parallel          int     `json:"parallel"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	Speedup           float64 `json:"speedup"`
	// SpeedupValid is false when GOMAXPROCS < 2: with a single scheduler
	// thread the "parallel" run cannot actually overlap work, so the
	// speedup number measures goroutine overhead, not parallelism.
	SpeedupValid  bool              `json:"speedup_valid"`
	Deterministic bool              `json:"deterministic"`
	Summaries     []cellSummaryJSON `json:"summaries"`
}

// runMatrix fans the Table 5.1–5.4 grid out over the matrix engine: first
// sequentially (the baseline), then with the requested worker count,
// checks the two produce identical cross-seed summaries, prints the
// aggregate table and writes the speedup record.
func runMatrix(o options, ob *obs.Obs, stdout, stderr io.Writer) error {
	spec := sim.MatrixSpec{Reps: o.reps, Seed: o.seed, Parallel: 1}
	seq, err := sim.RunMatrix(spec, ob)
	if err != nil {
		return err
	}
	spec.Parallel = o.parallel
	par, err := sim.RunMatrix(spec, ob)
	if err != nil {
		return err
	}
	if err := diverged("matrix", seq, par); err != nil {
		return err
	}
	speedupValid := runtime.GOMAXPROCS(0) >= 2
	if !speedupValid {
		fmt.Fprintf(stderr, "polbench: warning: GOMAXPROCS=%d — the sequential-vs-parallel speedup is not a parallelism measurement; recording speedup_valid=false\n",
			runtime.GOMAXPROCS(0))
	}
	if !o.json {
		fmt.Fprintln(stdout, par)
		fmt.Fprintf(stdout, "speedup: sequential %v, parallel(%d) %v — %.2fx\n\n",
			seq.Elapsed, par.Parallel, par.Elapsed,
			seq.Elapsed.Seconds()/par.Elapsed.Seconds())
	}

	rec := benchParallelJSON{
		Grid:              "tables-5.1-5.4",
		Cells:             len(par.Cells),
		Reps:              par.Reps,
		RunsTotal:         len(par.Runs),
		Seed:              o.seed,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		Parallel:          par.Parallel,
		SequentialSeconds: seq.Elapsed.Seconds(),
		ParallelSeconds:   par.Elapsed.Seconds(),
		Speedup:           seq.Elapsed.Seconds() / par.Elapsed.Seconds(),
		SpeedupValid:      speedupValid,
		Deterministic:     true,
	}
	for _, s := range par.Summaries {
		rec.Summaries = append(rec.Summaries, cellSummaryJSON{
			Chain: string(s.Cell.Chain), Users: s.Cell.Users, Reps: s.Reps,
			DeployMean: s.Deploy.Mean, DeployStdDev: s.Deploy.StdDev,
			DeployMin: s.Deploy.Min, DeployMax: s.Deploy.Max,
			AttachMean: s.Attach.Mean, AttachStdDev: s.Attach.StdDev,
			AttachMin: s.Attach.Min, AttachMax: s.Attach.Max,
			DeployFeesEuro: s.DeployFeesEuro, AttachFeesEuro: s.AttachFeesEuro,
		})
	}
	if err := writeRecord(o.out, rec); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "polbench: speedup record written to %s\n", o.out)
	return nil
}

// faultClassJSON is one fault class's tally in the recovery-rate report.
type faultClassJSON struct {
	Class        string  `json:"class"`
	Injected     uint64  `json:"injected"`
	Recovered    uint64  `json:"recovered"`
	RecoveryRate float64 `json:"recovery_rate"`
}

// faultsReportJSON is the FAULTS_report.json record: the sweep's grid
// parameters plus the per-class injected/recovered tallies read back from
// the obs registry.
type faultsReportJSON struct {
	Profile        string           `json:"profile"`
	Rate           float64          `json:"rate"`
	Seed           uint64           `json:"seed"`
	Cells          int              `json:"cells"`
	Reps           int              `json:"reps"`
	RunsTotal      int              `json:"runs_total"`
	Parallel       int              `json:"parallel"`
	Deterministic  bool             `json:"deterministic"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Classes        []faultClassJSON `json:"classes"`
}

// runFaultSweep drives the reliability sweep: every evaluation chain at 8
// users under the fault plan, first sequentially (the baseline), then with
// the requested worker count. The two must agree bit-for-bit — fault
// streams are pure functions of (seed, site, sequence), so worker
// scheduling cannot shift a draw — and the recovery-rate report is read
// back from the parallel run's obs registry.
func runFaultSweep(profile string, plan *faults.Plan, o options, stdout, stderr io.Writer) error {
	cells := make([]sim.Cell, 0, len(sim.AllChains))
	for _, c := range sim.AllChains {
		cells = append(cells, sim.Cell{Chain: c, Users: 8})
	}
	// Verify on: the full pipeline — deploy, attach, fund, verify — so
	// every fault class (the report fetch included) gets exercised.
	spec := sim.MatrixSpec{Cells: cells, Reps: o.reps, Seed: o.seed, Parallel: 1, Faults: plan, Verify: true}
	seq, err := sim.RunMatrix(spec, obs.New())
	if err != nil {
		return fmt.Errorf("fault sweep (sequential baseline): %w", err)
	}
	// A fresh bundle for the counted run, so the report tallies exactly
	// one traversal of the grid.
	fo := obs.New()
	spec.Parallel = o.parallel
	par, err := sim.RunMatrix(spec, fo)
	if err != nil {
		return fmt.Errorf("fault sweep: %w", err)
	}
	if err := diverged("fault sweep", seq, par); err != nil {
		return err
	}

	rec := faultsReportJSON{
		Profile: profile, Rate: o.rate, Seed: o.seed,
		Cells: len(par.Cells), Reps: par.Reps, RunsTotal: len(par.Runs),
		Parallel: par.Parallel, Deterministic: true,
		ElapsedSeconds: par.Elapsed.Seconds(),
	}
	rows := make([][]string, 0, len(faults.Classes()))
	for _, cls := range faults.Classes() {
		if _, active := plan.Rates[cls]; !active {
			continue
		}
		inj := fo.Registry.Counter("faults_injected_total", obs.L("class", cls)).Value()
		rec2 := fo.Registry.Counter("faults_recovered_total", obs.L("class", cls)).Value()
		rr := 0.0
		if inj > 0 {
			rr = float64(rec2) / float64(inj)
		}
		rec.Classes = append(rec.Classes, faultClassJSON{
			Class: cls, Injected: inj, Recovered: rec2, RecoveryRate: rr,
		})
		rows = append(rows, []string{
			cls, fmt.Sprint(inj), fmt.Sprint(rec2), fmt.Sprintf("%.1f%%", rr*100),
		})
	}
	if !o.json {
		fmt.Fprintf(stdout, "Reliability sweep — profile %q, rate %.2f, %d runs, %d workers, %v wall\n%s\n",
			profile, o.rate, len(par.Runs), par.Parallel, par.Elapsed.Round(time.Millisecond),
			stats.Table([]string{"Fault Class", "Injected", "Recovered", "Recovery"}, rows))
	}
	if err := writeRecord(o.out, rec); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "polbench: recovery-rate report written to %s\n", o.out)
	return nil
}
