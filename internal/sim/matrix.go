package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"agnopol/internal/faults"
	"agnopol/internal/obs"
	"agnopol/internal/stats"
)

// Cell is one experiment of the evaluation matrix: a network preset with
// a user count.
type Cell struct {
	Chain ChainName `json:"chain"`
	Users int       `json:"users"`
}

// TableCells returns the Table 5.1–5.4 grid: every evaluation chain at 16
// and at 32 users, in the order the tables present them.
func TableCells() []Cell {
	cells := make([]Cell, 0, 2*len(AllChains))
	for _, users := range []int{16, 32} {
		for _, c := range AllChains {
			cells = append(cells, Cell{Chain: c, Users: users})
		}
	}
	return cells
}

// MatrixSpec configures RunMatrix.
type MatrixSpec struct {
	// Cells is the (chain × users) grid; nil selects TableCells.
	Cells []Cell
	// Reps is the number of seed-varied repetitions per cell; values
	// below 1 mean a single run.
	Reps int
	// Seed is the base every per-run seed is derived from.
	Seed uint64
	// Parallel is the worker count; values below 1 select GOMAXPROCS.
	Parallel int
	// Faults optionally applies a fault plan to every run. Each run's
	// injector is seeded from that run's derived seed, so fault streams
	// are as scheduling-independent as the runs themselves.
	Faults *faults.Plan
	// Verify adds the funding + verification phase to every run. The
	// aggregates still cover only deploy/attach (matching the tables);
	// the phase matters to fault sweeps, whose report-fetch fault class
	// only fires during verification.
	Verify bool
}

// CellRun is one completed run of the grid.
type CellRun struct {
	Cell   Cell
	Rep    int
	Seed   uint64
	Result *Result
}

// CellSummary is one cell's cross-seed aggregate: the repetitions'
// summaries pooled (see stats.Pool) so Mean is the mean of the per-rep
// means, StdDev the pooled deviation over all samples of all reps, and
// Min/Max the envelope across reps. Fees are the mean per-rep totals in
// euro.
type CellSummary struct {
	Cell           Cell
	Reps           int
	Deploy         stats.Summary
	Attach         stats.Summary
	DeployFeesEuro float64
	AttachFeesEuro float64
}

// MatrixResult is the outcome of one matrix fan-out.
type MatrixResult struct {
	Cells    []Cell
	Reps     int
	Seed     uint64
	Parallel int
	// Runs holds every run in grid order — cell-major, a cell's
	// repetitions consecutive — regardless of which worker executed it.
	Runs []CellRun
	// Summaries holds one cross-seed aggregate per cell, in Cells order.
	Summaries []CellSummary
	// Elapsed is the wall-clock time of the whole fan-out.
	Elapsed time.Duration
}

// deriveSeed maps the base seed and a run's grid index to the run's seed
// with a splitmix64 finalizer: every run gets a decorrelated stream, and
// the derivation depends only on the grid position — never on worker
// scheduling — so the matrix is bit-for-bit reproducible at any
// parallelism.
func deriveSeed(base uint64, idx int) uint64 {
	z := base ^ (uint64(idx)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// RunMatrix fans the (cell × repetition) grid out over a worker pool and
// aggregates each cell's repetitions into a cross-seed summary. Every run
// builds its own chain, system and connector; the only shared state is
// the obs bundle, whose registry, profiles and tracer scopes are safe
// under concurrent writers. Results land in grid slots, so the output is
// identical whatever the interleaving.
func RunMatrix(spec MatrixSpec, o *obs.Obs) (*MatrixResult, error) {
	cells := spec.Cells
	if cells == nil {
		cells = TableCells()
	}
	reps := spec.Reps
	if reps < 1 {
		reps = 1
	}
	par := spec.Parallel
	if par < 1 {
		par = runtime.GOMAXPROCS(0)
	}
	total := len(cells) * reps
	if par > total {
		par = total
	}

	runs := make([]CellRun, total)
	errs := make([]error, total)
	jobs := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				cell := cells[idx/reps]
				seed := deriveSeed(spec.Seed, idx)
				vr, err := Execute(Spec{
					Chain: cell.Chain, Users: cell.Users, Seed: seed,
					Obs: o, Faults: spec.Faults, Verify: spec.Verify,
				})
				var r *Result
				if vr != nil {
					r = vr.Result
				}
				runs[idx] = CellRun{Cell: cell, Rep: idx % reps, Seed: seed, Result: r}
				errs[idx] = err
			}
		}()
	}
	for idx := 0; idx < total; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: matrix cell %s/%d users, rep %d: %w",
				cells[idx/reps].Chain, cells[idx/reps].Users, idx%reps, err)
		}
	}

	out := &MatrixResult{
		Cells: cells, Reps: reps, Seed: spec.Seed, Parallel: par,
		Runs: runs, Elapsed: time.Since(start),
	}
	out.Summaries = make([]CellSummary, 0, len(cells))
	for ci, cell := range cells {
		deploys := make([]stats.Summary, 0, reps)
		attaches := make([]stats.Summary, 0, reps)
		var deployEur, attachEur float64
		for rep := 0; rep < reps; rep++ {
			r := runs[ci*reps+rep].Result
			deploys = append(deploys, r.DeploySummary)
			attaches = append(attaches, r.AttachSummary)
			deployEur += r.DeployFees.Euros()
			attachEur += r.AttachFees.Euros()
		}
		out.Summaries = append(out.Summaries, CellSummary{
			Cell:           cell,
			Reps:           reps,
			Deploy:         stats.Pool(deploys),
			Attach:         stats.Pool(attaches),
			DeployFeesEuro: deployEur / float64(reps),
			AttachFeesEuro: attachEur / float64(reps),
		})
	}
	return out, nil
}

// String renders the cross-seed summaries as a text table.
func (m *MatrixResult) String() string {
	headers := []string{"Testnet", "Users", "Reps",
		"Deploy Mean", "Dev Std", "Min", "Max",
		"Attach Mean", "Dev Std", "Min", "Max"}
	rows := make([][]string, 0, len(m.Summaries))
	for _, s := range m.Summaries {
		rows = append(rows, []string{
			string(s.Cell.Chain), fmt.Sprint(s.Cell.Users), fmt.Sprint(s.Reps),
			stats.FormatSeconds(s.Deploy.Mean), stats.FormatSeconds(s.Deploy.StdDev),
			stats.FormatSeconds(s.Deploy.Min), stats.FormatSeconds(s.Deploy.Max),
			stats.FormatSeconds(s.Attach.Mean), stats.FormatSeconds(s.Attach.StdDev),
			stats.FormatSeconds(s.Attach.Min), stats.FormatSeconds(s.Attach.Max),
		})
	}
	return fmt.Sprintf("Cross-seed matrix — %d cells × %d reps, %d workers, %v wall\n%s",
		len(m.Cells), m.Reps, m.Parallel, m.Elapsed.Round(time.Millisecond),
		stats.Table(headers, rows))
}
