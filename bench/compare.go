package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// resultFile is what a full run writes and -compare reads: the environment
// and every pass of every workload, possibly from several repetitions.
type resultFile struct {
	Env     environment  `json:"env"`
	Results []*runResult `json:"results"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &f, nil
}

// values returns the metric's value in every untraced pass of the workload.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Results {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the driver's method).
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// compareRow is the verdict on one (workload, metric) pair.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	WorsePct         float64 // how much worse B is than A, in percent of A; negative is better
	BoundPct         float64
	Verdict          string
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// compareResults applies BENCHMARK.json's directions and bounds to two
// result files. B is worse when its median is worse than A's by more than
// the bound. Where A's own runs spread wider than the bound the pair is
// unresolved rather than ok, unless every run of B beats every run of A.
// With equal seeds the end state must be identical, which the digest row
// checks: it covers every exact count at once.
func compareResults(spec *benchSpec, a, b *resultFile) []compareRow {
	var rows []compareRow
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w, m.Name), b.values(w, m.Name)
			row := compareRow{Workload: w, Metric: m.Name, BoundPct: m.Bound * 100}
			if len(va) == 0 || len(vb) == 0 {
				row.Verdict = verdictMissing
				rows = append(rows, row)
				continue
			}
			row.A, row.B = median(va), median(vb)
			sign := 1.0 // lower is better: B larger is worse
			if m.Better == "higher" {
				sign = -1
			}
			row.WorsePct = sign * ratio(row.B-row.A, row.A) * 100
			q1, q3 := quartiles(va)
			spread := ratio(q3-q1, row.A)
			allBetter := true
			for _, x := range va {
				for _, y := range vb {
					if sign*(y-x) >= 0 {
						allBetter = false
					}
				}
			}
			switch {
			case row.WorsePct > row.BoundPct:
				row.Verdict = verdictWorse
			case spread > m.Bound && !allBetter:
				row.Verdict = verdictUnresolved
			default:
				row.Verdict = verdictOK
			}
			rows = append(rows, row)
		}
		if a.Env.Seed == b.Env.Seed && a.Env.Scale == b.Env.Scale {
			row := compareRow{Workload: w, Metric: "digest", Verdict: verdictOK}
			da, db := digests(a, w), digests(b, w)
			if len(da) == 0 || len(db) == 0 {
				row.Verdict = verdictMissing
			} else if len(da) != 1 || len(db) != 1 || da[0] != db[0] {
				row.Verdict = verdictWorse
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// digests returns the distinct end-state digests a file holds for a workload.
func digests(f *resultFile, workload string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range f.Results {
		if r.Workload == workload && !seen[r.Digest] {
			seen[r.Digest] = true
			out = append(out, r.Digest)
		}
	}
	return out
}

// printCompare writes one row per pair and reports whether all are ok or
// unresolved (neither worse nor missing).
func printCompare(w io.Writer, rows []compareRow) bool {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdelta\tbound\tverdict")
	pass := true
	for _, r := range rows {
		if r.Metric == "digest" {
			fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%s\n", r.Workload, r.Metric, r.Verdict)
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%s\n",
				r.Workload, r.Metric, r.A, r.B, r.WorsePct, r.BoundPct, r.Verdict)
		}
		if r.Verdict == verdictWorse || r.Verdict == verdictMissing {
			pass = false
		}
	}
	tw.Flush()
	return pass
}
