package main

import (
	"bytes"
	"strings"
	"testing"
)

func testSpec() *benchSpec {
	s := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "op_wall_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
		},
	}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	return s
}

// file builds a result file with one untraced pass per (ops_per_s, p50) pair.
func file(seed uint64, digest string, pairs ...[2]float64) *resultFile {
	f := &resultFile{Env: environment{Seed: seed, Scale: 1}}
	for _, p := range pairs {
		f.Results = append(f.Results, &runResult{
			Workload: "w", Digest: digest,
			Metrics: map[string]metricValue{
				"ops_per_s":      {Value: p[0], Unit: "1/s"},
				"op_wall_ms_p50": {Value: p[1], Unit: "ms"},
			},
		})
	}
	return f
}

func TestCompareResults(t *testing.T) {
	cases := []struct {
		name string
		a, b *resultFile
		want map[string]string // metric → verdict
	}{
		{
			name: "identical runs are ok",
			a:    file(7, "d", [2]float64{100, 5}),
			b:    file(7, "d", [2]float64{100, 5}),
			want: map[string]string{"ops_per_s": verdictOK, "op_wall_ms_p50": verdictOK, "digest": verdictOK},
		},
		{
			name: "within the bound in the bad direction is ok",
			a:    file(7, "d", [2]float64{100, 5}),
			b:    file(7, "d", [2]float64{91, 5.4}),
			want: map[string]string{"ops_per_s": verdictOK, "op_wall_ms_p50": verdictOK},
		},
		{
			name: "direction matters: lower throughput and higher latency are worse",
			a:    file(7, "d", [2]float64{100, 5}),
			b:    file(7, "d", [2]float64{85, 5.8}),
			want: map[string]string{"ops_per_s": verdictWorse, "op_wall_ms_p50": verdictWorse},
		},
		{
			name: "a large gain is not a regression",
			a:    file(7, "d", [2]float64{100, 5}),
			b:    file(7, "d", [2]float64{150, 3}),
			want: map[string]string{"ops_per_s": verdictOK, "op_wall_ms_p50": verdictOK},
		},
		{
			name: "medians decide, not single runs",
			a:    file(7, "d", [2]float64{100, 5}, [2]float64{101, 5}, [2]float64{99, 5}),
			b:    file(7, "d", [2]float64{60, 5}, [2]float64{100, 5}, [2]float64{102, 5}),
			want: map[string]string{"ops_per_s": verdictOK},
		},
		{
			name: "baseline spread wider than the bound is unresolved",
			a:    file(7, "d", [2]float64{80, 5}, [2]float64{100, 5}, [2]float64{120, 5}, [2]float64{101, 5}),
			b:    file(7, "d", [2]float64{99, 5}),
			want: map[string]string{"ops_per_s": verdictUnresolved, "op_wall_ms_p50": verdictOK},
		},
		{
			name: "wide spread but every run better is ok",
			a:    file(7, "d", [2]float64{80, 5}, [2]float64{100, 5}, [2]float64{120, 5}, [2]float64{101, 5}),
			b:    file(7, "d", [2]float64{130, 5}, [2]float64{140, 5}),
			want: map[string]string{"ops_per_s": verdictOK},
		},
		{
			name: "same seed, different end state",
			a:    file(7, "d1", [2]float64{100, 5}),
			b:    file(7, "d2", [2]float64{100, 5}),
			want: map[string]string{"digest": verdictWorse},
		},
		{
			name: "different seeds are not compared by digest",
			a:    file(7, "d1", [2]float64{100, 5}),
			b:    file(11, "d2", [2]float64{100, 5}),
			want: map[string]string{"digest": ""},
		},
		{
			name: "a workload absent from one side is missing",
			a:    file(7, "d", [2]float64{100, 5}),
			b:    &resultFile{Env: environment{Seed: 7, Scale: 1}},
			want: map[string]string{"ops_per_s": verdictMissing, "digest": verdictMissing},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := make(map[string]string)
			rows := compareResults(testSpec(), tc.a, tc.b)
			for _, r := range rows {
				got[r.Metric] = r.Verdict
			}
			for metric, want := range tc.want {
				if got[metric] != want {
					t.Errorf("%s: verdict %q, want %q", metric, got[metric], want)
				}
			}
			var buf bytes.Buffer
			pass := printCompare(&buf, rows)
			bad := strings.Contains(buf.String(), verdictWorse) || strings.Contains(buf.String(), verdictMissing)
			if pass == bad {
				t.Errorf("printCompare pass=%v for table:\n%s", pass, buf.String())
			}
		})
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}
