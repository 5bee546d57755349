package obs

import (
	"strings"
	"testing"
)

// TestLabelEscapingConformance pins the Prometheus text-format escaping
// rules: exactly backslash, double-quote and newline are escaped; other
// control characters and non-ASCII UTF-8 pass through verbatim. Go's %q
// would turn the tab into \t and the kanji into \u sequences — both
// undefined in the exposition format.
func TestLabelEscapingConformance(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"\\\"\n", `\\\"\n`},
		{"tab\there", "tab\there"},
		{"héllo wörld", "héllo wörld"},
		{"日本語", "日本語"},
		{"mixed \\ \" \n 日本", `mixed \\ \" \n 日本`},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}

	// End to end: the rendered exposition carries the escaped value on one
	// line, and HELP text escapes backslash+newline (quotes legal there).
	r := NewRegistry()
	r.Counter("c_total", L("path", "a\\b\"c\nd"), L("utf8", "héllo")).Add(1)
	r.Help("c_total", "Line one\nline \\two \"quoted\".")
	text := r.Text()
	if !strings.Contains(text, `c_total{path="a\\b\"c\nd",utf8="héllo"} 1`) {
		t.Errorf("exposition label escaping wrong:\n%s", text)
	}
	if !strings.Contains(text, `# HELP c_total Line one\nline \\two "quoted".`) {
		t.Errorf("HELP escaping wrong:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("raw newline leaked into the exposition:\n%s", text)
		}
	}
}

func TestSummaryExposition(t *testing.T) {
	r := NewRegistry()
	sk := r.Sketch("lat", L("chain", "x"))
	for i := 0; i < 100; i++ {
		sk.Observe(2)
	}
	r.Sketch("lat_empty")
	text := r.Text()
	if !strings.Contains(text, "# TYPE lat summary") {
		t.Errorf("summary TYPE line missing:\n%s", text)
	}
	for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
		if !strings.Contains(text, `lat{chain="x",quantile="`+q+`"}`) {
			t.Errorf("quantile %s line missing:\n%s", q, text)
		}
	}
	if !strings.Contains(text, `lat_sum{chain="x"} 200`) || !strings.Contains(text, `lat_count{chain="x"} 100`) {
		t.Errorf("summary _sum/_count wrong:\n%s", text)
	}
	if !strings.Contains(text, `lat_empty{quantile="0.5"} NaN`) {
		t.Errorf("empty summary should expose NaN quantiles:\n%s", text)
	}
}

func TestMergedSketchAcrossLabelSets(t *testing.T) {
	r := NewRegistry()
	r.Sketch("lat", L("shard", "0")).Observe(1)
	r.Sketch("lat", L("shard", "1")).Observe(100)
	merged, ok := r.Snapshot().MergedSketch("lat")
	if !ok || merged.Count != 2 {
		t.Fatalf("merged = %+v, %v; want both shards", merged, ok)
	}
	if merged.Min != 1 || merged.Max != 100 {
		t.Errorf("merged extremes = %v/%v, want 1/100", merged.Min, merged.Max)
	}
	if _, ok := r.Snapshot().MergedSketch("missing"); ok {
		t.Error("MergedSketch of an absent family reported ok")
	}
}

// TestSnapshotDiffSeriesChurn covers the churn cases Diff must survive:
// series born between the snapshots, series gone by the later snapshot,
// counter resets, histogram bucket-layout drift and non-monotonic counts.
func TestSnapshotDiffSeriesChurn(t *testing.T) {
	// Series only in the later snapshot: counts from zero.
	later := &Snapshot{
		Counters:   map[string]uint64{"new_total": 7},
		Gauges:     map[string]float64{"g": 1},
		Histograms: map[string]HistogramSnapshot{"h": {Bounds: []float64{1}, Counts: []uint64{2, 1}, Sum: 3, Count: 3}},
		Sketches:   map[string]SketchSnapshot{},
	}
	d := later.Diff(&Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistogramSnapshot{}})
	if d.Counters["new_total"] != 7 || d.Histograms["h"].Count != 3 {
		t.Errorf("fresh series should count from zero: %+v", d)
	}

	// Series only in the earlier snapshot: dropped, not resurrected.
	gone := &Snapshot{Counters: map[string]uint64{}}
	d = gone.Diff(later)
	if _, ok := d.Counters["new_total"]; ok {
		t.Error("vanished series resurrected in the diff")
	}

	// Counter reset: earlier value above the later one counts from zero.
	cur := &Snapshot{Counters: map[string]uint64{"c": 3}}
	d = cur.Diff(&Snapshot{Counters: map[string]uint64{"c": 100}})
	if d.Counters["c"] != 3 {
		t.Errorf("reset counter diff = %d, want 3 (not a uint64 wrap)", d.Counters["c"])
	}

	// Histogram bucket-layout drift: same series id, different bounds.
	// Subtracting positionally would misattribute counts; the diff must
	// fall back to counting from zero.
	curH := &Snapshot{Histograms: map[string]HistogramSnapshot{
		"h": {Bounds: []float64{1, 10}, Counts: []uint64{5, 2, 1}, Sum: 20, Count: 8},
	}}
	prevH := &Snapshot{Histograms: map[string]HistogramSnapshot{
		"h": {Bounds: []float64{1, 5}, Counts: []uint64{3, 1, 0}, Sum: 5, Count: 4},
	}}
	d = curH.Diff(prevH)
	if got := d.Histograms["h"]; got.Count != 8 || got.Sum != 20 {
		t.Errorf("layout-drift diff = %+v, want the full later state", got)
	}

	// Non-monotonic histogram (restarted instrument): from zero, no wrap.
	prevBig := &Snapshot{Histograms: map[string]HistogramSnapshot{
		"h": {Bounds: []float64{1, 10}, Counts: []uint64{50, 20, 10}, Sum: 200, Count: 80},
	}}
	d = curH.Diff(prevBig)
	if got := d.Histograms["h"]; got.Count != 8 || got.Counts[0] != 5 {
		t.Errorf("restarted-histogram diff = %+v, want the full later state", got)
	}

	// Sketch churn mirrors histograms: layout mismatch and regressions
	// fall back to the later state, Min/Max stay the cumulative extremes.
	skCur := NewQuantileSketch()
	skCur.Observe(1)
	skCur.Observe(2)
	curS := &Snapshot{Sketches: map[string]SketchSnapshot{"s": skCur.Snapshot()}}
	badPrev := &Snapshot{Sketches: map[string]SketchSnapshot{
		"s": {Gamma: 2, MinIndex: 0, Counts: []uint64{1}, Count: 1, SumNanos: 1},
	}}
	d = curS.Diff(badPrev)
	if got := d.Sketches["s"]; got.Count != 2 || got.Min != 1 || got.Max != 2 {
		t.Errorf("sketch layout-drift diff = %+v, want the full later state", got)
	}
	skPrev := NewQuantileSketch()
	skPrev.Observe(1)
	prevS := &Snapshot{Sketches: map[string]SketchSnapshot{"s": skPrev.Snapshot()}}
	d = curS.Diff(prevS)
	if got := d.Sketches["s"]; got.Count != 1 {
		t.Errorf("sketch diff count = %d, want 1", got.Count)
	}

	// Diff against nil stays total, and Diff must never panic on any of
	// the above even with empty maps.
	d = later.Diff(nil)
	if d.Counters["new_total"] != 7 {
		t.Errorf("Diff(nil) = %+v, want the full state", d)
	}
}
