package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("chain", "goerli"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("reqs_total", L("chain", "goerli")); same != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if other := r.Counter("reqs_total", L("chain", "polygon")); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	if txt := r.Text(); txt != "" {
		t.Fatalf("nil registry text = %q, want empty", txt)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var c *Counter
	c.Inc() // must not panic
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2.5, 5})
	// Upper bounds are inclusive (Prometheus `le` semantics).
	for _, v := range []float64{0.5, 1.0} { // both land in le=1
		h.Observe(v)
	}
	h.Observe(1.0000001) // le=2.5
	h.Observe(2.5)       // le=2.5
	h.Observe(5.0)       // le=5
	h.Observe(100)       // +Inf overflow

	s := h.Snapshot()
	wantCounts := []uint64{2, 2, 1, 1}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if want := 0.5 + 1 + 1.0000001 + 2.5 + 5 + 100; s.Sum != want {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("blocks_total", L("chain", "goerli")).Add(3)
	r.Counter("blocks_total", L("chain", "algorand")).Add(7)
	r.Gauge("base_fee_wei").Set(1.5e9)
	h := r.Histogram("latency_seconds", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(30)

	want := strings.Join([]string{
		`# TYPE base_fee_wei gauge`,
		`base_fee_wei 1.5e+09`,
		`# TYPE blocks_total counter`,
		`blocks_total{chain="algorand"} 7`,
		`blocks_total{chain="goerli"} 3`,
		`# TYPE latency_seconds histogram`,
		`latency_seconds_bucket{le="1"} 1`,
		`latency_seconds_bucket{le="5"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		`latency_seconds_sum 33.5`,
		`latency_seconds_count 3`,
	}, "\n") + "\n"
	if got := r.Text(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

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
		if got := escapeLabelValue(c.in); got != c.want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
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

// TestRegistryConcurrentLabelSets checks series identity under
// concurrent creators — what RunMatrix workers do when every cell
// registers the same families: the same label set must resolve to the
// same instrument no matter which goroutine created it first or in what
// key order the labels were passed, and distinct label sets must stay
// distinct. Run under -race.
func TestRegistryConcurrentLabelSets(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perW = 500
	chains := []string{"goerli", "polygon", "algorand"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				chain := chains[i%len(chains)]
				// Alternate label order: rendering sorts keys, so both
				// must hit the same series.
				if i%2 == 0 {
					r.Counter("ops_total", L("chain", chain), L("op", "attach")).Inc()
				} else {
					r.Counter("ops_total", L("op", "attach"), L("chain", chain)).Inc()
				}
				r.Histogram("lat_seconds", []float64{1, 10}, L("chain", chain)).Observe(1)
			}
		}(w)
	}
	wg.Wait()

	var totalOps uint64
	var totalLat uint64
	for _, chain := range chains {
		totalOps += r.Counter("ops_total", L("chain", chain), L("op", "attach")).Value()
		totalLat += r.Histogram("lat_seconds", nil, L("chain", chain)).Snapshot().Count
	}
	if want := uint64(workers * perW); totalOps != want {
		t.Errorf("ops_total across label sets = %d, want %d (split series?)", totalOps, want)
	}
	if want := uint64(workers * perW); totalLat != want {
		t.Errorf("lat_seconds count across label sets = %d, want %d", totalLat, want)
	}
	// Exactly one exposition line per label set, labels sorted.
	text := r.Text()
	for _, chain := range chains {
		id := `ops_total{chain="` + chain + `",op="attach"}`
		if got := strings.Count(text, id+" "); got != 1 {
			t.Errorf("exposition has %d lines for %s, want 1", got, id)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// metric creation, counter increments, gauge updates and histogram
// observations — and checks exact totals. Run under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("mine_total", L("g", string(rune('a'+id)))).Inc()
				r.Gauge("depth").Set(float64(i))
				r.Histogram("lat", []float64{1, 10}).Observe(float64(i % 20))
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.Text()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("shared_total").Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	s := r.Histogram("lat", nil).Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", s.Count, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter("mine_total", L("g", string(rune('a'+g)))).Value(); got != perG {
			t.Errorf("per-goroutine counter %d = %d, want %d", g, got, perG)
		}
	}
}
