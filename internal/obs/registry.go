package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bucket upper bounds (seconds),
// the Prometheus defaults: wall-clock scale from 5 ms to 10 s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a float64 metric that can go up and down. A nil *Gauge is a
// no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(floatBits(v))
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Histogram is a fixed-bucket distribution metric. Observations are
// counted into the first bucket whose upper bound is >= the value
// (Prometheus `le` semantics), plus a running sum and count. A nil
// *Histogram is a no-op.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	// SearchFloat64s returns the first i with bounds[i] >= v, which is
	// exactly the inclusive-upper-bound bucket; v beyond every bound
	// lands in the +Inf overflow slot.
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, +Inf implicit
	Counts []uint64  // per-bucket (non-cumulative), len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// series is one registered metric: a name, a rendered label string and
// the instrument behind it.
type series struct {
	name   string
	labels string // `k="v",k2="v2"` with keys sorted, "" when unlabeled
	kind   string // "counter" | "gauge" | "histogram"
}

func (s series) id() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// labelEscaper implements the Prometheus text-format escaping for label
// values: backslash, double-quote and newline only. Go's %q is not a
// substitute — it escapes non-printables as \x.. / \u.... sequences the
// exposition format does not define, and mangles valid UTF-8.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper implements the escaping for HELP text: backslash and
// newline (quotes are legal there).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeLabelValue renders a label value for the Prometheus text
// exposition format.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	parts := make([]string, len(sorted))
	for i, l := range sorted {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return strings.Join(parts, ",")
}

// Registry holds named metrics. All methods are safe for concurrent use;
// a nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	info       map[string]series // id -> name/labels, shared across kinds
	help       map[string]string // family name -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		info:       make(map[string]series),
		help:       make(map[string]string),
	}
}

// Help sets the `# HELP` text emitted for a metric family. A nil registry
// ignores the call.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// Counter returns (creating on first use) the counter with the given
// name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := series{name: name, labels: renderLabels(labels), kind: "counter"}
	id := s.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
		r.info[id] = s
	}
	return c
}

// Gauge returns (creating on first use) the gauge with the given name
// and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := series{name: name, labels: renderLabels(labels), kind: "gauge"}
	id := s.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
		r.info[id] = s
	}
	return g
}

// Histogram returns (creating on first use) the histogram with the given
// name, bucket upper bounds and labels. A nil buckets slice selects
// DefBuckets; buckets are fixed at creation and ignored on later calls.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := series{name: name, labels: renderLabels(labels), kind: "histogram"}
	id := s.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[id]
	if !ok {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.histograms[id] = h
		r.info[id] = s
	}
	return h
}

// Snapshot captures every metric's current value, keyed by series id
// (`name{labels}`).
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot reads all metrics at once.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for id, c := range r.counters {
		counters[id] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for id, g := range r.gauges {
		gauges[id] = g
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for id, h := range r.histograms {
		hists[id] = h
	}
	r.mu.Unlock()
	for id, c := range counters {
		s.Counters[id] = c.Value()
	}
	for id, g := range gauges {
		s.Gauges[id] = g.Value()
	}
	for id, h := range hists {
		s.Histograms[id] = h.Snapshot()
	}
	return s
}

// WriteText renders the registry in the Prometheus text exposition
// format, sorted by metric name then label set, with one `# TYPE` line
// per family.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	r.mu.Lock()
	info := make(map[string]series, len(r.info))
	for id, s := range r.info {
		info[id] = s
	}
	help := make(map[string]string, len(r.help))
	for name, text := range r.help {
		help[name] = text
	}
	r.mu.Unlock()

	type line struct {
		name   string
		labels string
		kind   string
		id     string
	}
	lines := make([]line, 0, len(info))
	for id, s := range info {
		lines = append(lines, line{name: s.name, labels: s.labels, kind: s.kind, id: id})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].name != lines[j].name {
			return lines[i].name < lines[j].name
		}
		return lines[i].labels < lines[j].labels
	})

	lastFamily := ""
	for _, ln := range lines {
		if ln.name != lastFamily {
			if text, ok := help[ln.name]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ln.name, helpEscaper.Replace(text)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ln.name, ln.kind); err != nil {
				return err
			}
			lastFamily = ln.name
		}
		switch ln.kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s %d\n", ln.id, snap.Counters[ln.id]); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %s\n", ln.id, formatFloat(snap.Gauges[ln.id])); err != nil {
				return err
			}
		case "histogram":
			if err := writeHistogramText(w, ln.name, ln.labels, snap.Histograms[ln.id]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogramText(w io.Writer, name, labels string, h HistogramSnapshot) error {
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(labels, `le="`+formatFloat(b)+`"`), cum); err != nil {
			return err
		}
	}
	if len(h.Counts) > 0 {
		cum += h.Counts[len(h.Counts)-1]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(labels, `le="+Inf"`), cum); err != nil {
		return err
	}
	sum := series{name: name + "_sum", labels: labels}
	count := series{name: name + "_count", labels: labels}
	if _, err := fmt.Fprintf(w, "%s %s\n", sum.id(), formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", count.id(), h.Count)
	return err
}

func joinLabels(labels, le string) string {
	if labels == "" {
		return le
	}
	return labels + "," + le
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders WriteText into a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	_ = r.WriteText(&sb)
	return sb.String()
}
