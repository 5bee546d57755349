package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed region of the pipeline. Spans form a tree through
// ParentID; a nil *Span is a no-op, so callers never check whether
// tracing is enabled.
type Span struct {
	ID       uint64
	ParentID uint64 // 0 for roots
	Name     string
	Labels   []Label
	// Start and Duration are offsets from the tracer's creation, wall
	// clock.
	Start    time.Duration
	Duration time.Duration

	scope  *Scope // the scope the span was opened on
	parent *Span
	ended  bool
}

// Tracer records spans into a fixed-capacity ring buffer: when full, the
// oldest completed spans are overwritten. Spans are opened through a
// Scope, which carries the parent/child nesting.
type Tracer struct {
	mu       sync.Mutex
	capacity int
	epoch    time.Time
	seq      uint64
	done     []*Span
	next     int
	wrapped  bool
}

// NewTracer creates a tracer keeping at most capacity completed spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capacity: capacity, epoch: time.Now()}
}

// Scope is the current-span stack of one logical execution strand (one
// experiment run, one goroutine): a span opened on it becomes a child of
// the scope's current span until that span ends. Any number of scopes can
// record into the same tracer at once with every span tree staying
// correctly nested. A nil *Scope is a no-op, like every other instrument.
type Scope struct {
	t   *Tracer
	cur *Span
}

// NewScope creates an explicit span stack recording into t. A non-nil
// root becomes the parent of the scope's top-level spans (the stack never
// pops past it); a nil root makes them trace roots.
func (t *Tracer) NewScope(root *Span) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, cur: root}
}

// Start opens a span as a child of the scope's current span and makes it
// the scope's current.
func (sc *Scope) Start(name string, labels ...Label) *Span {
	if sc == nil || sc.t == nil {
		return nil
	}
	t := sc.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s := &Span{
		ID:     t.seq,
		Name:   name,
		Labels: labels,
		Start:  time.Since(t.epoch),
		scope:  sc,
		parent: sc.cur,
	}
	if sc.cur != nil {
		s.ParentID = sc.cur.ID
	}
	sc.cur = s
	return s
}

// Label attaches one more key=value to the span.
func (s *Span) Label(key, value string) {
	if s == nil {
		return
	}
	t := s.scope.t
	t.mu.Lock()
	s.Labels = append(s.Labels, L(key, value))
	t.mu.Unlock()
}

// End closes the span, records it into the ring buffer and restores the
// span's parent as its scope's current. It returns the span's duration (0
// on nil), so call sites can feed the same measurement into a histogram.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	t := s.scope.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return s.Duration
	}
	s.ended = true
	s.Duration = time.Since(t.epoch) - s.Start
	if s.scope.cur == s {
		s.scope.cur = s.parent
	}
	if len(t.done) < t.capacity {
		t.done = append(t.done, s)
	} else {
		t.done[t.next] = s
		t.next = (t.next + 1) % t.capacity
		t.wrapped = true
	}
	return s.Duration
}

// Spans returns the completed spans, oldest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]*Span(nil), t.done...)
	}
	out := make([]*Span, 0, len(t.done))
	out = append(out, t.done[t.next:]...)
	out = append(out, t.done[:t.next]...)
	return out
}

// chromeEvent is one entry of the chrome://tracing "trace event" format
// (complete event, ph="X", microsecond timestamps).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the recorded spans as chrome://tracing (or
// Perfetto) compatible JSON. Parent/child nesting is expressed both by
// timestamp containment on the shared thread lane and by explicit
// span/parent ids in each event's args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	trace := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		args := make(map[string]string, len(s.Labels)+2)
		args["span_id"] = itoa(s.ID)
		if s.ParentID != 0 {
			args["parent_id"] = itoa(s.ParentID)
		}
		for _, l := range s.Labels {
			args[l.Key] = l.Value
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }
