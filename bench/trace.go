package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was created; Parent is the id of the span that was open when
// this one began (0 for a root) and Op the operation (proof or round) the
// span belongs to.
type span struct {
	ID     int32
	Parent int32
	Op     int32
	Name   string
	Start  int64
	End    int64
}

// recorder keeps the spans of one world in memory. The benchmark drives the
// system from a single goroutine, so the open spans form a stack and the
// parent of a new span is the top of it. A nil recorder records nothing:
// untraced passes call the same code with a nil receiver.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
	op    int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setOp names the operation subsequent spans belong to.
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = int32(op)
	}
}

// begin opens a span and returns its id, to be handed to end.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return 0
	}
	id := int32(len(r.spans) + 1)
	var parent int32
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count int
	Total time.Duration // Σ duration
	Self  time.Duration // Σ duration − time covered by direct children
}

// selfTimes returns each span's self time: its duration minus the union of
// the intervals its direct children cover, clipped to the span. Children may
// overlap one another or be empty; the union counts covered time once.
func selfTimes(spans []span) map[int32]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// statsByName folds spans into per-name totals. Every span is divided by the
// host slowdown of its operation (slow, by op id; 1 where it has none), so
// the totals are in reference-host time like the end-to-end timings.
func statsByName(spans []span, slow map[int32]float64) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for _, s := range spans {
		f, ok := slow[s.Op]
		if !ok {
			f = 1
		}
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(float64(s.End-s.Start) / f)
		st.Self += time.Duration(float64(self[s.ID]) / f)
		out[s.Name] = st
	}
	return out
}

// writeChromeTrace dumps spans as chrome://tracing "complete" events
// (ph=X, microsecond timestamps); id, parent and op travel in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int32 `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int32{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
