package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestSpanParentChildNesting(t *testing.T) {
	tr := NewTracer(64)
	sc := tr.NewScope(nil)
	root := sc.Start("pipeline")
	child := sc.Start("lookup") // child of root
	grand := sc.Start("hop")    // child of lookup
	grand.End()
	sibling := sc.Start("hop") // back under lookup after grand ended
	sibling.End()
	child.End()
	after := sc.Start("submit") // under root again
	after.End()
	root.End()

	if child.ParentID != root.ID {
		t.Errorf("lookup parent = %d, want root %d", child.ParentID, root.ID)
	}
	if grand.ParentID != child.ID {
		t.Errorf("hop parent = %d, want lookup %d", grand.ParentID, child.ID)
	}
	if sibling.ParentID != child.ID {
		t.Errorf("second hop parent = %d, want lookup %d", sibling.ParentID, child.ID)
	}
	if after.ParentID != root.ID {
		t.Errorf("submit parent = %d, want root %d", after.ParentID, root.ID)
	}
	if root.ParentID != 0 {
		t.Errorf("root parent = %d, want 0", root.ParentID)
	}
	if next := sc.Start("next"); next.ParentID != 0 {
		t.Errorf("span after the root ended has parent %d, want 0", next.ParentID)
	}

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("completed spans = %d, want 5", len(spans))
	}
	// Completion order: grand, sibling, child, after, root.
	if spans[len(spans)-1] != root {
		t.Error("root must complete last")
	}
	if root.Duration < child.Duration {
		t.Error("root must last at least as long as its child")
	}
}

// TestSpanExplicitChildAndDoubleEnd opens a child on a scope rooted at an
// existing span, and checks a second End neither re-records the span nor
// pops its scope a second time.
func TestSpanExplicitChildAndDoubleEnd(t *testing.T) {
	tr := NewTracer(8)
	root := tr.NewScope(nil).Start("root")
	sc := tr.NewScope(root)
	c := sc.Start("worker", L("i", "0"))
	if c.ParentID != root.ID {
		t.Fatalf("explicit child parent = %d, want %d", c.ParentID, root.ID)
	}
	d1 := c.End()
	inner := sc.Start("inner") // the scope is back at root
	d2 := c.End()              // second End must be a no-op returning the same duration
	if d1 != d2 {
		t.Errorf("double End changed duration: %v != %v", d1, d2)
	}
	if next := sc.Start("next"); next.ParentID != inner.ID {
		t.Errorf("double End moved the scope: next parent = %d, want inner %d", next.ParentID, inner.ID)
	}
	inner.End()
	root.End()
	if got := len(tr.Spans()); got != 3 {
		t.Errorf("spans = %d, want 3 (double End must not re-record)", got)
	}
}

// TestScopeNesting interleaves two scopes on one tracer from one
// goroutine: each keeps its own current span, so neither parents a span
// into the other's tree.
func TestScopeNesting(t *testing.T) {
	tr := NewTracer(64)
	a, b := tr.NewScope(nil), tr.NewScope(nil)
	ra := a.Start("a")
	rb := b.Start("b")
	ca := a.Start("a.child")
	cb := b.Start("b.child")
	ca.End()
	a2 := a.Start("a.second")
	cb.End()
	rb.End()
	b2 := b.Start("b.after")

	if ra.ParentID != 0 || rb.ParentID != 0 {
		t.Errorf("scope roots have parents %d,%d, want 0,0", ra.ParentID, rb.ParentID)
	}
	if ca.ParentID != ra.ID || a2.ParentID != ra.ID {
		t.Errorf("scope a: child→%d second→%d, want %d", ca.ParentID, a2.ParentID, ra.ID)
	}
	if cb.ParentID != rb.ID {
		t.Errorf("scope b: child→%d, want %d", cb.ParentID, rb.ID)
	}
	if b2.ParentID != 0 {
		t.Errorf("scope b after its root ended: parent %d, want 0", b2.ParentID)
	}
}

// TestScopeRooted checks a scope created off an existing root parents its
// top-level spans under it and never pops past it.
func TestScopeRooted(t *testing.T) {
	tr := NewTracer(64)
	root := tr.NewScope(nil).Start("run")
	sc := tr.NewScope(root)
	a := sc.Start("a")
	a.End()
	b := sc.Start("b")
	b.End()
	root.End()
	if a.ParentID != root.ID || b.ParentID != root.ID {
		t.Errorf("rooted scope parents = %d,%d, want %d", a.ParentID, b.ParentID, root.ID)
	}
}

// TestScopeConcurrentTrees runs several goroutines, each building its own
// explicitly-parented span tree through its own Scope against one shared
// tracer, and asserts no span ever parents into another goroutine's tree.
// Exercised under -race by scripts/check.sh.
func TestScopeConcurrentTrees(t *testing.T) {
	tr := NewTracer(4096)
	const trees = 8
	const opsPerTree = 40
	var wg sync.WaitGroup
	for g := 0; g < trees; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tag := L("tree", itoa(uint64(g)))
			sc := tr.NewScope(nil)
			root := sc.Start("root", tag)
			for i := 0; i < opsPerTree; i++ {
				op := sc.Start("op", tag)
				inner := sc.Start("inner", tag)
				inner.End()
				op.End()
			}
			root.End()
		}(g)
	}
	wg.Wait()

	spans := tr.Spans()
	if want := trees * (2*opsPerTree + 1); len(spans) != want {
		t.Fatalf("completed spans = %d, want %d", len(spans), want)
	}
	byID := make(map[uint64]*Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	treeOf := func(s *Span) string {
		for _, l := range s.Labels {
			if l.Key == "tree" {
				return l.Value
			}
		}
		t.Fatalf("span %d has no tree label", s.ID)
		return ""
	}
	for _, s := range spans {
		switch s.Name {
		case "root":
			if s.ParentID != 0 {
				t.Errorf("root of tree %s has parent %d, want 0", treeOf(s), s.ParentID)
			}
		case "op", "inner":
			parent, ok := byID[s.ParentID]
			if !ok {
				t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.ParentID)
				continue
			}
			if treeOf(parent) != treeOf(s) {
				t.Errorf("span %d leaked across trees: tree %s parented under tree %s",
					s.ID, treeOf(s), treeOf(parent))
			}
			if s.Name == "inner" && parent.Name != "op" {
				t.Errorf("inner span %d parented under %q, want op", s.ID, parent.Name)
			}
		}
	}
}

func TestNilScope(t *testing.T) {
	var tr *Tracer
	if sc := tr.NewScope(nil); sc != nil {
		t.Fatal("nil tracer must hand out a nil scope")
	}
	var sc *Scope
	s := sc.Start("x")
	if s != nil {
		t.Fatal("nil scope must return nil span")
	}
	if d := s.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
}

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(3)
	sc := tr.NewScope(nil)
	for i := 0; i < 5; i++ {
		sc.Start("s").End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring kept %d spans, want 3", len(spans))
	}
	// Oldest first: ids 3,4,5 survive.
	for i, want := range []uint64{3, 4, 5} {
		if spans[i].ID != want {
			t.Errorf("span %d id = %d, want %d", i, spans[i].ID, want)
		}
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	s := tr.NewScope(nil).Start("x")
	if s != nil {
		t.Fatal("nil tracer must return nil span")
	}
	s.Label("k", "v")
	if d := s.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	if tr.Spans() != nil {
		t.Error("nil tracer Spans must be nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("nil tracer export is not valid JSON: %s", buf.String())
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(16)
	sc := tr.NewScope(nil)
	root := sc.Start("pol.submit_proof", L("olc", "7H369F4W+Q8"))
	lookup := sc.Start("pol.discover")
	lookup.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(out.TraceEvents))
	}
	// Sorted by start time: root first.
	ev0, ev1 := out.TraceEvents[0], out.TraceEvents[1]
	if ev0.Name != "pol.submit_proof" || ev1.Name != "pol.discover" {
		t.Errorf("event order: %s, %s", ev0.Name, ev1.Name)
	}
	if ev0.Ph != "X" || ev1.Ph != "X" {
		t.Error("events must be complete events (ph=X)")
	}
	if ev0.Args["olc"] != "7H369F4W+Q8" {
		t.Errorf("root label lost: %v", ev0.Args)
	}
	if ev1.Args["parent_id"] != ev0.Args["span_id"] {
		t.Errorf("child parent_id %q != root span_id %q", ev1.Args["parent_id"], ev0.Args["span_id"])
	}
	// The child must nest inside the root: ts within [root.ts, root.ts+dur].
	if ev1.Ts < ev0.Ts || ev1.Ts+ev1.Dur > ev0.Ts+ev0.Dur+1 /* µs rounding */ {
		t.Errorf("child [%v,%v] not nested in root [%v,%v]", ev1.Ts, ev1.Ts+ev1.Dur, ev0.Ts, ev0.Ts+ev0.Dur)
	}
}
