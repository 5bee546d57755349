package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	// ids are 1-based positions; times in ns.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 70},  // zero length
		{ID: 5, Parent: 1, Name: "d", Start: 35, End: 50},  // inside the a∪b union
		{ID: 6, Parent: 1, Name: "e", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 7, Parent: 2, Name: "grandchild", Start: 12, End: 20},
		{ID: 8, Name: "leaf root", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := map[int32]time.Duration{
		1: 100 - (50 + 10), // [10,60) ∪ [90,100)
		2: 30 - 8,
		3: 30,
		4: 0,
		5: 15,
		6: 30,
		7: 8,
		8: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}

	st := statsByName(spans, nil)
	if got := st["root"]; got.Count != 1 || got.Total != 100 || got.Self != 40 {
		t.Errorf("root stats = %+v", got)
	}
	// A host twice as slow during op 0 halves what its spans count for.
	st = statsByName(spans, map[int32]float64{0: 2})
	if got := st["root"]; got.Total != 50 || got.Self != 20 {
		t.Errorf("root stats at slowdown 2 = %+v", got)
	}
}

func TestRecorderParentsAndOps(t *testing.T) {
	r := newRecorder()
	r.setOp(3)
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	r.end(outer)
	r.setOp(4)
	r.end(r.begin("next"))

	if len(r.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(r.spans))
	}
	if s := r.spans[1]; s.Parent != outer || s.Op != 3 || s.Name != "inner" {
		t.Errorf("inner span = %+v", s)
	}
	if s := r.spans[2]; s.Parent != 0 || s.Op != 4 {
		t.Errorf("next span = %+v", s)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}

	// A nil recorder is the untraced pass: every call is a no-op.
	var off *recorder
	off.setOp(1)
	off.end(off.begin("x"))
}

func TestWriteChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []span{{ID: 1, Op: 2, Name: "op", Start: 1000, End: 5000}, {ID: 2, Parent: 1, Op: 2, Name: "child", Start: 2000, End: 3000}}
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args map[string]int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "child" || ev.Ph != "X" || ev.Ts != 2 || ev.Dur != 1 || ev.Args["parent"] != 1 || ev.Args["op"] != 2 {
		t.Errorf("child event = %+v", ev)
	}
}
