package main

import (
	"math"
	"testing"
	"time"
)

func TestStopwatchReportsReferenceHostTime(t *testing.T) {
	for _, threads := range []int{1, 2} {
		s := stopwatch{threads: threads}
		s.start()
		time.Sleep(3 * time.Millisecond)
		d, slow := s.stop()
		if slow <= 0 || math.IsInf(slow, 0) || math.IsNaN(slow) {
			t.Fatalf("threads=%d: host slowdown %v", threads, slow)
		}
		ref := time.Duration(float64(d) / slow)
		if s.wall != d || s.refWall != ref {
			t.Errorf("threads=%d: wall %v ref %v, want %v and %v", threads, s.wall, s.refWall, d, ref)
		}
		// A start right after a stop reuses the reading just taken; the sums
		// keep growing section by section.
		probed := s.probed
		s.start()
		if s.probed != probed {
			t.Errorf("threads=%d: start probed again %v after the stop", threads, s.probed.Sub(probed))
		}
		s.lap()
		s.stop()
		if s.wall <= d || s.refWall <= ref {
			t.Errorf("threads=%d: sums did not grow: wall %v ref %v", threads, s.wall, s.refWall)
		}
	}
}
