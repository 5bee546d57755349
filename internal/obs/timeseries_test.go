package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSamplerRecordsAllKinds(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", L("x", "1")).Add(5)
	reg.Gauge("g").Set(2.5)
	reg.Histogram("h_seconds", nil).Observe(0.1)
	reg.Sketch("q_latency").Observe(0.25)

	s := NewSampler(reg, 8)
	s.Sample()
	if got := s.Samples(); got != 1 {
		t.Fatalf("Samples = %d, want 1", got)
	}
	for _, id := range []string{
		`c_total{x="1"}`, "g",
		"h_seconds_count", "h_seconds_sum",
		"q_latency_count", "q_latency_sum", "q_latency_p50", "q_latency_p99",
	} {
		if len(s.History(id)) != 1 {
			t.Errorf("History(%q) = %v, want one point", id, s.History(id))
		}
	}
	if got := s.History(`c_total{x="1"}`)[0].V; got != 5 {
		t.Errorf("counter sample = %v, want 5", got)
	}
}

func TestSamplerRingBounds(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	s := NewSampler(reg, 4)
	for i := 1; i <= 10; i++ {
		c.Add(uint64(i))
		s.Sample()
	}
	pts := s.History("c_total")
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want capacity 4", len(pts))
	}
	// Oldest-first ordering: cumulative counter values 28, 36, 45, 55.
	want := []float64{28, 36, 45, 55}
	for i, p := range pts {
		if p.V != want[i] {
			t.Fatalf("ring points = %v, want values %v", pts, want)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatal("ring points out of time order")
		}
	}
	// Window deltas index the wrapped ring in place: the newest point minus
	// the one `window` back, clamped to the oldest point kept.
	for window, wantDelta := range map[int]float64{1: 10, 2: 19, 3: 27, 9: 27} {
		if d, _, ok := s.WindowDelta("c_total", window); !ok || d != wantDelta {
			t.Errorf("WindowDelta(window=%d) = %v, %v; want %v", window, d, ok, wantDelta)
		}
	}
}

func TestSamplerDeltasAndCounterReset(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", L("shard", "0"))
	c2 := reg.Counter("c_total", L("shard", "1"))
	s := NewSampler(reg, 16)
	c.Add(10)
	c2.Add(1)
	s.Sample()
	c.Add(5)
	c2.Add(2)
	s.Sample()
	d, dt, ok := s.LastDelta(`c_total{shard="0"}`)
	if !ok || d != 5 {
		t.Fatalf("LastDelta = %v,%v,%v, want 5", d, dt, ok)
	}
	fd, _, ok := s.FamilyDelta("c_total", 1)
	if !ok || fd != 7 {
		t.Fatalf("FamilyDelta = %v, want 7 (5 + 2 across label sets)", fd)
	}
	// Windowed delta spans multiple sample intervals, clamped to history.
	c.Add(1)
	s.Sample()
	wd, _, ok := s.WindowDelta(`c_total{shard="0"}`, 2)
	if !ok || wd != 6 {
		t.Fatalf("WindowDelta(2) = %v, want 6 (5 + 1 across two intervals)", wd)
	}
	// A window wider than the history clamps to the oldest point (value
	// 10), not to zero.
	wd, _, ok = s.WindowDelta(`c_total{shard="0"}`, 100)
	if !ok || wd != 6 {
		t.Fatalf("WindowDelta(100) = %v, want 6 (clamped to the recorded history)", wd)
	}
	// A counter that goes backwards restarted: delta counts from zero
	// instead of underflowing (Prometheus rate() semantics).
	if got := counterDelta(100, 3); got != 3 {
		t.Fatalf("counterDelta(100, 3) = %v, want 3 (reset semantics)", got)
	}
	ds := s.LastDeltas(`c_total{shard="0"}`, 8)
	if len(ds) != 2 || ds[0] != 5 || ds[1] != 1 {
		t.Fatalf("LastDeltas = %v, want [5 1] oldest first", ds)
	}
}

func TestSamplerWriteJSON(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	s := NewSampler(reg, 8)
	c.Add(1)
	s.Sample()
	c.Add(3)
	s.Sample()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Samples  uint64 `json:"samples"`
		Capacity int    `json:"capacity"`
		Series   []struct {
			ID        string  `json:"id"`
			Kind      string  `json:"kind"`
			LastDelta float64 `json:"last_delta"`
			Points    []struct {
				V float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid /timeseries JSON: %v\n%s", err, buf.String())
	}
	if doc.Samples != 2 || doc.Capacity != 8 || len(doc.Series) != 1 {
		t.Fatalf("doc = %+v, want 2 samples, capacity 8, one series", doc)
	}
	sr := doc.Series[0]
	if sr.ID != "c_total" || sr.Kind != "counter" || sr.LastDelta != 3 || len(sr.Points) != 2 {
		t.Fatalf("series = %+v, want c_total counter with delta 3 and 2 points", sr)
	}
	// Nil sampler still writes a valid (empty) document.
	var nilS *Sampler
	buf.Reset()
	if err := nilS.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"series": []`) {
		t.Fatalf("nil sampler JSON = %s", buf.String())
	}
}

// TestSamplerConcurrentSampleWhileWrite exercises Sample racing metric
// writes, History/WriteJSON reads and a second Sample under -race.
func TestSamplerConcurrentSampleWhileWrite(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 32)
	c := reg.Counter("c_total")
	sk := reg.Sketch("q_latency")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				c.Inc()
				sk.Observe(float64(i%100) / 1000)
				reg.Gauge("g", L("w", string(rune('a'+w)))).Set(float64(i))
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
					s.Sample()
					_ = s.History("c_total")
					_, _, _ = s.FamilyDelta("c_total", 2)
					buf.Reset()
					_ = s.WriteJSON(&buf)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	s.Sample()
	pts := s.History("c_total")
	if len(pts) == 0 || pts[len(pts)-1].V != 12000 {
		t.Fatalf("final counter sample = %v, want 12000", pts)
	}
}

func TestSamplerStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total").Inc()
	s := NewSampler(reg, 8)
	s.Start(time.Millisecond)
	s.Start(time.Millisecond) // second Start is a no-op, not a leak
	deadline := time.Now().Add(2 * time.Second)
	for s.Samples() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	if s.Samples() < 2 {
		t.Fatalf("background sampler took only %d samples in 2s", s.Samples())
	}
	n := s.Samples()
	time.Sleep(5 * time.Millisecond)
	if s.Samples() != n {
		t.Fatal("sampler kept sampling after Stop")
	}
	s.Sample() // explicit sampling still works after Stop
	if s.Samples() != n+1 {
		t.Fatal("explicit Sample after Stop failed")
	}
}

func TestIDWithSuffix(t *testing.T) {
	if got := idWithSuffix(`lat{chain="x"}`, "_count"); got != `lat_count{chain="x"}` {
		t.Errorf("idWithSuffix = %q", got)
	}
	if got := idWithSuffix("lat", "_sum"); got != "lat_sum" {
		t.Errorf("idWithSuffix = %q", got)
	}
}
