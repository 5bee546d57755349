package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// telemetryFixture builds a Telemetry over a fresh bundle with the given
// rules; the caller drives the metrics and calls Tick.
func telemetryFixture(rules []Rule) *Telemetry {
	return NewTelemetry(New(), 0, rules)
}

func TestHealthRateMinBreach(t *testing.T) {
	tel := telemetryFixture([]Rule{{
		Name: "floor", Kind: RuleRateMin, Series: "txs_total", Threshold: 1, Grace: 1,
	}})
	c := tel.Obs.Registry.Counter("txs_total", L("shard", "0"))
	c.Add(10)
	tel.Tick() // sample 1: inside grace, not evaluated
	if !tel.Health.Healthy() {
		t.Fatal("breached inside grace window")
	}
	c.Add(10)
	tel.Tick() // sample 2: rate > 0, healthy
	if !tel.Health.Healthy() {
		t.Fatal("breached while rate was above the floor")
	}
	tel.Tick() // sample 3: no progress — rate 0 < 1, breach
	if tel.Health.Healthy() {
		t.Fatal("flatlined counter did not trip the throughput floor")
	}
	// Sticky verdict: recovering throughput does not clear the flag.
	c.Add(100)
	tel.Tick()
	if tel.Health.Healthy() {
		t.Fatal("health verdict must stay red after a breach (flight-recorder semantics)")
	}
	if tel.Obs.Registry.Counter("obs_slo_breaches_total", L("rule", "floor")).Value() == 0 {
		t.Error("breach did not increment obs_slo_breaches_total")
	}
}

func TestHealthRateMaxAndGauge(t *testing.T) {
	tel := telemetryFixture([]Rule{
		{Name: "ceil", Kind: RuleRateMax, Series: "rejected_total", Threshold: 0, Grace: 0},
		{Name: "gmax", Kind: RuleGaugeMax, Series: "depth", Threshold: 5, Grace: 0},
	})
	rej := tel.Obs.Registry.Counter("rejected_total")
	depth := tel.Obs.Registry.Gauge("depth")
	tel.Tick()
	tel.Tick()
	if !tel.Health.Healthy() {
		t.Fatal("healthy run tripped a rule")
	}
	rej.Inc()
	depth.Set(6)
	tel.Tick()
	if tel.Health.Healthy() {
		t.Fatal("rejection + gauge overrun did not breach")
	}
	if got := tel.Health.Breaches(); got != 2 {
		t.Fatalf("Breaches = %d, want 2 (rate_max and gauge_max)", got)
	}
}

func TestHealthQuantileAndRatio(t *testing.T) {
	tel := telemetryFixture([]Rule{
		{Name: "tail", Kind: RuleQuantileMax, Series: "lat", Quantile: 0.99, Threshold: 1, Grace: 0},
		{Name: "recov", Kind: RuleRatioMin, Series: "recovered_total", Denominator: "injected_total", Threshold: 0.5, Grace: 0},
	})
	reg := tel.Obs.Registry
	sk := reg.Sketch("lat", L("chain", "a"))
	for i := 0; i < 100; i++ {
		sk.Observe(0.01)
	}
	tel.Tick()
	tel.Tick()
	if !tel.Health.Healthy() {
		t.Fatal("fast latencies tripped the tail ceiling")
	}
	// Push p99 over 1s through a second label set: the rule watches the
	// merged family, so the slow shard must show through.
	slow := reg.Sketch("lat", L("chain", "b"))
	for i := 0; i < 500; i++ {
		slow.Observe(30)
	}
	tel.Tick()
	if tel.Health.Healthy() {
		t.Fatal("merged p99 over threshold did not breach")
	}
	// Ratio rule: only evaluates once the denominator is non-zero.
	recovBreaches := reg.Counter("obs_slo_breaches_total", L("rule", "recov"))
	if recovBreaches.Value() != 0 {
		t.Fatal("ratio rule evaluated with a zero denominator")
	}
	reg.Counter("injected_total", L("class", "x")).Add(10)
	reg.Counter("recovered_total", L("class", "x")).Add(2)
	tel.Tick()
	if recovBreaches.Value() == 0 {
		t.Fatal("recovery ratio 0.2 < 0.5 did not breach")
	}
}

func TestHealthAnomalyBundleAndReport(t *testing.T) {
	tel := telemetryFixture([]Rule{{
		Name: "floor", Kind: RuleRateMin, Series: "txs_total", Threshold: 1, Grace: 1,
	}})
	reg := tel.Obs.Registry
	c := reg.Counter("txs_total")
	sk := reg.Sketch("lat")
	sp := tel.Obs.Tracer.Start("round", L("i", "1"))
	sp.End()
	for i := 0; i < 50; i++ {
		sk.Observe(0.1)
	}
	c.Add(5)
	tel.Tick()
	c.Add(5)
	tel.Tick()
	tel.Tick() // flatline -> breach
	rep := tel.Health.Report()
	if rep.Healthy || rep.TotalBreaches == 0 || len(rep.Anomalies) == 0 {
		t.Fatalf("report = %+v, want an unhealthy report with anomalies", rep)
	}
	a := rep.Anomalies[0]
	if a.Rule.Name != "floor" || a.Value != 0 {
		t.Errorf("anomaly = %+v, want the floor rule at rate 0", a)
	}
	if len(a.Deltas["txs_total"]) == 0 {
		t.Errorf("anomaly lacks the breaching series' recent deltas: %+v", a.Deltas)
	}
	if qs, ok := a.Quantiles["lat"]; !ok || qs["p99"] == 0 {
		t.Errorf("anomaly lacks merged sketch quantiles: %+v", a.Quantiles)
	}
	if len(a.Spans) == 0 || a.Spans[0].Name != "round" {
		t.Errorf("anomaly lacks recent spans: %+v", a.Spans)
	}
	if !strings.Contains(a.Goroutines, "goroutine") {
		t.Error("first anomaly lacks a goroutine dump")
	}

	path := filepath.Join(t.TempDir(), "HEALTH_report.json")
	if err := tel.Health.WriteReportFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back HealthReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("HEALTH_report.json does not round-trip: %v", err)
	}
	if back.Healthy || back.TotalBreaches != rep.TotalBreaches {
		t.Fatalf("round-tripped report = %+v", back)
	}
}

func TestHealthAnomalyBounds(t *testing.T) {
	tel := telemetryFixture([]Rule{{
		Name: "floor", Kind: RuleRateMin, Series: "txs_total", Threshold: 1, Grace: 0,
	}})
	tel.Obs.Registry.Counter("txs_total").Inc()
	// Breach far past the bundle cap: memory must stay bounded.
	for i := 0; i < maxAnomalies+20; i++ {
		tel.Tick()
	}
	rep := tel.Health.Report()
	if len(rep.Anomalies) != maxAnomalies {
		t.Fatalf("kept %d bundles, want cap %d", len(rep.Anomalies), maxAnomalies)
	}
	if rep.AnomaliesDropped == 0 {
		t.Error("dropped bundles not counted")
	}
	dumps := 0
	for _, a := range rep.Anomalies {
		if a.Goroutines != "" {
			dumps++
		}
	}
	if dumps != maxGoroutineDumps {
		t.Fatalf("%d goroutine dumps, want %d", dumps, maxGoroutineDumps)
	}
}

func TestNilTelemetryIsNoOp(t *testing.T) {
	var tel *Telemetry
	tel.Tick() // must not panic
	var m *HealthMonitor
	if !m.Healthy() || m.Breaches() != 0 || m.Rules() != nil || m.Evaluate(nil) != nil {
		t.Error("nil monitor is not a clean no-op")
	}
	rep := m.Report()
	if rep == nil || !rep.Healthy {
		t.Error("nil monitor report should be healthy")
	}
	var s *Sampler
	s.Sample()
	s.Start(0)
	s.Stop()
	if s.History("x") != nil || s.SeriesIDs() != nil {
		t.Error("nil sampler leaked state")
	}
	// Telemetry over a nil Obs: sampling and evaluating must not panic.
	tel2 := NewTelemetry(nil, 0, []Rule{{Name: "r", Kind: RuleRateMin, Series: "x", Threshold: 1}})
	tel2.Tick()
	tel2.Tick()
	if !tel2.Health.Healthy() {
		t.Error("telemetry over nil obs breached")
	}
}
