package sim

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"agnopol/internal/faults"
	"agnopol/internal/obs"
)

func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

var includedRe = regexp.MustCompile(`(?m)^eth_txs_included_total\{[^}]*\} (\d+)$`)

// TestSoakServeLiveEndpoints runs a soak with the telemetry server
// attached and scrapes it from an in-test HTTP client while the soak is
// still executing: /metrics must show the inclusion counter climbing
// across scrapes (not just a final value), /timeseries must accumulate
// points, and /health must answer 200 on a healthy run.
func TestSoakServeLiveEndpoints(t *testing.T) {
	o := obs.New()
	tel := obs.NewTelemetry(o, 0, DefaultSLORules())
	srv, err := obs.Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	done := make(chan error, 1)
	go func() {
		_, err := RunSoak(SoakSpec{
			Chain: ChainGoerli, Areas: 8, Users: 32, Rounds: 600,
			Shards: 2, Seed: 7, Obs: o, Telemetry: tel,
		})
		done <- err
	}()

	// Scrape continuously until the soak exits, collecting the distinct
	// values the inclusion counter exposed.
	seen := map[uint64]bool{}
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			_, body := scrape(t, base+"/metrics")
			if m := includedRe.FindStringSubmatch(body); m != nil {
				v, _ := strconv.ParseUint(m[1], 10, 64)
				seen[v] = true
			}
		}
	}
	_, body := scrape(t, base+"/metrics")
	if m := includedRe.FindStringSubmatch(body); m != nil {
		v, _ := strconv.ParseUint(m[1], 10, 64)
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Fatalf("mid-run /metrics scrapes saw only %d distinct inclusion counts %v — endpoint is not live", len(seen), seen)
	}

	code, body := scrape(t, base+"/timeseries")
	if code != 200 {
		t.Fatalf("/timeseries: %d", code)
	}
	var ts struct {
		Samples uint64 `json:"samples"`
		Series  []struct {
			ID     string            `json:"id"`
			Points []json.RawMessage `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("/timeseries JSON: %v", err)
	}
	if ts.Samples < 2 {
		t.Fatalf("/timeseries samples = %d, want one per round", ts.Samples)
	}
	multi := false
	for _, s := range ts.Series {
		if len(s.Points) >= 2 {
			multi = true
			break
		}
	}
	if !multi {
		t.Fatal("/timeseries has no series with two or more points")
	}

	code, body = scrape(t, base+"/health")
	if code != 200 {
		t.Fatalf("/health on a healthy soak: %d\n%s", code, body)
	}
	code, _ = scrape(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
}

// TestFaultStormTripsSLO is the flight-recorder acceptance path: a matrix
// run under a heavy fault plan must trip an SLO rule, flip the health
// verdict, and produce a HEALTH_report.json bundle carrying the breaching
// series' recent deltas and the tracer's recent spans.
func TestFaultStormTripsSLO(t *testing.T) {
	// 0.3 keeps every class firing constantly while staying inside what
	// the 8-attempt submission pipeline can absorb (0.3^8 ≈ 7e-5 residual
	// failure per submission).
	plan, err := faults.Profile("default", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	// A recovery floor above 1 cannot be met once any fault fires, so the
	// storm deterministically breaches on the first evaluated sample.
	tel := obs.NewTelemetry(o, 0, []obs.Rule{{
		Name: "fault_recovery_floor", Kind: obs.RuleRatioMin,
		Series: "faults_recovered_total", Denominator: "faults_injected_total",
		Threshold: 1.1, Grace: 0,
	}})
	_, err = RunMatrix(MatrixSpec{
		Cells: []Cell{{Chain: ChainGoerli, Users: 8}},
		Reps:  3, Seed: 7, Parallel: 1,
		Faults: plan, Verify: true, Telemetry: tel,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Health.Healthy() {
		t.Fatal("fault storm did not trip the SLO rule")
	}

	path := filepath.Join(t.TempDir(), "HEALTH_report.json")
	if err := tel.Health.WriteReportFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.HealthReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("HEALTH_report.json: %v", err)
	}
	if rep.Healthy || rep.TotalBreaches == 0 || len(rep.Anomalies) == 0 {
		t.Fatalf("report = healthy=%v breaches=%d anomalies=%d, want a breach record",
			rep.Healthy, rep.TotalBreaches, len(rep.Anomalies))
	}
	withDeltas, withSpans := false, false
	for _, a := range rep.Anomalies {
		if a.Rule.Name != "fault_recovery_floor" {
			t.Fatalf("unexpected breaching rule %q", a.Rule.Name)
		}
		for id, ds := range a.Deltas {
			if strings.HasPrefix(id, "faults_injected_total") && len(ds) > 0 {
				withDeltas = true
			}
		}
		if len(a.Spans) > 0 {
			withSpans = true
		}
	}
	if !withDeltas {
		t.Error("no anomaly bundle carries the breaching series' recent deltas")
	}
	if !withSpans {
		t.Error("no anomaly bundle carries recent spans")
	}
}

func processCPU(tb testing.TB) time.Duration {
	tb.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestTelemetryOverheadOnSoak bounds the per-round sampling cost: a soak
// with the sampler + health monitor ticking every round may cost at most
// 5% more process CPU time than the same soak without them. Each
// repetition is one back-to-back pair whose telemetry side is the bare
// soak it has just measured plus the ticks that soak would have made (one
// per round and a final one), run on the registry the soak filled and
// timed on their own; the verdict is the median paired ratio.
//
// The pair shares its soak because two separate soaks do not resolve the
// question on a shared host: identical bare runs measured back to back
// differ by several percent either way, so a median over a test-sized
// number of bare-vs-telemetry pairs scatters by more than a point around
// an overhead of 2.6%, and a 5% line then fails by chance. Timed directly
// the ticks repeat to a tenth of a point. The ticks run here see a
// registry that has stopped moving, so the rate rules breach and the
// monitor does its anomaly bookkeeping on top: the figure errs high.
func TestTelemetryOverheadOnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const (
		reps   = 7
		rounds = 40
		// tickBatches repeats the soak's ticks so their CPU time is far
		// above the clock's resolution.
		tickBatches = 10
	)
	ratios := make([]float64, reps)
	for i := range ratios {
		o := obs.New()
		start := processCPU(t)
		if _, err := RunSoak(SoakSpec{
			Chain: ChainGoerli, Areas: 4, Users: 16, Rounds: rounds,
			Shards: 2, Seed: 7, Obs: o,
		}); err != nil {
			t.Fatal(err)
		}
		bare := processCPU(t) - start
		tel := obs.NewTelemetry(o, 0, DefaultSLORules())
		start = processCPU(t)
		for n := 0; n < tickBatches*(rounds+1); n++ {
			tel.Tick()
		}
		ticks := (processCPU(t) - start) / tickBatches
		ratios[i] = float64(bare+ticks) / float64(bare)
	}
	sort.Float64s(ratios)
	median := ratios[reps/2]
	t.Logf("telemetry/bare CPU time over %d pairs: median %.4f, range %.4f..%.4f", reps, median, ratios[0], ratios[reps-1])
	if median > 1.05 {
		t.Errorf("telemetry costs %.1f%% of the bare soak's CPU time (median of %d pairs); the budget is 5%%",
			100*(median-1), reps)
	}
}

// BenchmarkTick prices one Telemetry.Tick — a sample plus the stock SLO
// rules — on the registry the overhead test's soak leaves behind.
func BenchmarkTick(b *testing.B) {
	o := obs.New()
	if _, err := RunSoak(SoakSpec{
		Chain: ChainGoerli, Areas: 4, Users: 16, Rounds: 40,
		Shards: 2, Seed: 7, Obs: o,
	}); err != nil {
		b.Fatal(err)
	}
	tel := obs.NewTelemetry(o, 0, DefaultSLORules())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.Tick()
	}
}

func BenchmarkSoakWithTelemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := obs.New()
		tel := obs.NewTelemetry(o, 0, DefaultSLORules())
		if _, err := RunSoak(SoakSpec{
			Chain: ChainGoerli, Areas: 4, Users: 16, Rounds: 20,
			Shards: 2, Seed: 7, Obs: o, Telemetry: tel,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
