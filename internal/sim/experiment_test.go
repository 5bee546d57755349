package sim

import (
	"strings"
	"testing"
)

func run16(t *testing.T, c ChainName) *Result {
	t.Helper()
	r, err := Execute(Spec{Chain: c, Users: 16, Seed: 7})
	if err != nil {
		t.Fatalf("Execute(%s): %v", c, err)
	}
	return r.Result
}

func TestRunStructure(t *testing.T) {
	r := run16(t, ChainAlgorand)
	if len(r.Measurements) != 16 {
		t.Fatalf("measurements = %d", len(r.Measurements))
	}
	deploys, attaches := 0, 0
	for _, m := range r.Measurements {
		if m.Latency <= 0 {
			t.Fatalf("user %d latency %v", m.User, m.Latency)
		}
		if m.Deployed {
			deploys++
			// Deployers come first in the thesis figures.
			if m.User >= 4 {
				t.Fatalf("deploy at sequence position %d", m.User)
			}
		} else {
			attaches++
		}
	}
	if deploys != 4 || attaches != 12 {
		t.Fatalf("deploys=%d attaches=%d, want 4/12", deploys, attaches)
	}
	if r.DeploySummary.N != 4 || r.AttachSummary.N != 12 {
		t.Fatalf("summaries %d/%d", r.DeploySummary.N, r.AttachSummary.N)
	}
}

func TestRunValidatesParameters(t *testing.T) {
	if _, err := Execute(Spec{Chain: ChainGoerli, Users: 5, Seed: 1}); err == nil {
		t.Fatal("non-multiple-of-4 user count accepted")
	}
	if _, err := Execute(Spec{Chain: ChainGoerli, Users: 64, Seed: 1}); err == nil {
		t.Fatal("more contracts than thesis locations accepted")
	}
	if _, err := openFamily("fantasy", 1, nil); err == nil {
		t.Fatal("unknown chain accepted")
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	a, err := Execute(Spec{Chain: ChainAlgorand, Users: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(Spec{Chain: ChainAlgorand, Users: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.DeploySummary != b.DeploySummary || a.AttachSummary != b.AttachSummary {
		t.Fatal("same seed produced different results")
	}
}

// TestPaperShape asserts the qualitative findings of §5.1.5 hold in the
// simulator:
//
//  1. attach latency: Algorand < Polygon < Goerli;
//  2. deploy latency: Polygon < Algorand < Goerli (the crossover — Algorand
//     deploys slower than Polygon because of its extra deployment traffic,
//     but attaches faster);
//  3. stability: Algorand's dispersion is far below the EVM chains';
//  4. fees in euro: Goerli ≫ Polygon, Algorand (both sub-cent);
//  5. Algorand deploy ≈ 2× its attach.
func TestPaperShape(t *testing.T) {
	goerli := run16(t, ChainGoerli)
	polygon := run16(t, ChainPolygon)
	algorand := run16(t, ChainAlgorand)

	// 1. Attach ordering.
	if !(algorand.AttachSummary.Mean < polygon.AttachSummary.Mean &&
		polygon.AttachSummary.Mean < goerli.AttachSummary.Mean) {
		t.Fatalf("attach ordering violated: algo=%.1f poly=%.1f goerli=%.1f",
			algorand.AttachSummary.Mean, polygon.AttachSummary.Mean, goerli.AttachSummary.Mean)
	}
	// 2. Deploy ordering with the crossover.
	if !(polygon.DeploySummary.Mean < algorand.DeploySummary.Mean &&
		algorand.DeploySummary.Mean < goerli.DeploySummary.Mean) {
		t.Fatalf("deploy ordering violated: poly=%.1f algo=%.1f goerli=%.1f",
			polygon.DeploySummary.Mean, algorand.DeploySummary.Mean, goerli.DeploySummary.Mean)
	}
	// 3. Stability.
	if algorand.AttachSummary.StdDev >= polygon.AttachSummary.StdDev ||
		algorand.AttachSummary.StdDev >= goerli.AttachSummary.StdDev {
		t.Fatalf("algorand attach σ=%.2f not the smallest (poly %.2f, goerli %.2f)",
			algorand.AttachSummary.StdDev, polygon.AttachSummary.StdDev, goerli.AttachSummary.StdDev)
	}
	if algorand.DeploySummary.StdDev >= goerli.DeploySummary.StdDev {
		t.Fatalf("algorand deploy σ=%.2f not below goerli's %.2f",
			algorand.DeploySummary.StdDev, goerli.DeploySummary.StdDev)
	}
	// 4. Fees.
	goerliEur := goerli.DeployFees.Euros() + goerli.AttachFees.Euros()
	polygonEur := polygon.DeployFees.Euros() + polygon.AttachFees.Euros()
	algorandEur := algorand.DeployFees.Euros() + algorand.AttachFees.Euros()
	if goerliEur < 10 {
		t.Fatalf("goerli fees €%.2f implausibly low", goerliEur)
	}
	if polygonEur > 0.05 || algorandEur > 0.05 {
		t.Fatalf("cheap chains not cheap: polygon €%.4f algorand €%.4f", polygonEur, algorandEur)
	}
	// 5. Algorand deploy ≈ 2× attach (paper: 28.53 vs 14.54).
	ratio := algorand.DeploySummary.Mean / algorand.AttachSummary.Mean
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("algorand deploy/attach ratio %.2f, want ≈2", ratio)
	}
}

// TestPaperMagnitudes pins the headline numbers to the paper's bands
// (generous tolerances — the paper's own two runs differ this much).
func TestPaperMagnitudes(t *testing.T) {
	goerli := run16(t, ChainGoerli)
	polygon := run16(t, ChainPolygon)
	algorand := run16(t, ChainAlgorand)

	within := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.2fs outside paper band [%.1f, %.1f]", name, got, lo, hi)
		}
	}
	within("goerli deploy", goerli.DeploySummary.Mean, 40, 75)     // paper 54.4–56.15
	within("goerli attach", goerli.AttachSummary.Mean, 20, 45)     // paper 25.56–35.95
	within("polygon deploy", polygon.DeploySummary.Mean, 18, 30)   // paper 23.44–25.78
	within("polygon attach", polygon.AttachSummary.Mean, 14, 25)   // paper 19.35–20.6
	within("algorand deploy", algorand.DeploySummary.Mean, 26, 32) // paper 28.53–28.93
	within("algorand attach", algorand.AttachSummary.Mean, 13, 16) // paper 14.54
	if algorand.AttachSummary.StdDev > 0.6 {
		t.Errorf("algorand attach σ=%.2f, paper reports ~0.31", algorand.AttachSummary.StdDev)
	}
}

func TestBuildTableRendering(t *testing.T) {
	results := map[ChainName]*Result{
		ChainGoerli:   run16(t, ChainGoerli),
		ChainPolygon:  run16(t, ChainPolygon),
		ChainAlgorand: run16(t, ChainAlgorand),
	}
	tbl := BuildTable("deploy", 16, results)
	out := tbl.String()
	for _, want := range []string{"Table 5.1", "Goerli", "Polygon", "Algorand", "Dev Std", "Euro"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFigureRendering(t *testing.T) {
	r := run16(t, ChainAlgorand)
	f := FigureFromResult("Fig 5.5b — Algorand: performances with 16 users", r)
	out := f.String()
	if !strings.Contains(out, "user  0*") {
		t.Fatalf("first user not marked as deploy:\n%s", out)
	}
	if !strings.Contains(out, "deploy operation") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if len(f.Values) != 16 {
		t.Fatalf("values = %d", len(f.Values))
	}
}

func TestFigureSpecsCoverPaper(t *testing.T) {
	// 1 Ropsten + 4 Goerli + 4 Polygon + 4 Algorand = 13 panels.
	if len(FigureSpecs) != 13 {
		t.Fatalf("figure specs = %d, want 13", len(FigureSpecs))
	}
	users := map[int]bool{}
	for _, s := range FigureSpecs {
		users[s.Users] = true
	}
	for _, u := range []int{8, 16, 24, 32} {
		if !users[u] {
			t.Fatalf("no figure with %d users", u)
		}
	}
}

// TestVerifySimilarToAttach checks the §5.1 claim that justified excluding
// verification from the measurements: "the verify operation is similar to
// the attachment since it is a basic API call to the contract".
func TestVerifySimilarToAttach(t *testing.T) {
	for _, c := range []ChainName{ChainAlgorand, ChainPolygon} {
		r, err := Execute(Spec{Chain: c, Users: 8, Seed: 7, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if r.Accepted != 8 {
			t.Fatalf("%s: %d/8 verifications accepted", c, r.Accepted)
		}
		ratio := r.VerifySummary.Mean / r.AttachSummary.Mean
		if ratio < 0.6 || ratio > 1.6 {
			t.Fatalf("%s: verify/attach latency ratio %.2f (verify %.1fs, attach %.1fs) — paper expects them similar",
				c, ratio, r.VerifySummary.Mean, r.AttachSummary.Mean)
		}
	}
}

func TestRunFigureSpec(t *testing.T) {
	f, r, err := RunFigure(FigureSpecs[0], 7, nil) // Fig 5.2, Ropsten, 8 users
	if err != nil {
		t.Fatal(err)
	}
	if f.Chain != ChainRopsten || f.Users != 8 || len(f.Values) != 8 {
		t.Fatalf("figure = %+v", f)
	}
	if r.DeploySummary.N != 2 || r.AttachSummary.N != 6 {
		t.Fatalf("8-user run: %d deploys, %d attaches", r.DeploySummary.N, r.AttachSummary.N)
	}
	// Fig 5.2's finding: Ropsten is slower/noisier than Goerli. A single
	// 8-user run is noisy, so compare aggregates over several seeds.
	var ropsten, goerli float64
	for seed := uint64(1); seed <= 4; seed++ {
		rr, err := Execute(Spec{Chain: ChainRopsten, Users: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gg, err := Execute(Spec{Chain: ChainGoerli, Users: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ropsten += rr.AttachSummary.Mean + rr.DeploySummary.Mean
		goerli += gg.AttachSummary.Mean + gg.DeploySummary.Mean
	}
	if ropsten <= goerli {
		t.Fatalf("ropsten aggregate %.1fs not above goerli %.1fs", ropsten, goerli)
	}
}
