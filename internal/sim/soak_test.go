package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"agnopol/internal/obs"
)

func TestRunSoakValidatesSpec(t *testing.T) {
	if _, err := RunSoak(SoakSpec{Chain: ChainGoerli, Areas: 0, Users: 4, Rounds: 1}); err == nil {
		t.Fatal("zero areas must be rejected")
	}
	if _, err := RunSoak(SoakSpec{Chain: "nope", Areas: 1, Users: 1, Rounds: 1}); err == nil {
		t.Fatal("unknown chain must be rejected")
	}
}

func TestRunSoakBothChains(t *testing.T) {
	for _, c := range []ChainName{ChainGoerli, ChainAlgorand} {
		c := c
		t.Run(string(c), func(t *testing.T) {
			o := obs.New()
			r, err := RunSoak(SoakSpec{
				Chain: c, Areas: 4, Users: 8, Rounds: 3, Shards: 4, Seed: 11, Obs: o,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Submitted != 8*3 || r.Included != r.Submitted {
				t.Fatalf("submitted/included = %d/%d, want 24/24", r.Submitted, r.Included)
			}
			if r.Blocks == 0 || r.Simulated <= 0 {
				t.Fatalf("blocks=%d simulated=%v", r.Blocks, r.Simulated)
			}
			if r.TxsPerSecSimulated() <= 0 {
				t.Fatal("simulated throughput must be positive")
			}
		})
	}
}

// TestSoakDeterministicAcrossFanOutWidths is the soak-level bit-identity gate
// across fan-out widths: the same spec at any Shards value must land on
// the same chain digest, world-state root, block count and fee total.
func TestSoakDeterministicAcrossFanOutWidths(t *testing.T) {
	for _, c := range []ChainName{ChainGoerli, ChainAlgorand} {
		c := c
		t.Run(string(c), func(t *testing.T) {
			base, err := RunSoak(SoakSpec{Chain: c, Areas: 4, Users: 8, Rounds: 3, Shards: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4} {
				r, err := RunSoak(SoakSpec{Chain: c, Areas: 4, Users: 8, Rounds: 3, Shards: shards, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				if r.Digest != base.Digest {
					t.Fatalf("shards=%d digest diverges from the width-1 run", shards)
				}
				if r.StateRoot != base.StateRoot {
					t.Fatalf("shards=%d state root diverges from the width-1 run", shards)
				}
				if r.FeesPaid.Base.Cmp(base.FeesPaid.Base) != 0 {
					t.Fatalf("shards=%d paid %v in fees, width 1 %v", shards, r.FeesPaid, base.FeesPaid)
				}
				if r.Blocks != base.Blocks {
					t.Fatalf("shards=%d produced %d blocks, width 1 %d", shards, r.Blocks, base.Blocks)
				}
			}
		})
	}
}

// TestSoakDeterministicAcrossGOMAXPROCS pins the soak's digest
// across scheduler widths: GOMAXPROCS=1 and GOMAXPROCS=N must agree
// bit-for-bit, so CI's multi-core runners and a single-core laptop produce
// the same chain.
func TestSoakDeterministicAcrossGOMAXPROCS(t *testing.T) {
	spec := SoakSpec{Chain: ChainGoerli, Areas: 4, Users: 8, Rounds: 3, Shards: 4, Seed: 7}
	wide, err := RunSoak(spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	narrow, err := RunSoak(spec)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Digest != wide.Digest {
		t.Fatal("digest depends on GOMAXPROCS")
	}
	if narrow.Blocks != wide.Blocks || narrow.Included != wide.Included {
		t.Fatalf("block/tx counts depend on GOMAXPROCS: %d/%d vs %d/%d",
			narrow.Blocks, narrow.Included, wide.Blocks, wide.Included)
	}
}

// TestSoakGoldenDigest pins one soak per chain preset across commits, at
// the shape scripts/check.sh once smoked (8 areas × 32 users × 15 rounds,
// 4 shards, seed 7); the Goerli and Algorand constants were captured at
// commit 23de09f, the Polygon row at 7a3c901. It replaces that script's
// run-twice-and-grep comparison: a digest that moves between commits or
// between processes fails here. If this fails, a change reached chain
// state.
func TestSoakGoldenDigest(t *testing.T) {
	for _, g := range []struct {
		chain        ChainName
		digest, root string
	}{
		{ChainGoerli,
			"b99fea5fa85f5f5d66da1ea2e1f090e38028c13e8a369bccc08cbd27a9149634",
			"09d155404824c296fb55cee71668360da4b31c8c4c3b4ce762569714203f708a"},
		{ChainPolygon,
			"1f034e97dcd8fd70a393ce722bd61437c8b41124af9a820d7d5c7c46cbef1f8a",
			"032c30e6fd31d31a3aafb0e4d7d3c110cb451fa492337db604ec10543a79e1a9"},
		{ChainAlgorand,
			"9e58efdf9effdf05b124f4b5d1c57867ce41707d3329307f0e23e5580e79e84f",
			"afb06f8a29fafa4c1150f6ae1ee9f0b4b01c322de66170c000479ab6fa6d8e9e"},
	} {
		t.Run(string(g.chain), func(t *testing.T) {
			r, err := RunSoak(SoakSpec{Chain: g.chain, Areas: 8, Users: 32, Rounds: 15, Shards: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", r.Digest[:]); got != g.digest {
				t.Errorf("digest = %s, want %s", got, g.digest)
			}
			if got := fmt.Sprintf("%x", r.StateRoot[:]); got != g.root {
				t.Errorf("state root = %s, want %s", got, g.root)
			}
			if r.Blocks != 15 || r.Included != 32*15 {
				t.Errorf("blocks/included = %d/%d, want 15/480", r.Blocks, r.Included)
			}
		})
	}
}

// TestSoakConcurrentChainsMatchSolo drives every chain's batched
// submission loop from its own goroutine at once, all recording into one
// shared obs bundle, and compares each with the same soak run alone and
// unobserved: scheduling and a shared recorder must never reach chain
// state. Under -race this is the check that concurrent soaks share nothing
// but the bundle.
func TestSoakConcurrentChainsMatchSolo(t *testing.T) {
	spec := func(c ChainName) SoakSpec {
		return SoakSpec{Chain: c, Areas: 4, Users: 8, Rounds: 4, Shards: 2, Seed: 42}
	}
	o := obs.New()
	conc := make([]*SoakResult, len(AllChains))
	errs := make([]error, len(AllChains))
	var wg sync.WaitGroup
	for i, c := range AllChains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := spec(c)
			s.Obs = o
			conc[i], errs[i] = RunSoak(s)
		}()
	}
	wg.Wait()
	for i, c := range AllChains {
		if errs[i] != nil {
			t.Fatalf("%s concurrent: %v", c, errs[i])
		}
		solo, err := RunSoak(spec(c))
		if err != nil {
			t.Fatalf("%s solo: %v", c, err)
		}
		if conc[i].Digest != solo.Digest {
			t.Errorf("%s: concurrent digest %x != solo digest %x", c, conc[i].Digest[:], solo.Digest[:])
		}
		if conc[i].StateRoot != solo.StateRoot {
			t.Errorf("%s: concurrent root %x != solo root %x", c, conc[i].StateRoot[:], solo.StateRoot[:])
		}
		if conc[i].Included != solo.Included || solo.Included != 8*4 {
			t.Errorf("%s: included %d concurrent, %d solo, want 32", c, conc[i].Included, solo.Included)
		}
	}
}

// TestSoakFeesPaid pins the fee identity on a single-chain soak: funding
// minus final balance, summed over users, divided by included.
func TestSoakFeesPaid(t *testing.T) {
	for _, name := range []ChainName{ChainGoerli, ChainAlgorand} {
		res, err := RunSoak(SoakSpec{Chain: name, Areas: 2, Users: 4, Rounds: 3, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.FeesPaid.Base == nil || res.FeesPaid.Base.Sign() <= 0 {
			t.Fatalf("%s: fees paid %v not positive", name, res.FeesPaid)
		}
		if res.MeanFeeEuro <= 0 {
			t.Fatalf("%s: mean fee %v not positive", name, res.MeanFeeEuro)
		}
		wantUnit := map[ChainName]string{ChainGoerli: "ETH", ChainAlgorand: "ALGO"}[name]
		if res.FeesPaid.Unit.Name != wantUnit {
			t.Fatalf("%s: fee unit %q, want %q", name, res.FeesPaid.Unit.Name, wantUnit)
		}
	}
}
