package sim

import (
	"fmt"
	"runtime"
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
			if len(r.Utilization) != 4 {
				t.Fatalf("utilization has %d entries, want 4", len(r.Utilization))
			}
			if r.ParallelBatches == 0 {
				t.Fatal("disjoint-area soak must fan out at least once")
			}
		})
	}
}

// TestSoakDeterministicAcrossShards is the soak-level bit-identity gate:
// the same spec at any shard count must land on the same chain digest,
// world-state root, block count and fee total.
func TestSoakDeterministicAcrossShards(t *testing.T) {
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
					t.Fatalf("shards=%d digest diverges from the serial baseline", shards)
				}
				if r.StateRoot != base.StateRoot {
					t.Fatalf("shards=%d state root diverges from the serial baseline", shards)
				}
				if r.FeesPaid.Base.Cmp(base.FeesPaid.Base) != 0 {
					t.Fatalf("shards=%d paid %v in fees, serial %v", shards, r.FeesPaid, base.FeesPaid)
				}
				if r.Blocks != base.Blocks {
					t.Fatalf("shards=%d produced %d blocks, serial %d", shards, r.Blocks, base.Blocks)
				}
			}
		})
	}
}

// TestSoakDeterministicAcrossGOMAXPROCS pins the sharded soak's digest
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

// TestSoakGoldenDigest pins one soak per chain family across commits, at
// the shape scripts/check.sh smoked until PR 25 (8 areas × 32 users × 15
// rounds, 4 shards, seed 7); the constants were captured on PR 24's tree.
// It replaces that script's run-twice-and-grep comparison: a digest that
// moves between commits or between processes fails here. If this fails, a
// change reached chain state.
func TestSoakGoldenDigest(t *testing.T) {
	for _, g := range []struct {
		chain        ChainName
		digest, root string
	}{
		{ChainGoerli,
			"b99fea5fa85f5f5d66da1ea2e1f090e38028c13e8a369bccc08cbd27a9149634",
			"09d155404824c296fb55cee71668360da4b31c8c4c3b4ce762569714203f708a"},
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
