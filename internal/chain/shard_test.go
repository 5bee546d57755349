package chain

import (
	"runtime"
	"slices"
	"testing"
)

// TestShardStatsUtilization: Record adds each block's executed items and
// gas to the one lane, and ShardStats hands out a copy.
func TestShardStatsUtilization(t *testing.T) {
	var sh Sharder
	sh.SetShards(4)
	sh.Record(30, 300)
	sh.Record(10, 100)
	sh.Record(0, 0)
	s := sh.ShardStats()
	if !slices.Equal(s.Txs, []uint64{40}) || !slices.Equal(s.Gas, []uint64{400}) || s.ParallelBatches != 0 {
		t.Fatalf("txs %v gas %v, %d parallel batches; want [40], [400] and none", s.Txs, s.Gas, s.ParallelBatches)
	}
	s.Txs[0] = 0
	if sh.ShardStats().Txs[0] != 40 {
		t.Fatal("ShardStats shares the tallies")
	}
	sh.SetShards(2)
	if got := sh.ShardStats(); got.Txs[0] != 0 || got.Gas[0] != 0 {
		t.Fatal("SetShards must start the tallies afresh")
	}
}

// TestParallelBatchesCountsFannedOutBatches: a batch counts when FanOut
// runs it on more than one goroutine — more than one item, at a width and
// a GOMAXPROCS above one — and the width handed back is the configured one.
func TestParallelBatchesCountsFannedOutBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		procs, width, n int
		counts          bool
	}{
		{2, 4, 10, true},
		{4, 2, 2, true},
		{1, 4, 10, false},
		{2, 1, 10, false},
		{2, 4, 1, false},
		{2, 4, 0, false},
	} {
		runtime.GOMAXPROCS(tc.procs)
		var sh Sharder
		sh.SetShards(tc.width)
		if w := sh.batchWidth(tc.n); w != tc.width {
			t.Fatalf("%+v: width %d", tc, w)
		}
		if got := sh.ShardStats().ParallelBatches; got != map[bool]uint64{true: 1}[tc.counts] {
			t.Fatalf("%+v: %d parallel batches", tc, got)
		}
	}
	var zero Sharder
	runtime.GOMAXPROCS(2)
	if w := zero.batchWidth(10); w != 1 || zero.ShardStats() != nil {
		t.Fatal("a zero Sharder fans out at width one and keeps no tallies")
	}
}

// TestSharderZeroValueIsSerial: a chain that never called SetShards has a
// width of one and no tallies to show, and recording into it is a no-op.
func TestSharderZeroValueIsSerial(t *testing.T) {
	var sh Sharder
	sh.Record(3, 30)
	if sh.Shards() != 1 || sh.ShardStats() != nil {
		t.Fatalf("zero Sharder: width %d, stats %v", sh.Shards(), sh.ShardStats())
	}
	sh.SetShards(0)
	if sh.Shards() != 1 || len(sh.ShardStats().Txs) != 1 {
		t.Fatal("SetShards(0) must clamp to a width of one")
	}
}
