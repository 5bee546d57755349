package chain

import (
	"reflect"
	"slices"
	"testing"
)

func addr(b byte) Address {
	var a Address
	a[0] = b
	return a
}

func TestPartitionTable(t *testing.T) {
	// Each case lists per-item key sets and the expected components.
	cases := []struct {
		name string
		keys [][]ConflictKey
		want [][]int
	}{
		{
			name: "disjoint items stay alone",
			keys: [][]ConflictKey{
				{AccountKey(addr(1)), ContractKey(addr(10))},
				{AccountKey(addr(2)), ContractKey(addr(11))},
				{AccountKey(addr(3)), ContractKey(addr(12))},
			},
			want: [][]int{{0}, {1}, {2}},
		},
		{
			name: "same sender across areas serializes",
			// One user checking in to three different area contracts: the
			// shared sender account chains all three together.
			keys: [][]ConflictKey{
				{AccountKey(addr(1)), ContractKey(addr(10))},
				{AccountKey(addr(1)), ContractKey(addr(11))},
				{AccountKey(addr(1)), ContractKey(addr(12))},
			},
			want: [][]int{{0, 1, 2}},
		},
		{
			name: "same contract from many senders serializes",
			// Three users hitting one area contract form one component;
			// a fourth user on another contract stays apart.
			keys: [][]ConflictKey{
				{AccountKey(addr(1)), ContractKey(addr(10))},
				{AccountKey(addr(2)), ContractKey(addr(10))},
				{AccountKey(addr(3)), ContractKey(addr(10))},
				{AccountKey(addr(4)), ContractKey(addr(11))},
			},
			want: [][]int{{0, 1, 2}, {3}},
		},
		{
			name: "zero address account and contract keys stay distinct",
			// The zero address as an account and as a contract are
			// different resources: kinds differ, so no false conflict.
			keys: [][]ConflictKey{
				{AccountKey(Address{})},
				{ContractKey(Address{})},
			},
			want: [][]int{{0}, {1}},
		},
		{
			name: "zero address shared as same kind conflicts",
			keys: [][]ConflictKey{
				{AccountKey(Address{})},
				{AccountKey(Address{})},
			},
			want: [][]int{{0, 1}},
		},
		{
			name: "global key joins everything carrying it",
			keys: [][]ConflictKey{
				{AccountKey(addr(1)), GlobalKey()},
				{AccountKey(addr(2))},
				{AccountKey(addr(3)), GlobalKey()},
			},
			want: [][]int{{0, 2}, {1}},
		},
		{
			name: "transitive chain merges into one component",
			// 0-1 share a contract, 1-2 share a sender: all three join.
			keys: [][]ConflictKey{
				{AccountKey(addr(1)), ContractKey(addr(10))},
				{AccountKey(addr(2)), ContractKey(addr(10))},
				{AccountKey(addr(2)), ContractKey(addr(11))},
			},
			want: [][]int{{0, 1, 2}},
		},
		{
			name: "app and asset keys with equal IDs stay distinct",
			keys: [][]ConflictKey{
				{AppKey(7)},
				{AssetKey(7)},
			},
			want: [][]int{{0}, {1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := partition(len(tc.keys), func(i int) []ConflictKey { return tc.keys[i] })
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Partition = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPartitionEmpty(t *testing.T) {
	if got := partition(0, func(int) []ConflictKey { return nil }); len(got) != 0 {
		t.Fatalf("partition(0) = %v, want empty", got)
	}
}

func TestAssignBalancesAndIsDeterministic(t *testing.T) {
	comps := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	weights := []uint64{100, 90, 10, 10, 10, 10}
	w := func(i int) uint64 { return weights[i] }

	bins := assign(comps, 2, w)
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2", len(bins))
	}
	load := func(b [][]int) uint64 {
		var sum uint64
		for _, comp := range b {
			for _, i := range comp {
				sum += w(i)
			}
		}
		return sum
	}
	// LPT on these weights: {100, 10, 10} vs {90, 10, 10}.
	if load(bins[0]) != 120 || load(bins[1]) != 110 {
		t.Fatalf("loads = %d/%d, want 120/110", load(bins[0]), load(bins[1]))
	}
	for i := 0; i < 10; i++ {
		again := assign(comps, 2, w)
		if !reflect.DeepEqual(bins, again) {
			t.Fatalf("Assign not deterministic: %v vs %v", bins, again)
		}
	}
}

func TestAssignFewerComponentsThanShards(t *testing.T) {
	comps := [][]int{{0, 1}}
	bins := assign(comps, 4, func(int) uint64 { return 1 })
	if len(bins) != 4 {
		t.Fatalf("got %d bins, want 4", len(bins))
	}
	nonEmpty := 0
	for _, b := range bins {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("one component must land in exactly one bin, got %d", nonEmpty)
	}
}

// TestShardStatsUtilization: record adds each shard's executed
// transactions and gas, and Clone copies them.
func TestShardStatsUtilization(t *testing.T) {
	s := newShardStats(4)
	s.record(0, 30, 300)
	s.record(1, 10, 100)
	s.record(1, 0, 0)
	// Out-of-range and nil receivers are no-ops, not panics.
	s.record(9, 1, 1)
	var nilStats *ShardStats
	nilStats.record(0, 1, 1)
	if !slices.Equal(s.Txs, []uint64{30, 10, 0, 0}) || !slices.Equal(s.Gas, []uint64{300, 100, 0, 0}) {
		t.Fatalf("txs %v gas %v, want [30 10 0 0] and [300 100 0 0]", s.Txs, s.Gas)
	}
	c := s.Clone()
	c.Txs[0] = 0
	if s.Txs[0] != 30 {
		t.Fatal("Clone shares the tallies")
	}
}
