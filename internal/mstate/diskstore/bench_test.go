package diskstore

import (
	"fmt"
	"runtime"
	"testing"

	"agnopol/internal/mstate"
)

// The benchmarks share the shape of the persist_evm workload's store: a
// trie of benchKeys leaves (≈ 8 k nodes with its branches) whose every
// value changes each round, so each commit appends the whole trie again:
// benchRounds commits write ≈ 200 k records, and compaction leaves one or
// two tries' worth in the log. openT sets NoSync: they time the store's
// own work, not the host's fsync.
const (
	benchKeys   = 6000
	benchRounds = 25
)

// churn rewrites every value of a trie of keys leaves for the given round.
func churn(tr *mstate.Trie, keys, round int) {
	for i := 0; i < keys; i++ {
		tr.Put(tk(fmt.Sprintf("bench-%d", i)), []byte(fmt.Sprintf("round-%d-value-%d", round, i)))
	}
}

// BenchmarkOpen measures recovery: reopening the store those commits
// leave, i.e. the index rebuild over the live generation.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	s := openT(b, dir, Options{})
	tr := mstate.New()
	for round := 0; round < benchRounds; round++ {
		churn(tr, benchKeys, round)
		commit(b, tr, s, nil)
	}
	records := s.Len()
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := openT(b, dir, Options{})
		if s.Len() != records {
			b.Fatalf("reopen indexed %d records, wrote %d", s.Len(), records)
		}
		s.Close()
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkCommitRound measures one round's write side: Trie.Commit of a
// fully rewritten trie into the store plus the store's own Commit. The
// churn itself is outside the timer.
func BenchmarkCommitRound(b *testing.B) {
	s := openT(b, b.TempDir(), Options{})
	defer s.Close()
	tr := mstate.New()
	churn(tr, benchKeys, 0)
	commit(b, tr, s, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(tr, benchKeys, i+1)
		tr.Root() // hashing is the trie's cost, paid before any store sees the nodes
		b.StartTimer()
		commit(b, tr, s, nil)
	}
}

// BenchmarkStoreResident reports what a store that has been running keeps
// on the heap per record it wrote: the live heap with only the store
// reachable minus the live heap without it, after the same 25 churn rounds,
// over the records those rounds appended. The fixed part is the 64 KiB
// append buffer (≈ 0.3 B/record here); anything per record shows as tens
// of bytes. Nothing is timed.
func BenchmarkStoreResident(b *testing.B) {
	s := openT(b, b.TempDir(), Options{})
	tr := mstate.New()
	records := 0
	for round := 0; round < benchRounds; round++ {
		churn(tr, benchKeys, round)
		before := s.Len()
		root, err := tr.Commit(s)
		if err != nil {
			b.Fatal(err)
		}
		records += s.Len() - before // counted before Commit retires a generation
		if err := s.Commit(root, nil); err != nil {
			b.Fatal(err)
		}
	}
	tr = nil // a committed trie remembers its store
	with := heapAfterGC()
	runtime.KeepAlive(s)
	s.Close()
	s = nil
	without := heapAfterGC()
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(float64(records), "records")
	b.ReportMetric((float64(with)-float64(without))/float64(records), "B/record")
}
