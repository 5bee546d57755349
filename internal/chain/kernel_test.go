package chain

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"agnopol/internal/faults"
	"agnopol/internal/obs"
)

// TestRunShardedExecutesEveryIndexOnce: whatever the shard count, every
// item executes exactly once, members of a conflict component keep their
// canonical order on one state view, the serial path runs on the canonical
// view and the concurrent one only on forks that are each merged once, the
// two halves of the tail run once each — the state side after every merge,
// side by side with the receipt side only when the block fanned out — and
// the tallies add up to what ran.
func TestRunShardedExecutesEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, 2, 17, 1000} {
		for _, shards := range []int{1, 2, 8} {
			for _, resources := range []int{1, 5} {
				t.Run(fmt.Sprintf("n=%d/shards=%d/resources=%d", n, shards, resources), func(t *testing.T) {
					var sh Sharder
					sh.SetShards(shards)
					// A view logs the items it executed; item i touches
					// resource i mod resources, so there are
					// min(n, resources) conflict components.
					type view struct{ log []int }
					canon := &view{}
					var forks []*view
					merged := 0
					// What the tail saw: merges done when the state side ran, and
					// whether the state side had finished when the receipt side
					// started (always, when the tail runs inline).
					var settled, recorded atomic.Int32
					mergedAtSettle, settledAtRecord := -1, int32(-1)
					runs := make([]int, n)
					RunSharded(&sh, n,
						func(i int) []ConflictKey { return []ConflictKey{AppKey(uint64(i % resources))} },
						func(i int) uint64 { return 1 },
						canon,
						func() (*view, func()) {
							v := &view{}
							forks = append(forks, v)
							return v, func() { merged++ }
						},
						func(v *view, i int) uint64 {
							runs[i]++
							v.log = append(v.log, i)
							return uint64(i)
						},
						func() { mergedAtSettle = merged; settled.Add(1) },
						func() { settledAtRecord = settled.Load(); recorded.Add(1) })

					if settled.Load() != 1 || recorded.Load() != 1 || mergedAtSettle != merged {
						t.Fatalf("tail: state side ran %d times after %d of %d merges, receipt side %d times",
							settled.Load(), mergedAtSettle, merged, recorded.Load())
					}
					var wantGas uint64
					for i, got := range runs {
						if got != 1 {
							t.Fatalf("item %d executed %d times", i, got)
						}
						wantGas += uint64(i)
					}
					parallel := shards > 1 && min(n, resources) > 1
					if !parallel && settledAtRecord != 1 {
						t.Fatal("a block that did not fan out must run its tail inline: state side, then receipt side")
					}
					if wantForks := min(shards, n, resources); !parallel {
						if len(forks) != 0 || len(canon.log) != n {
							t.Fatalf("serial path forked %d views and ran %d/%d items on the canonical one", len(forks), len(canon.log), n)
						}
					} else if len(forks) != wantForks || merged != wantForks || len(canon.log) != 0 {
						t.Fatalf("%d forks, %d merges, %d items on the canonical view; want %d forks merged once each and none", len(forks), merged, len(canon.log), wantForks)
					}
					for _, v := range append(forks, canon) {
						last := make(map[int]int)
						for _, i := range v.log {
							if prev, ok := last[i%resources]; ok && prev > i {
								t.Fatalf("component %d ran item %d before %d", i%resources, prev, i)
							}
							last[i%resources] = i
						}
					}

					stats := sh.ShardStats()
					var txs, gas uint64
					for si := range stats.Txs {
						txs += stats.Txs[si]
						gas += stats.Gas[si]
					}
					if txs != uint64(n) || gas != wantGas {
						t.Fatalf("tallies say %d items / %d gas, want %d / %d", txs, gas, n, wantGas)
					}
					for si, v := range forks {
						if stats.Txs[si] != uint64(len(v.log)) {
							t.Fatalf("shard %d tallied %d items, ran %d", si, stats.Txs[si], len(v.log))
						}
					}
					wantBatches := uint64(0)
					if parallel {
						wantBatches = 1
					}
					if stats.ParallelBatches != wantBatches {
						t.Fatalf("ParallelBatches = %d, want %d", stats.ParallelBatches, wantBatches)
					}
				})
			}
		}
	}
}

// TestSharderZeroValueIsSerial: a chain that never called SetShards runs
// serially, reports one shard and has no tallies to show.
func TestSharderZeroValueIsSerial(t *testing.T) {
	var sh Sharder
	if sh.Shards() != 1 || sh.ShardStats() != nil {
		t.Fatalf("zero Sharder: %d shards, stats %v", sh.Shards(), sh.ShardStats())
	}
	ran := 0
	RunSharded(&sh, 3,
		func(i int) []ConflictKey { return []ConflictKey{AppKey(uint64(i))} },
		func(int) uint64 { return 1 },
		0, func() (int, func()) { t.Fatal("forked"); return 0, nil },
		func(int, int) uint64 { ran++; return 0 },
		func() { ran += 10 }, func() { ran += 100 })
	if ran != 113 {
		t.Fatalf("ran %d: want 3 items and both halves of the tail", ran)
	}
	sh.SetShards(0)
	if sh.Shards() != 1 || len(sh.ShardStats().Txs) != 1 {
		t.Fatal("SetShards(0) must clamp to one shard")
	}
}

// poolItem is a pool entry for tests: id names it, badSig fails Verify and
// poor fails the family admission check.
type poolItem struct {
	id           int
	badSig, poor bool
}

var (
	errBadSig = errors.New("bad signature")
	errPoor   = errors.New("cannot pay")
)

func (it poolItem) Verify() error {
	if it.badSig {
		return errBadSig
	}
	return nil
}

func (it poolItem) Hash() Hash32 { return Hash32{byte(it.id), byte(it.id >> 8)} }

func admitPoolItem(it poolItem) error {
	if it.poor {
		return errPoor
	}
	return nil
}

// TestPoolBatchMatchesOneByOne: batch admission under a seeded fault
// injector returns the same hashes and errors, builds the same pool — every
// entry carrying its item's hash — and leaves the injector's streams where
// len(items) Submit calls leave them, at any verification width.
func TestPoolBatchMatchesOneByOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	items := make([]poolItem, 200)
	for i := range items {
		items[i] = poolItem{id: i, badSig: i%7 == 3, poor: i%11 == 5}
	}
	plan := &faults.Plan{Rates: map[string]float64{faults.ClassTxDrop: 0.2, faults.ClassTxDelay: 0.3}}
	type outcome struct {
		hashes  []Hash32
		errs    []string
		entries []Pending[poolItem]
		faults  string // the injector's registry counters
	}
	run := func(submit func(p *Pool[poolItem]) ([]Hash32, []error)) outcome {
		clock := NewClock()
		clock.AdvanceTo(5 * time.Second)
		p := NewPool(clock, "test.pool", 9*time.Second, admitPoolItem)
		reg := obs.NewRegistry()
		p.SetFaults(faults.NewInjector(plan, 42, reg))
		var out outcome
		var errs []error
		out.hashes, errs = submit(p)
		for _, err := range errs {
			out.errs = append(out.errs, fmt.Sprint(err))
		}
		for _, e := range p.Entries() {
			if e.Hash != e.Item.Hash() {
				t.Fatalf("item %d queued with hash %x", e.Item.id, e.Hash[:2])
			}
			out.entries = append(out.entries, *e)
		}
		if p.Len() != len(out.entries) {
			t.Fatalf("Len %d, %d entries", p.Len(), len(out.entries))
		}
		out.faults = reg.Text()
		return out
	}
	ref := run(func(p *Pool[poolItem]) ([]Hash32, []error) {
		hashes := make([]Hash32, len(items))
		errs := make([]error, len(items))
		for i, it := range items {
			hashes[i], errs[i] = p.Submit(it)
		}
		return hashes, errs
	})
	var dropped, delayed int
	for i, e := range ref.errs {
		switch it := items[i]; {
		case it.badSig && e != errBadSig.Error(), !it.badSig && it.poor && e != errPoor.Error():
			t.Fatalf("item %d: error %q", i, e)
		case !it.badSig && !it.poor && e != "<nil>":
			dropped++
		}
	}
	for _, e := range ref.entries {
		if e.Delayed {
			delayed++
			if e.Submitted <= 5*time.Second || e.Submitted > 14*time.Second {
				t.Fatalf("item %d stalled to %v", e.Item.id, e.Submitted)
			}
		} else if e.Submitted != 5*time.Second {
			t.Fatalf("item %d queued at %v", e.Item.id, e.Submitted)
		}
	}
	if dropped == 0 || delayed == 0 {
		t.Fatalf("fault plan never fired (%d drops, %d delays)", dropped, delayed)
	}
	for _, width := range []int{1, 2, 8} {
		got := run(func(p *Pool[poolItem]) ([]Hash32, []error) { return p.SubmitBatch(items, width) })
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("width %d: batch admission diverges from one-by-one Submit", width)
		}
	}
}

// TestPoolSortTake: Sort is stable, Take hands out what it is asked for in
// queue order and keeps the rest, and taking a delayed entry is the
// recovery of its fault.
func TestPoolSortTake(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(NewClock(), "test.pool", time.Second, admitPoolItem)
	p.SetFaults(faults.NewInjector(&faults.Plan{Rates: map[string]float64{faults.ClassTxDelay: 1}}, 1, reg))
	for id := 0; id < 6; id++ {
		if _, err := p.Submit(poolItem{id: id}); err != nil {
			t.Fatal(err)
		}
	}
	// keys stays where it is: the permutation Sort returns leads from a
	// sorted position back to the entry's key.
	keys := []int{0, 1, 0, 1, 0, 1}
	order := p.Sort(func(i, j int) bool { return keys[i] < keys[j] })
	for k, e := range p.Entries() {
		if e.Item.id != order[k] || keys[order[k]] != e.Item.id%2 {
			t.Fatalf("after Sort, position %d holds item %d and order says %d", k, e.Item.id, order[k])
		}
	}
	pos := 0
	sel := p.Take(0, func(i int, e *Pending[poolItem]) bool {
		if i != pos {
			t.Fatalf("Take passed position %d for entry %d", i, pos)
		}
		pos++
		return e.Item.id != 2 && e.Item.id != 5
	})
	ids := func(es []*Pending[poolItem]) (out []int) {
		for _, e := range es {
			out = append(out, e.Item.id)
		}
		return out
	}
	if got := ids(sel); !reflect.DeepEqual(got, []int{0, 4, 1, 3}) {
		t.Fatalf("took %v", got)
	}
	if got := ids(p.Entries()); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("kept %v", got)
	}
	// Restore hashes what a checkpoint hands back without hashes.
	p.Restore([]*Pending[poolItem]{{Item: poolItem{id: 300}}, {Item: poolItem{id: 7}}})
	for _, e := range p.Entries() {
		if e.Hash != e.Item.Hash() {
			t.Fatalf("restored item %d has hash %x", e.Item.id, e.Hash[:2])
		}
	}
	delay := obs.L("class", faults.ClassTxDelay)
	if inj, rec := reg.Counter("faults_injected_total", delay).Value(), reg.Counter("faults_recovered_total", delay).Value(); inj != 6 || rec != 4 {
		t.Fatalf("tx_delay: %d injected, %d recovered; want 6 and 4", inj, rec)
	}
}
