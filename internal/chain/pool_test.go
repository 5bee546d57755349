package chain

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"agnopol/internal/faults"
	"agnopol/internal/obs"
)

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
		var sh Sharder
		sh.SetShards(width)
		got := run(func(p *Pool[poolItem]) ([]Hash32, []error) { return p.SubmitBatch(items, &sh) })
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
