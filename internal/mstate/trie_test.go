package mstate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func k(s string) Key { return KeyOf("test", []byte(s)) }

func TestPutGetDelete(t *testing.T) {
	tr := New()
	if _, ok := tr.Get(k("a")); ok {
		t.Fatal("empty trie claims a key")
	}
	tr.Put(k("a"), []byte("1"))
	tr.Put(k("b"), []byte("2"))
	tr.Put(k("a"), []byte("1x"))
	if got, _ := tr.Get(k("a")); !bytes.Equal(got, []byte("1x")) {
		t.Fatalf("a = %q, want 1x", got)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
	tr.Delete(k("a"))
	if tr.Has(k("a")) {
		t.Fatal("deleted key still present")
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
	tr.Delete(k("missing")) // no-op
	if tr.Len() != 1 {
		t.Fatalf("len after deleting missing key = %d, want 1", tr.Len())
	}
}

func TestEmptyValueVsAbsent(t *testing.T) {
	tr := New()
	tr.Put(k("a"), nil)
	if v, ok := tr.Get(k("a")); !ok || len(v) != 0 {
		t.Fatalf("empty value not stored: %v %v", v, ok)
	}
	r1 := tr.Root()
	tr.Delete(k("a"))
	if tr.Root() == r1 {
		t.Fatal("root unchanged after delete of empty-valued key")
	}
	if tr.Root() != (Hash{}) {
		t.Fatal("empty trie root is not the zero hash")
	}
}

// The root must be a pure function of the key/value set, independent of
// the order of insertions and interleaved deletions.
func TestRootHistoryIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = k(fmt.Sprintf("key-%d", i))
	}
	build := func(perm []int) Hash {
		tr := New()
		// Insert everything in permuted order, plus churn: write and
		// delete a disjoint set of scratch keys along the way.
		for j, idx := range perm {
			tr.Put(k(fmt.Sprintf("scratch-%d", j)), []byte("tmp"))
			tr.Put(keys[idx], []byte(fmt.Sprintf("val-%d", idx)))
		}
		for j := range perm {
			tr.Delete(k(fmt.Sprintf("scratch-%d", j)))
		}
		return tr.Root()
	}
	perm := rng.Perm(len(keys))
	want := build(perm)
	for trial := 0; trial < 5; trial++ {
		if got := build(rng.Perm(len(keys))); got != want {
			t.Fatalf("trial %d: root %x != %x under different history", trial, got[:8], want[:8])
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tr := New()
	tr.Put(k("a"), []byte("1"))
	snap := tr.Snapshot()
	tr.Put(k("a"), []byte("2"))
	tr.Put(k("b"), []byte("3"))
	snap.Delete(k("a"))

	if got, _ := tr.Get(k("a")); !bytes.Equal(got, []byte("2")) {
		t.Fatalf("parent a = %q, want 2", got)
	}
	if snap.Has(k("a")) || snap.Has(k("b")) {
		t.Fatal("snapshot observed parent mutations")
	}
	if tr.Len() != 2 || snap.Len() != 0 {
		t.Fatalf("len parent=%d snap=%d, want 2 and 0", tr.Len(), snap.Len())
	}
}

func TestPutCopiesValue(t *testing.T) {
	tr := New()
	v := []byte("mutable")
	tr.Put(k("a"), v)
	v[0] = 'X'
	if got, _ := tr.Get(k("a")); !bytes.Equal(got, []byte("mutable")) {
		t.Fatalf("trie aliased caller slice: %q", got)
	}
}

func TestOverlay(t *testing.T) {
	base := New()
	base.Put(k("a"), []byte("1"))
	base.Put(k("b"), []byte("2"))

	ov := NewOverlay(base)
	ov.Put(k("a"), []byte("10"))
	ov.Delete(k("b"))
	ov.Put(k("c"), []byte("30"))

	if got, _ := ov.Get(k("a")); !bytes.Equal(got, []byte("10")) {
		t.Fatalf("overlay a = %q", got)
	}
	if ov.Has(k("b")) {
		t.Fatal("overlay sees deleted key")
	}
	// Base untouched until commit.
	if got, _ := base.Get(k("a")); !bytes.Equal(got, []byte("1")) {
		t.Fatalf("base a = %q before commit", got)
	}
	if len(ov.writes) != 3 {
		t.Fatalf("touched = %d, want 3", len(ov.writes))
	}

	ov.CommitTo(base)
	if got, _ := base.Get(k("a")); !bytes.Equal(got, []byte("10")) {
		t.Fatalf("base a = %q after commit", got)
	}
	if base.Has(k("b")) {
		t.Fatal("base kept deleted key after commit")
	}
	if got, _ := base.Get(k("c")); !bytes.Equal(got, []byte("30")) {
		t.Fatalf("base c = %q after commit", got)
	}
}

func TestOverlayMarkKeepAndRevert(t *testing.T) {
	base := New()
	base.Put(k("a"), []byte("1"))
	ov := NewOverlay(base)
	ov.Put(k("b"), []byte("2"))

	// Reverted writes are seen while the mark is open and leave the
	// overlay untouched afterwards.
	ov.Mark()
	ov.Put(k("a"), []byte("bad"))
	ov.Delete(k("b"))
	if got, _ := ov.Get(k("a")); !bytes.Equal(got, []byte("bad")) {
		t.Fatalf("overlay a = %q under the open mark", got)
	}
	ov.Revert()
	if got, _ := ov.Get(k("a")); !bytes.Equal(got, []byte("1")) {
		t.Fatalf("overlay a = %q after revert", got)
	}
	if got, _ := ov.Get(k("b")); !bytes.Equal(got, []byte("2")) {
		t.Fatalf("overlay b = %q after revert", got)
	}

	// Kept writes stay in the overlay and survive commit.
	ov.Mark()
	ov.Put(k("a"), []byte("good"))
	ov.Keep()
	if got, _ := ov.Get(k("a")); !bytes.Equal(got, []byte("good")) {
		t.Fatalf("overlay a = %q after keep", got)
	}
	if got, _ := base.Get(k("a")); !bytes.Equal(got, []byte("1")) {
		t.Fatalf("base a = %q before commit", got)
	}
	ov.CommitTo(base)
	if got, _ := base.Get(k("a")); !bytes.Equal(got, []byte("good")) {
		t.Fatalf("base a = %q after commit", got)
	}
	if got, _ := base.Get(k("b")); !bytes.Equal(got, []byte("2")) {
		t.Fatalf("base b = %q after commit", got)
	}
}

// overlayState is everything a revert must bring back: what the overlay
// reads under every key of interest, the writes entries, and the root and
// key count of the base with the overlay committed onto a snapshot of it.
type overlayState struct {
	reads  map[Key]*leaf
	writes map[Key]*leaf
	root   Hash
	n      int
}

// committed is a snapshot of o's base with o's writes replayed onto it.
func committed(o *Overlay) *Trie {
	tr := o.base.Snapshot()
	o.CommitTo(tr)
	return tr
}

func stateOf(o *Overlay, keys ...Key) overlayState {
	tr := committed(o)
	st := overlayState{reads: map[Key]*leaf{}, writes: map[Key]*leaf{}, root: tr.Root(), n: tr.Len()}
	for _, key := range keys {
		st.reads[key] = o.leafOf(key)
	}
	for key, lf := range o.writes {
		st.writes[key] = lf
	}
	return st
}

func (want overlayState) mustEqual(t *testing.T, what string, o *Overlay) {
	t.Helper()
	for key, lf := range want.reads {
		if got := o.leafOf(key); got != lf {
			t.Fatalf("%s: key %x reads leaf %p, was %p", what, key[:3], got, lf)
		}
	}
	if len(o.writes) != len(want.writes) {
		t.Fatalf("%s: %d writes entries, were %d", what, len(o.writes), len(want.writes))
	}
	for key, lf := range want.writes {
		if got, ok := o.writes[key]; !ok || got != lf {
			t.Fatalf("%s: writes entry of %x is %p (present %v), was %p", what, key[:3], got, ok, lf)
		}
	}
	if tr := committed(o); tr.Root() != want.root || tr.Len() != want.n {
		t.Fatalf("%s: committed root or Len (%d, was %d) did not come back", what, tr.Len(), want.n)
	}
	if len(o.undo) != 0 || o.marked {
		t.Fatalf("%s: %d undo records left, marked %v", what, len(o.undo), o.marked)
	}
}

// TestOverlayRevertRestoresEarlierGroups is the journal where it can go
// wrong: the reverted group touches what an earlier, kept group wrote.
func TestOverlayRevertRestoresEarlierGroups(t *testing.T) {
	base := New()
	for i := 0; i < 64; i++ {
		base.Put(k(fmt.Sprintf("base-%d", i)), []byte{byte(i)})
	}
	ov := NewOverlay(base)
	kept, created, fresh, untouched := k("base-3"), k("created"), k("fresh"), k("base-9")

	ov.Mark() // the earlier group: overwrites a base key, creates one, deletes one
	ov.Put(kept, []byte("kept"))
	ov.Put(created, []byte("created"))
	ov.Delete(k("base-5"))
	ov.Keep()
	all := []Key{kept, created, fresh, untouched, k("base-5")}
	before := stateOf(ov, all...)

	ov.Mark()
	ov.Put(kept, []byte("overwritten"))
	ov.Put(kept, []byte("overwritten twice"))
	ov.Delete(created)
	ov.Put(fresh, []byte("fresh"))
	ov.Put(k("base-5"), []byte("back again"))
	ov.Delete(untouched)
	ov.Delete(k("never there"))
	ov.Revert()
	before.mustEqual(t, "revert over a kept group", ov)

	// Two reverts in a row, the second with nothing written under it.
	ov.Mark()
	ov.Delete(kept)
	ov.Put(created, []byte("again"))
	ov.Revert()
	before.mustEqual(t, "second revert", ov)
	ov.Mark()
	ov.Revert()
	before.mustEqual(t, "revert with nothing written", ov)

	// Revert of a Delete of a base key no group wrote: no writes entry stays.
	ov.Mark()
	ov.Delete(untouched)
	if ov.Has(untouched) || committed(ov).Len() != before.n-1 {
		t.Fatal("delete under the mark is not visible")
	}
	ov.Revert()
	before.mustEqual(t, "revert of a base-key delete", ov)

	// CommitTo replays the kept group and nothing of the reverted ones.
	want := New()
	for i := 0; i < 64; i++ {
		want.Put(k(fmt.Sprintf("base-%d", i)), []byte{byte(i)})
	}
	want.Put(kept, []byte("kept"))
	want.Put(created, []byte("created"))
	want.Delete(k("base-5"))
	if len(ov.writes) != 3 {
		t.Fatalf("journal has %d keys, the kept group wrote 3", len(ov.writes))
	}
	ov.CommitTo(base)
	if base.Root() != want.Root() || base.Len() != want.Len() {
		t.Fatal("base after commit is not the kept group over the base")
	}
}

func TestCommitLoadRoundTrip(t *testing.T) {
	tr := New()
	for i := 0; i < 300; i++ {
		tr.Put(k(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	tr.Delete(k("k7"))
	store := NewMemStore()
	root, err := tr.Commit(store)
	if err != nil {
		t.Fatal(err)
	}
	if root != tr.Root() {
		t.Fatal("commit returned a different root")
	}

	got, err := Load(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root() != root {
		t.Fatalf("loaded root %x != committed %x", got.Root(), root)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("loaded len %d != %d", got.Len(), tr.Len())
	}
	if got.Has(k("k7")) {
		t.Fatal("deleted key resurrected by load")
	}
	if v, _ := got.Get(k("k42")); !bytes.Equal(v, []byte("v42")) {
		t.Fatalf("loaded k42 = %q", v)
	}

	// A second commit of a mutated fork only adds the changed paths.
	before := store.Len()
	fork := tr.Snapshot()
	fork.Put(k("k1"), []byte("patched"))
	if _, err := fork.Commit(store); err != nil {
		t.Fatal(err)
	}
	if added := store.Len() - before; added <= 0 || added > 70 {
		t.Fatalf("incremental commit added %d nodes; shared subtrees not reused", added)
	}

	if _, err := Load(NewMemStore(), root); !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("load from an empty store: got %v, want ErrNodeMissing", err)
	}
	empty, err := Load(store, Hash{})
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty-root load: %v len=%d", err, empty.Len())
	}
}

// Randomized model check: the trie must agree with a plain map under
// mixed puts, deletes, snapshots and overlay commits.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	model := map[Key]string{}
	keys := make([]Key, 200)
	for i := range keys {
		keys[i] = k(fmt.Sprintf("r%d", i))
	}
	check := func(step int) {
		if tr.Len() != len(model) {
			t.Fatalf("step %d: len %d != model %d", step, tr.Len(), len(model))
		}
		for _, kk := range keys {
			got, ok := tr.Get(kk)
			want, wok := model[kk]
			if ok != wok || (ok && string(got) != want) {
				t.Fatalf("step %d: key %x got %q/%v want %q/%v", step, kk[:4], got, ok, want, wok)
			}
		}
	}
	for step := 0; step < 3000; step++ {
		kk := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1:
			tr.Delete(kk)
			delete(model, kk)
		case 2: // batch via overlay
			ov := NewOverlay(tr)
			for j := 0; j < 5; j++ {
				ok := keys[rng.Intn(len(keys))]
				if rng.Intn(3) == 0 {
					ov.Delete(ok)
					delete(model, ok)
				} else {
					v := fmt.Sprintf("ov%d-%d", step, j)
					ov.Put(ok, []byte(v))
					model[ok] = v
				}
			}
			ov.CommitTo(tr)
		default:
			v := fmt.Sprintf("v%d", step)
			tr.Put(kk, []byte(v))
			model[kk] = v
		}
		if step%500 == 0 {
			check(step)
		}
	}
	check(-1)

	// Rebuild from the model alone: identical root.
	fresh := New()
	for kk, v := range model {
		fresh.Put(kk, []byte(v))
	}
	if fresh.Root() != tr.Root() {
		t.Fatalf("rebuilt root %x != churned root %x", fresh.Root(), tr.Root())
	}
}

// Concurrent Root() on snapshots sharing unhashed nodes must be safe
// (exercised under -race) and agree.
func TestConcurrentRootHashing(t *testing.T) {
	tr := New()
	for i := 0; i < 2000; i++ {
		tr.Put(k(fmt.Sprintf("c%d", i)), []byte{byte(i)})
	}
	snaps := make([]*Trie, 8)
	for i := range snaps {
		snaps[i] = tr.Snapshot()
	}
	roots := make([]Hash, len(snaps))
	var wg sync.WaitGroup
	for i, s := range snaps {
		wg.Add(1)
		go func(i int, s *Trie) {
			defer wg.Done()
			roots[i] = s.Root()
		}(i, s)
	}
	wg.Wait()
	for i := 1; i < len(roots); i++ {
		if roots[i] != roots[0] {
			t.Fatalf("snapshot %d root diverged", i)
		}
	}
}

// TestOverlayReadAfterBaseWritePanics: an overlay reads the live base, so
// once the base is written a read through an overlay opened before the
// write would mix two versions of the state. It panics instead, naming
// the rule; committing the overlay is still allowed.
func TestOverlayReadAfterBaseWritePanics(t *testing.T) {
	base := New()
	base.Put(k("a"), []byte("1"))
	ov := NewOverlay(base)
	ov.Put(k("b"), []byte("2"))
	if !ov.Has(k("a")) {
		t.Fatal("overlay does not see the base")
	}
	base.Put(k("c"), []byte("3"))
	for name, read := range map[string]func(){
		"Get": func() { ov.Get(k("b")) },
		"Has": func() { ov.Has(k("a")) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "must not be read once its base has been written") {
					t.Fatalf("%s after a base write: recovered %q, want the overlay rule", name, msg)
				}
			}()
			read()
		}()
	}
	ov.CommitTo(base)
	if v, _ := base.Get(k("b")); !bytes.Equal(v, []byte("2")) || !base.Has(k("c")) {
		t.Fatal("commit after the base moved lost a write")
	}
}

// TestParallelRootMatchesSerialBuild: a Root after parallelRootWrites or
// more writes hashes the root's children on two goroutines when it may; on
// one core and on two it must equal the root of a fresh trie of the same
// keys hashed on one. Run under -race.
func TestParallelRootMatchesSerialBuild(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		tr := New()
		model := map[Key][]byte{}
		for round := 0; round < 3; round++ {
			for i := 0; i < parallelRootWrites+rng.Intn(4*parallelRootWrites); i++ {
				key := KeyOf("par", []byte{byte(rng.Intn(40))}, []byte{byte(rng.Intn(256))})
				if rng.Intn(5) == 0 {
					tr.Delete(key)
					delete(model, key)
					continue
				}
				v := []byte(fmt.Sprintf("r%d/%d", round, i))
				tr.Put(key, v)
				model[key] = v
			}
			got := tr.Root()
			runtime.GOMAXPROCS(1)
			fresh := New()
			for key, v := range model {
				fresh.Put(key, v)
			}
			want := fresh.Root()
			runtime.GOMAXPROCS(procs)
			if got != want {
				t.Fatalf("GOMAXPROCS %d, round %d: root of %d keys differs from a serial fresh build", procs, round, len(model))
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
