package mstate

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// Tests of the ownership rule: a handle mutates in place only the branches
// it created since its last Snapshot, so no write can be seen through
// another handle.

// deepKeys is a key universe with long shared prefixes (every byte is one
// of four values, the rest zero), so writes split leaves into branch
// chains, collapse them again and keep hitting the same interior branches.
func deepKeys() []Key {
	alphabet := []byte{0x00, 0x01, 0x10, 0x11}
	var keys []Key
	for _, a := range alphabet {
		for _, b := range alphabet {
			for _, c := range alphabet {
				keys = append(keys, Key{a, b, c})
			}
		}
	}
	return keys
}

// kvHandle is what a Trie and an Overlay have in common.
type kvHandle interface {
	Get(Key) ([]byte, bool)
	Put(Key, []byte)
	Delete(Key)
}

// modeled pairs a handle with the map it must equal.
type modeled struct {
	kv kvHandle
	m  map[Key][]byte
}

// forkOf models a handle just forked off from: it starts with from's contents.
func forkOf(from *modeled, kv kvHandle) *modeled {
	h := &modeled{kv: kv, m: make(map[Key][]byte, len(from.m))}
	for k, v := range from.m {
		h.m[k] = v
	}
	return h
}

// write applies one random Put or Delete to the handle and its model.
func (h *modeled) write(rng *rand.Rand, keys []Key) Key {
	k := keys[rng.Intn(len(keys))]
	if rng.Intn(3) == 0 {
		h.kv.Delete(k)
		delete(h.m, k)
	} else {
		v := []byte(fmt.Sprintf("v%d", rng.Int63()))
		h.kv.Put(k, v)
		h.m[k] = v
	}
	return k
}

func (h *modeled) check(t *testing.T, what string, keys []Key) {
	t.Helper()
	if tr, ok := h.kv.(*Trie); ok && tr.Len() != len(h.m) {
		t.Fatalf("%s: Len %d, model has %d", what, tr.Len(), len(h.m))
	}
	for _, k := range keys {
		got, ok := h.kv.Get(k)
		want, wantOK := h.m[k]
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: key %x = %q/%v, model %q/%v", what, k[:3], got, ok, want, wantOK)
		}
	}
}

// checkRoot compares a trie's root with a trie freshly built from its model.
func checkRoot(t *testing.T, what string, tr *Trie, m map[Key][]byte) {
	t.Helper()
	fresh := New()
	for k, v := range m {
		fresh.Put(k, v)
	}
	if tr.Root() != fresh.Root() {
		t.Fatalf("%s: root diverges from a freshly built trie of the same contents", what)
	}
}

// TestOwnershipRandomized walks chains of Snapshot / NewOverlay / Mark /
// Keep / Revert / CommitTo / discard with writes on both sides of every
// snapshot, and holds every live handle to its own model after every round.
func TestOwnershipRandomized(t *testing.T) {
	keys := deepKeys()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// burst applies a few random writes to h, noting the keys in
		// journal when one is given.
		burst := func(h *modeled, journal map[Key]bool) {
			for n := rng.Intn(12); n > 0; n-- {
				if k := h.write(rng, keys); journal != nil {
					journal[k] = true
				}
			}
		}
		root := New()
		tries := []*modeled{{kv: root, m: map[Key][]byte{}}}
		for round := 0; round < 150; round++ {
			h := tries[rng.Intn(len(tries))]
			tr := h.kv.(*Trie)
			burst(h, nil)
			if round%3 == 0 {
				tr.Root() // fill hash caches that in-place writes must clear
			}
			switch rng.Intn(4) {
			case 0: // snapshot, then write both sides
				snap := forkOf(h, tr.Snapshot())
				burst(h, nil)
				burst(snap, nil)
				burst(h, nil)
				if len(tries) < 6 {
					tries = append(tries, snap)
				} else {
					snap.check(t, "discarded snapshot", keys)
					tries[rng.Intn(len(tries))] = snap // discard an older handle
				}
			case 1, 2: // overlay over tr, with marked groups kept or reverted, committed or dropped
				ovl := NewOverlay(tr)
				ov := forkOf(h, ovl)
				journal := map[Key]bool{}
				burst(ov, journal)
				if rng.Intn(4) == 0 {
					// The base moves on under the live overlay: the
					// overlay may no longer be read, only committed or
					// dropped.
					burst(h, nil)
					h.kv.Put(keys[0], []byte("moved"))
					h.m[keys[0]] = []byte("moved")
					mustPanic(t, "overlay read after its base moved", func() { ovl.Get(keys[0]) })
				} else {
					for group := rng.Intn(3); group > 0; group-- {
						// The model snapshots at the mark and restores on revert.
						atMark, journalAtMark := forkOf(ov, nil).m, map[Key]bool{}
						for k := range journal {
							journalAtMark[k] = true
						}
						ovl.Mark()
						burst(ov, journal)
						ov.check(t, "overlay under an open mark", keys)
						if rng.Intn(2) == 0 {
							ovl.Keep()
						} else {
							ovl.Revert()
							ov.m, journal = atMark, journalAtMark
							ov.check(t, "overlay after a revert", keys)
						}
						burst(ov, journal)
					}
					ov.check(t, "overlay", keys)
				}
				if len(ovl.writes) != len(journal) {
					t.Fatalf("overlay journal has %d keys, wrote %d", len(ovl.writes), len(journal))
				}
				if rng.Intn(3) != 0 {
					ovl.CommitTo(tr)
					for k := range journal {
						if v, ok := ov.m[k]; ok {
							h.m[k] = v
						} else {
							delete(h.m, k)
						}
					}
				}
			}
			for i, h := range tries {
				what := fmt.Sprintf("seed %d round %d handle %d", seed, round, i)
				h.check(t, what, keys)
				checkRoot(t, what, h.kv.(*Trie), h.m)
			}
		}
	}
}

var snapshotSink *Trie

// TestOwnedPutAllocatesNoBranch pins the cost model: a Put along a path the
// handle already owns allocates the leaf and its value and nothing else;
// the first Put after Snapshot additionally draws a token and copies every
// branch on the path exactly once.
func TestOwnedPutAllocatesNoBranch(t *testing.T) {
	const depth = 6 // the two keys share five nibbles: a chain of six branches
	a, b := Key{0x12, 0x34, 0x50}, Key{0x12, 0x34, 0x5F}
	tr := New()
	tr.Put(a, []byte("aaaaaaaa"))
	tr.Put(b, []byte("bbbbbbbb"))
	branches := 0
	for n := tr.root; ; branches++ {
		br, ok := n.(*branch)
		if !ok {
			break
		}
		n = br.child(nibble(a, branches))
	}
	if branches != depth {
		t.Fatalf("path to the key has %d branches, want %d", branches, depth)
	}
	val := []byte("cccccccc")
	owned := testing.AllocsPerRun(200, func() { tr.Put(a, val) })
	if owned != 2 {
		t.Fatalf("Put on an owned path: %v allocations, want 2 (leaf and value)", owned)
	}
	frozen := testing.AllocsPerRun(200, func() {
		snapshotSink = tr.Snapshot()
		tr.Put(a, val)
	})
	// The snapshot handle, the fresh token, one copy per branch, then the
	// leaf and value as before.
	if want := float64(1 + 1 + depth + 2); frozen != want {
		t.Fatalf("Put after Snapshot: %v allocations, want %v", frozen, want)
	}
	if got := tr.Root(); got != snapshotSink.Root() {
		t.Fatal("handle and snapshot hold the same contents but hash differently")
	}
}

// TestRemoveCollapseAllocatesNoBranch: a Delete that leaves each branch
// on its path with one leaf below it collapses the path to that leaf, and
// the branches the handle does not own are not copied on the way, only to
// be dropped.
func TestRemoveCollapseAllocatesNoBranch(t *testing.T) {
	a, b := Key{0x12, 0x34, 0x50}, Key{0x12, 0x34, 0x5F} // six branches deep
	tr := New()
	tr.Put(a, []byte("aaaaaaaa"))
	tr.Put(b, []byte("bbbbbbbb"))
	only := New()
	only.Put(b, []byte("bbbbbbbb"))
	allocs := testing.AllocsPerRun(200, func() {
		snapshotSink = tr.Snapshot()
		snapshotSink.Delete(a)
	})
	// The snapshot handle and its token, and no branch copy.
	if allocs != 2 {
		t.Fatalf("Delete collapsing a frozen path: %v allocations, want 2 (handle and token)", allocs)
	}
	if _, ok := snapshotSink.root.(*leaf); !ok || snapshotSink.Root() != only.Root() || snapshotSink.Len() != 1 {
		t.Fatal("the path did not collapse to the surviving leaf")
	}
	if v, ok := tr.Get(a); !ok || string(v) != "aaaaaaaa" || tr.Len() != 2 {
		t.Fatal("a Delete through the snapshot changed the original")
	}
}

// TestMarkedPutAllocatesNoBranch pins the write buffer's cost model: under
// a mark a Put of a key the overlay already holds allocates the leaf and
// its value and nothing else (the undo record goes into the reused slice),
// and a revert restores the displaced entries without allocating.
func TestMarkedPutAllocatesNoBranch(t *testing.T) {
	a, b := Key{0x12, 0x34, 0x50}, Key{0x12, 0x34, 0x5F}
	base := New()
	base.Put(a, []byte("aaaaaaaa"))
	base.Put(b, []byte("bbbbbbbb"))
	ov := NewOverlay(base)
	val := []byte("cccccccc")
	ov.Put(a, val) // the buffer holds both keys from here on
	ov.Put(b, val)
	kept := testing.AllocsPerRun(200, func() {
		ov.Mark()
		ov.Put(a, val)
		ov.Keep()
	})
	if kept != 2 {
		t.Fatalf("marked Put of a buffered key: %v allocations, want 2 (leaf and value)", kept)
	}
	before := stateOf(ov, a, b)
	reverted := testing.AllocsPerRun(200, func() {
		ov.Mark()
		ov.Put(a, val)
		ov.Put(b, val)
		ov.Revert()
	})
	if reverted != 4 {
		t.Fatalf("two marked Puts and their revert: %v allocations, want 4 (two leaves, two values)", reverted)
	}
	before.mustEqual(t, "after the reverts", ov)
}

// TestCommitToOwnedBaseAllocatesNoBranch: opening an overlay takes no
// snapshot, so a base that owns its branches keeps owning them, and
// merging an overlay into it rewrites them in place — the merge allocates
// nothing, where a base whose token the overlay had retired would copy
// every branch on the path.
func TestCommitToOwnedBaseAllocatesNoBranch(t *testing.T) {
	a, b := Key{0x12, 0x34, 0x50}, Key{0x12, 0x34, 0x5F} // a chain of six branches
	base := New()
	base.Put(a, []byte("aaaaaaaa"))
	base.Put(b, []byte("bbbbbbbb"))
	val := []byte("cccccccc")
	write := func() *Overlay {
		ov := NewOverlay(base)
		ov.Put(a, val)
		ov.Put(b, val)
		return ov
	}
	opened := testing.AllocsPerRun(200, func() { write() })
	merged := testing.AllocsPerRun(200, func() { write().CommitTo(base) })
	if merged != opened {
		t.Fatalf("open, write, merge: %v allocations, open and write alone %v: the merge allocated", merged, opened)
	}
	if v, _ := base.Get(a); !bytes.Equal(v, val) {
		t.Fatalf("base a = %q after the merges", v)
	}
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
}

// TestBranchSizeClass: a branch with room for two children, half of all
// branches, must stay in the 80-byte allocation class. While every branch
// held a fixed array of sixteen child slots it took 288 bytes.
func TestBranchSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(branch2{}); sz > 80 {
		t.Fatalf("a two-child branch is %d bytes; more than 80 moves it to the next size class", sz)
	}
}

// liveHeap is the live heap: what is still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle may still be sweeping finalizer-held blocks
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// residentBytesPerKey is the live heap a trie keeps per key: 8 200
// SHA-256-derived keys with 8-byte values, its root taken, so that every
// node holds its cached hash.
func residentBytesPerKey() float64 {
	const keys = 8200
	before := liveHeap()
	tr := New()
	for i := 0; i < keys; i++ {
		tr.Put(KeyOf("resident", []byte{byte(i), byte(i >> 8)}), []byte("12345678"))
	}
	tr.Root()
	after := liveHeap()
	runtime.KeepAlive(tr)
	return float64(int64(after)-int64(before)) / keys
}

// TestTrieResidentBytesPerKey bounds what the state trie keeps per key:
// its leaf, value and cached hash, and its share of the branches above.
// It was ≈ 230 B while every branch held sixteen child slots (288 B
// whatever its fill).
func TestTrieResidentBytesPerKey(t *testing.T) {
	// Measured 161.7 B on amd64 (leaf, value and hash ≈ 104, branches with
	// their hashes ≈ 58); the budget is that plus 10 %.
	const budget = 178
	if got := residentBytesPerKey(); got > budget {
		t.Fatalf("the trie keeps %.1f B per key, budget %d B", got, budget)
	} else {
		t.Logf("%.1f B per key", got)
	}
}

// BenchmarkTrieResident reports the number TestTrieResidentBytesPerKey
// bounds. Nothing is timed.
func BenchmarkTrieResident(b *testing.B) {
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(residentBytesPerKey(), "B/key")
}

// TestConcurrentOverlaysOverOneBase is the sharded block shape under the
// race detector: overlays opened over one base are read and written from
// their own goroutines — reading the base, which stands still, and writing
// their own buffers — and are committed to the base one after the other.
func TestConcurrentOverlaysOverOneBase(t *testing.T) {
	const shards, perShard = 8, 400
	base := New()
	want := map[Key][]byte{}
	key := func(shard, i int) Key { return KeyOf("conc", []byte{byte(shard)}, []byte{byte(i), byte(i >> 8)}) }
	for s := 0; s < shards; s++ {
		for i := 0; i < perShard; i += 2 {
			v := []byte(fmt.Sprintf("base %d/%d", s, i))
			base.Put(key(s, i), v)
			want[key(s, i)] = v
		}
	}
	base.Root()
	overlays := make([]*Overlay, shards)
	for s := range overlays {
		overlays[s] = NewOverlay(base)
	}
	var wg sync.WaitGroup
	for s, ov := range overlays {
		wg.Add(1)
		go func(s int, ov *Overlay) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < perShard; i++ {
					if i%5 == 0 {
						ov.Delete(key(s, i))
					} else {
						ov.Put(key(s, i), []byte(fmt.Sprintf("shard %d/%d pass %d", s, i, pass)))
					}
				}
			}
			if v, ok := ov.Get(key((s+1)%shards, 0)); !ok || !bytes.HasPrefix(v, []byte("base ")) {
				t.Errorf("shard %d sees a sibling's write: %q", s, v)
			}
		}(s, ov)
	}
	wg.Wait()
	for s, ov := range overlays {
		ov.CommitTo(base)
		for i := 0; i < perShard; i++ {
			if i%5 == 0 {
				delete(want, key(s, i))
			} else {
				want[key(s, i)] = []byte(fmt.Sprintf("shard %d/%d pass 2", s, i))
			}
		}
	}
	if base.Len() != len(want) {
		t.Fatalf("base has %d keys, want %d", base.Len(), len(want))
	}
	checkRoot(t, "base after committing every overlay", base, want)
}

// The two write shapes of a sharded block, 2000 writes over a 10k-key
// base per op: a handle rewriting paths it owns after one snapshot, and an
// overlay written and then committed. allocs/op ÷ 2000 is the number to
// watch: a handle after a snapshot pays leaf and value per write plus one
// branch copy per distinct dirty branch, an overlay leaf and value per
// write plus its buffer's growth, and its merge into a base that owns its
// branches nothing.
const (
	benchBaseKeys = 10000
	benchWrites   = 2000
)

func benchBase() (*Trie, []Key) {
	tr := New()
	keys := make([]Key, benchBaseKeys)
	for i := range keys {
		keys[i] = KeyOf("bench", []byte{byte(i), byte(i >> 8)})
		tr.Put(keys[i], []byte("12345678"))
	}
	tr.Root()
	return tr, keys[:benchWrites]
}

func BenchmarkTriePutOwned(b *testing.B) {
	tr, keys := benchBase()
	val := []byte("abcdefgh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = tr.Snapshot()
		for _, k := range keys {
			tr.Put(k, val)
		}
	}
}

// The shape of a shard executing groups: the same 2000 writes in marked
// groups of four, every tenth group reverted, the rest kept. Against
// BenchmarkOverlayPutCommit the extra allocs/op are the undo slice (once)
// and nothing per write.
func BenchmarkOverlayMarkedPutRevert(b *testing.B) {
	tr, keys := benchBase()
	val := []byte("abcdefgh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov := NewOverlay(tr)
		for g := 0; g < len(keys); g += 4 {
			ov.Mark()
			for _, k := range keys[g : g+4] {
				ov.Put(k, val)
			}
			if g%40 == 0 {
				ov.Revert()
			} else {
				ov.Keep()
			}
		}
		ov.CommitTo(tr)
	}
}

func BenchmarkOverlayPutCommit(b *testing.B) {
	tr, keys := benchBase()
	val := []byte("abcdefgh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov := NewOverlay(tr)
		for _, k := range keys {
			ov.Put(k, val)
		}
		ov.CommitTo(tr)
	}
}

// BenchmarkTrieRootRound is the state root of a soak round, and only that:
// ≈ 6 000 rewritten keys of an ≈ 8 800-node trie (6 300 keys), written
// off the clock. On two cores Root hashes the root branch's two halves side
// by side; -cpu 1,2 shows what the second core buys.
func BenchmarkTrieRootRound(b *testing.B) {
	const keys, writes = 6300, 6000
	tr := New()
	ks := make([]Key, keys)
	for i := range ks {
		ks[i] = KeyOf("bench", []byte{byte(i), byte(i >> 8)})
		tr.Put(ks[i], []byte("12345678"))
	}
	tr.Root()
	val := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		val[0] = byte(i)
		for _, k := range ks[:writes] {
			tr.Put(k, val)
		}
		b.StartTimer()
		tr.Root()
	}
}
