package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"agnopol/internal/mstate"
)

func tk(s string) mstate.Key { return mstate.KeyOf("disktest", []byte(s)) }

func buildTrie(n int, salt string) *mstate.Trie {
	tr := mstate.New()
	for i := 0; i < n; i++ {
		tr.Put(tk(fmt.Sprintf("%s-%d", salt, i)), []byte(fmt.Sprintf("val-%s-%d", salt, i)))
	}
	return tr
}

// commit writes tr into s and publishes its root with meta.
func commit(t testing.TB, tr *mstate.Trie, s *Store, meta []byte) mstate.Hash {
	t.Helper()
	root, err := tr.Commit(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(root, meta); err != nil {
		t.Fatal(err)
	}
	return root
}

// heapAfterGC is the live heap: what is still reachable after a full
// collection.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle may still be sweeping finalizer-held blocks
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func openT(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	opts.NoSync = true // logic tests; durability fsyncs just slow them down
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFreshCommitReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if _, ok := s.Root(); ok {
		t.Fatal("fresh store claims a committed root")
	}
	tr := buildTrie(500, "a")
	root := commit(t, tr, s, []byte("checkpoint-1"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	got, ok := s2.Root()
	if !ok || got != root {
		t.Fatalf("reopened root %x ok=%v, want %x", got[:8], ok, root[:8])
	}
	if !bytes.Equal(s2.Meta(), []byte("checkpoint-1")) {
		t.Fatalf("meta = %q", s2.Meta())
	}
	loaded, err := mstate.Load(s2, root)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Root() != tr.Root() || loaded.Len() != tr.Len() {
		t.Fatalf("loaded root/len %x/%d, want %x/%d", loaded.Root(), loaded.Len(), tr.Root(), tr.Len())
	}
	if v, _ := loaded.Get(tk("a-123")); !bytes.Equal(v, []byte("val-a-123")) {
		t.Fatalf("loaded value %q", v)
	}
}

func TestIncrementalCommitsAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rolls; reopen must scan them all.
	s := openT(t, dir, Options{SegmentBytes: 2048})
	tr := buildTrie(200, "s")
	var root mstate.Hash
	for step := 0; step < 5; step++ {
		tr.Put(tk(fmt.Sprintf("step-%d", step)), []byte{byte(step)})
		root = commit(t, tr, s, []byte{byte(step)})
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	s.Close()

	s2 := openT(t, dir, Options{SegmentBytes: 2048})
	defer s2.Close()
	got, _ := s2.Root()
	if got != root {
		t.Fatalf("root after multi-segment reopen: %x, want %x", got[:8], root[:8])
	}
	loaded, err := mstate.Load(s2, root)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Root() != tr.Root() {
		t.Fatal("multi-segment load diverged from the source trie")
	}
}

func TestStagedButUncommittedTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	tr := buildTrie(100, "base")
	root1 := commit(t, tr, s, nil)

	// Stage more nodes, flush them to the OS, but never Commit — as if
	// the process died between Trie.Commit and Store.Commit.
	tr2 := tr // Commit froze what tr wrote; the handle writes on
	tr2.Put(tk("uncommitted"), []byte("lost"))
	root2, err := tr2.Commit(s)
	if err != nil {
		t.Fatal(err)
	}
	if root2 == root1 {
		t.Fatal("mutation did not change the root")
	}
	s.Close()

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	got, _ := s2.Root()
	if got != root1 {
		t.Fatalf("recovered root %x, want last durable %x", got[:8], root1[:8])
	}
	if _, err := s2.GetNode(root2); !errors.Is(err, mstate.ErrNodeMissing) {
		t.Fatalf("uncommitted root readable after reopen: %v", err)
	}
	if _, err := mstate.Load(s2, root1); err != nil {
		t.Fatalf("durable root unloadable: %v", err)
	}
}

// Randomized crash-point test: kill a commit mid-batch by truncating
// the log at an arbitrary byte within the uncommitted tail (including
// mid-record cuts), then verify reopen recovers the last durable root
// and a full trie load from it.
func TestRandomizedCrashPointRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 25; iter++ {
		dir := t.TempDir()
		segBytes := int64(1 << 20)
		if iter%3 == 0 {
			segBytes = 4096 // also exercise crashes right after a roll
		}
		s := openT(t, dir, Options{SegmentBytes: segBytes})
		tr := buildTrie(60+rng.Intn(60), fmt.Sprintf("c%d", iter))
		root1 := commit(t, tr, s, []byte("durable"))
		activeSeg := s.active
		durable := s.curOff

		tr2 := tr // Commit froze what tr wrote; the handle writes on
		for j := 0; j < 30+rng.Intn(50); j++ {
			tr2.Put(tk(fmt.Sprintf("crash-%d-%d", iter, j)), []byte("staged"))
		}
		if _, err := tr2.Commit(s); err != nil {
			t.Fatal(err)
		}
		s.Close()

		// The "kill": chop the active segment at a random point at or
		// past the durable offset. (A crash can also leave later,
		// never-committed segments; those must be dropped wholesale.)
		path := filepath.Join(dir, segName(activeSeg))
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > durable {
			cut := durable + rng.Int63n(st.Size()-durable+1)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
		}

		s2, err := Open(dir, Options{SegmentBytes: segBytes, NoSync: true})
		if err != nil {
			t.Fatalf("iter %d: reopen after crash: %v", iter, err)
		}
		got, ok := s2.Root()
		if !ok || got != root1 {
			t.Fatalf("iter %d: recovered root %x ok=%v, want %x", iter, got[:8], ok, root1[:8])
		}
		loaded, err := mstate.Load(s2, root1)
		if err != nil {
			t.Fatalf("iter %d: load recovered root: %v", iter, err)
		}
		if loaded.Root() != root1 {
			t.Fatalf("iter %d: recovered trie root mismatch", iter)
		}
		// Recovery must leave a store that keeps working.
		tr3 := loaded
		tr3.Put(tk("after-recovery"), []byte("ok"))
		root3 := commit(t, tr3, s2, nil)
		s2.Close()
		s3 := openT(t, dir, Options{SegmentBytes: segBytes})
		if got, _ := s3.Root(); got != root3 {
			t.Fatalf("iter %d: post-recovery commit lost", iter)
		}
		s3.Close()
	}
}

// resetDir replaces dir's contents with exactly files.
func resetDir(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// resumeAfterCrash makes files the whole content of dir — what a crash left
// — and requires the store to reopen at root1 with a loadable trie and to
// keep working: every step is applied and committed in turn, and a further
// reopen must find the last of those commits, loadable. It returns that
// root.
func resumeAfterCrash(t *testing.T, label, dir string, files map[string][]byte, opts Options, root1 mstate.Hash, steps ...func(*mstate.Trie)) mstate.Hash {
	t.Helper()
	resetDir(t, dir, files)
	s := openT(t, dir, opts)
	if got, ok := s.Root(); !ok || got != root1 {
		t.Fatalf("%s: recovered root %x ok=%v, want %x", label, got[:8], ok, root1[:8])
	}
	loaded, err := mstate.Load(s, root1)
	if err != nil {
		t.Fatalf("%s: load recovered root: %v", label, err)
	}
	last := root1
	for _, step := range steps {
		step(loaded)
		last = commit(t, loaded, s, nil)
	}
	s.Close()
	s = openT(t, dir, opts)
	defer s.Close()
	if got, _ := s.Root(); got != last {
		t.Fatalf("%s: post-recovery commit lost: reopened at %x, committed %x", label, got[:8], last[:8])
	}
	if _, err := mstate.Load(s, last); err != nil {
		t.Fatalf("%s: load of the post-recovery commit: %v", label, err)
	}
	return last
}

// Exhaustive crash points of one commit: the segment append cut at every
// byte from the durable offset to the staged end, and the manifest temp
// file cut at every prefix length beside the still-valid manifest. Each
// must reopen at the previous root with a loadable trie and keep working;
// only the completed rename moves to the new root. Never a third state.
func TestEveryCutPointRecovers(t *testing.T) {
	src := t.TempDir()
	s := openT(t, src, Options{})
	tr := buildTrie(16, "cut")
	root1 := commit(t, tr, s, []byte("durable"))
	durable := s.curOff
	man1, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	tr2 := tr // Commit froze what tr wrote; the handle writes on
	tr2.Put(tk("staged-0"), []byte("staged"))
	tr2.Put(tk("staged-1"), []byte("staged"))
	root2 := commit(t, tr2, s, []byte("next"))
	s.Close()
	seg, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	man2, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if root2 == root1 || int64(len(seg)) <= durable {
		t.Fatal("second commit staged nothing")
	}

	dir := filepath.Join(t.TempDir(), "crashed")
	recoversRoot1 := func(label string, files map[string][]byte) {
		resumeAfterCrash(t, label, dir, files, Options{}, root1,
			func(tr *mstate.Trie) { tr.Put(tk("after-recovery"), []byte("ok")) })
	}
	for cut := durable; cut <= int64(len(seg)); cut++ {
		recoversRoot1(fmt.Sprintf("segment cut at %d", cut),
			map[string][]byte{segName(1): seg[:cut], manifestName: man1})
	}
	for cut := 0; cut <= len(man2); cut++ {
		recoversRoot1(fmt.Sprintf("manifest temp cut at %d", cut),
			map[string][]byte{segName(1): seg, manifestName: man1, manifestName + ".tmp": man2[:cut]})
	}

	resetDir(t, dir, map[string][]byte{segName(1): seg, manifestName: man2})
	s2 := openT(t, dir, Options{})
	defer s2.Close()
	if got, _ := s2.Root(); got != root2 {
		t.Fatalf("after the rename: root %x, want %x", got[:8], root2[:8])
	}
	if _, err := mstate.Load(s2, root2); err != nil {
		t.Fatalf("load committed root: %v", err)
	}
}

// The same exhaustive cut, over a commit that rolls a segment: its first
// records fill segment 1 past SegmentBytes, the roll seals it and creates
// segment 2 (header first), the rest lands there. A crash leaves segment 1
// cut anywhere past the durable offset and no segment 2, or segment 1 whole
// and segment 2 cut anywhere from zero bytes on — always beside the first
// manifest. Each state must reopen at the first root and, after redoing the
// lost commit and two more (which roll again, recreating the segment Open
// removed), end at the root an uninterrupted run reaches.
func TestEveryCutPointAcrossASegmentRollRecovers(t *testing.T) {
	steps := []func(tr *mstate.Trie){
		func(tr *mstate.Trie) {
			for i := 0; i < 3; i++ {
				tr.Put(tk(fmt.Sprintf("roll-%d", i)), []byte("staged"))
			}
		},
		func(tr *mstate.Trie) { tr.Delete(tk("cut-3")); tr.Put(tk("roll-1"), []byte("again")) },
		func(tr *mstate.Trie) { tr.Put(tk("cut-5"), []byte("last")) },
	}
	src := t.TempDir()
	s := openT(t, src, Options{})
	tr := buildTrie(16, "cut")
	root1 := commit(t, tr, s, []byte("durable"))
	durable := s.curOff
	man1, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reopened with a limit two records past the durable offset, the next
	// commit starts in segment 1 and rolls mid-way.
	opts := Options{SegmentBytes: durable + 100}
	s = openT(t, src, opts)
	tr, err = mstate.Load(s, root1)
	if err != nil {
		t.Fatal(err)
	}
	steps[0](tr)
	commit(t, tr, s, []byte("next"))
	if s.active != 2 {
		t.Fatalf("the second commit ended in segment %d, want a single roll into 2", s.active)
	}
	rolled := s.curOff // how much of segment 2 the rolling commit wrote
	for _, step := range steps[1:] {
		step(tr)
		commit(t, tr, s, nil)
	}
	want := tr.Root() // where the uninterrupted run ends
	s.Close()
	seg1, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	seg2, err := os.ReadFile(filepath.Join(src, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seg1)) <= durable || rolled <= segHeaderLen || int64(len(seg2)) < rolled {
		t.Fatalf("the rolling commit wrote %d bytes into segment 1 and %d of %d into segment 2",
			int64(len(seg1))-durable, rolled, len(seg2))
	}
	t.Logf("%d + %d cut points", int64(len(seg1))-durable+1, rolled+1)

	dir := filepath.Join(t.TempDir(), "crashed")
	recovers := func(label string, files map[string][]byte) {
		files[manifestName] = man1
		if got := resumeAfterCrash(t, label, dir, files, opts, root1, steps...); got != want {
			t.Fatalf("%s: resumed run ended at %x, the uninterrupted one at %x", label, got[:8], want[:8])
		}
	}
	for cut := durable; cut <= int64(len(seg1)); cut++ {
		recovers(fmt.Sprintf("segment 1 cut at %d, no segment 2", cut),
			map[string][]byte{segName(1): seg1[:cut]})
	}
	for cut := int64(0); cut <= rolled; cut++ {
		recovers(fmt.Sprintf("segment 2 cut at %d", cut),
			map[string][]byte{segName(1): seg1, segName(2): seg2[:cut]})
	}
}

// Equal content appended twice is legal: the log counts both records, reads
// serve the first, before and after recovery.
func TestDuplicateRecordsKeepTheFirstCopy(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	// Same hash, told apart by payload: GetNode checks framing and CRC, the
	// content address is Load's to verify.
	h := mstate.Hash{0xD0}
	for _, put := range []struct {
		h   mstate.Hash
		enc string
	}{{h, "first copy"}, {mstate.Hash{0x07}, "between"}, {h, "second copy"}} {
		if err := s.Put(put.h, []byte(put.enc)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		if got := s.Len(); got != 3 {
			t.Fatalf("%s: Len() = %d, want all 3 records", when, got)
		}
		if enc, err := s.GetNode(h); err != nil || string(enc) != "first copy" {
			t.Fatalf("%s: GetNode = %q, %v; want the first copy", when, enc, err)
		}
	}
	check(s, "before commit")
	if err := s.Commit(h, nil); err != nil { // the newest record
		t.Fatal(err)
	}
	s.Close()
	s2 := openT(t, dir, Options{})
	defer s2.Close()
	check(s2, "after reopen")
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil || man.Nodes != 3 {
		t.Fatalf("manifest counts %d nodes (%v), want 3", man.Nodes, err)
	}
}

// The record and manifest formats did not change when the index stopped
// being a write-path structure: a multi-segment store written by the commit
// before (testdata/store-at-3ab5bfc, two commits of a 24-key trie at
// SegmentBytes 1024) opens, loads, takes more commits and reopens.
func TestOpensAStoreWrittenByTheParentCommit(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "store-at-3ab5bfc")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := buildTrie(24, "parent")
	root1 := want.Root()
	want.Put(tk("parent-3"), []byte("rewritten"))
	want.Delete(tk("parent-5"))

	s := openT(t, dir, Options{SegmentBytes: 1024})
	if got, ok := s.Root(); !ok || got != want.Root() {
		t.Fatalf("root %x ok=%v, want %x", got[:8], ok, want.Root())
	}
	if string(s.Meta()) != "written at 3ab5bfc" || s.Len() != 36 {
		t.Fatalf("meta %q, %d records; want the parent's meta and its 36 nodes", s.Meta(), s.Len())
	}
	if _, err := mstate.Load(s, root1); err != nil {
		t.Fatalf("first commit of the old store: %v", err)
	}
	loaded, err := mstate.Load(s, want.Root())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := loaded.Get(tk("parent-3")); !ok || string(v) != "rewritten" || loaded.Has(tk("parent-5")) || loaded.Len() != 23 {
		t.Fatalf("loaded %d keys, parent-3 = %q", loaded.Len(), v)
	}
	loaded.Put(tk("written-by-the-change"), []byte("v"))
	root3 := commit(t, loaded, s, nil)
	s.Close()
	s2 := openT(t, dir, Options{SegmentBytes: 1024})
	defer s2.Close()
	if got, _ := s2.Root(); got != root3 {
		t.Fatalf("commit on top of the old store lost: root %x, want %x", got[:8], root3[:8])
	}
	if _, err := mstate.Load(s2, root3); err != nil {
		t.Fatal(err)
	}
}

// A store that has taken a commit holds nothing per record: after Open and
// Load, 200 churn commits append tens of thousands of records and grow the
// heap not at all. (The trie is the same size throughout — same keys,
// equal-length values — so heap growth would be the store's.) The log
// compacts, so Len stays near the live trie: the appended records are
// counted around each Trie.Commit, before Commit retires a generation.
func TestStoreHeapFlatAcrossCommits(t *testing.T) {
	const keys = 300
	rewrite := func(tr *mstate.Trie, round int) {
		for i := 0; i < keys; i++ {
			tr.Put(tk(fmt.Sprintf("flat-%d", i)), []byte(fmt.Sprintf("round-%04d", round)))
		}
	}
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	tr := mstate.New()
	rewrite(tr, 0)
	root := commit(t, tr, s, nil)
	s.Close()

	s = openT(t, dir, Options{})
	defer s.Close()
	tr, err := mstate.Load(s, root)
	if err != nil {
		t.Fatal(err)
	}
	var heap20 uint64
	added := 0
	for round := 1; round <= 200; round++ {
		rewrite(tr, round)
		before := s.Len()
		root, err := tr.Commit(s)
		if err != nil {
			t.Fatal(err)
		}
		if round > 20 {
			added += s.Len() - before
		}
		if err := s.Commit(root, nil); err != nil {
			t.Fatal(err)
		}
		if round == 20 {
			heap20 = heapAfterGC()
		}
	}
	grown := int64(heapAfterGC()) - int64(heap20)
	if added < 180*keys {
		t.Fatalf("180 commits added %d records, want at least %d", added, 180*keys)
	}
	// The index the parent kept cost ≈ 100 B per record: ≈ 7 MB here.
	if perRecord := float64(grown) / float64(added); perRecord > 4 {
		t.Fatalf("heap grew %d bytes over %d appended records (%.1f B/record): the store holds state per record", grown, added, perRecord)
	}
	runtime.KeepAlive(tr)
}

// A commit round allocates a constant number of objects, whatever the size
// of the trie: Trie.Commit encodes every node into one buffer and Put frames
// it in the store's own, so what is left is the new commit base and the
// manifest. BenchmarkCommitRound's fully rewritten trie (≈ 8 k nodes) and
// one a tenth its size both stay under the bound; one allocation per node
// would be thousands. On this shape the rounds alternate: one starts a
// generation (a new segment, which appends through the same buffer: well
// under its 64 KiB), the next writes the trie into it and removes the old
// one. The least of three rounds of each kind is taken, so an allocation
// the runtime makes on the side does not count.
func TestCommitRoundAllocsConstant(t *testing.T) {
	allocs := func() (uint64, uint64) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs, m.TotalAlloc
	}
	for _, keys := range []int{benchKeys / 10, benchKeys} {
		s := openT(t, t.TempDir(), Options{})
		tr := mstate.New()
		churn(tr, keys, 0)
		commit(t, tr, s, nil)
		// least[kind]: objects and bytes; kind 1 is a round that starts a
		// generation, kind 0 one that names it.
		var least [2][2]uint64
		for kind := range least {
			least[kind] = [2]uint64{math.MaxUint64, math.MaxUint64}
		}
		for round := 1; round <= 6; round++ {
			churn(tr, keys, round)
			tr.Root() // hashing is the trie's cost, paid before the commit
			gen := s.gen
			objects, bytes := allocs()
			root, err := tr.Commit(s)
			if err == nil {
				err = s.Commit(root, nil)
			}
			objectsAfter, bytesAfter := allocs()
			if err != nil {
				t.Fatal(err)
			}
			kind := 0
			if s.gen != gen && s.gen != s.man.Gen {
				kind = 1
			}
			least[kind][0] = min(least[kind][0], objectsAfter-objects)
			least[kind][1] = min(least[kind][1], bytesAfter-bytes)
		}
		s.Close()
		for kind, what := range []string{"names a generation", "starts a generation"} {
			if least[kind][0] > 64 {
				t.Errorf("%d keys: a commit round that %s allocates %d objects, want at most 64", keys, what, least[kind][0])
			}
			t.Logf("%d keys: %d allocations, %d B a commit round that %s", keys, least[kind][0], least[kind][1], what)
		}
		if least[1][1] >= appendBufBytes/2 {
			t.Errorf("%d keys: a commit round that starts a generation allocates %d B: a new append buffer", keys, least[1][1])
		}
	}
}

// The recovery scan reads through a fixed buffer: a log several times its
// size, with records straddling every refill, must index exactly what was
// written — as one segment, and as sealed segments smaller than the buffer
// that are each scanned to their full size.
func TestScanAcrossBufferBoundaries(t *testing.T) {
	for _, segBytes := range []int64{0, scanBufBytes / 4} {
		t.Run(fmt.Sprintf("SegmentBytes=%d", segBytes), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, Options{SegmentBytes: segBytes})
			tr := mstate.New()
			val := bytes.Repeat([]byte{0xA5}, 200)
			for i := 0; i < 12000; i++ {
				tr.Put(tk(fmt.Sprintf("big-%d", i)), append(val, byte(i), byte(i>>8)))
			}
			root := commit(t, tr, s, nil)
			if segBytes == 0 && s.curOff < 3*scanBufBytes {
				t.Fatalf("log is %d bytes, want several %d-byte buffers", s.curOff, scanBufBytes)
			}
			if segBytes != 0 && s.active < 8 {
				t.Fatalf("expected many sealed segments, active = %d", s.active)
			}
			want := s.Len()
			s.Close()

			s2 := openT(t, dir, Options{SegmentBytes: segBytes})
			defer s2.Close()
			if got := s2.Len(); got != want {
				t.Fatalf("reopen indexed %d records, wrote %d", got, want)
			}
			loaded, err := mstate.Load(s2, root)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Root() != root || loaded.Len() != tr.Len() {
				t.Fatalf("loaded root/len %x/%d, want %x/%d", loaded.Root(), loaded.Len(), root, tr.Len())
			}
		})
	}
}

func TestMissingManifestIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	commit(t, buildTrie(20, "m"), s, nil)
	s.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrMissingManifest) {
		t.Fatalf("got %v, want ErrMissingManifest", err)
	}
}

func TestCorruptManifestIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	commit(t, buildTrie(20, "cm"), s, nil)
	s.Close()
	path := filepath.Join(dir, manifestName)

	// Torn JSON.
	if err := os.WriteFile(path, []byte(`{"magic":"POLMAN1","root":"ab`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("torn manifest: got %v, want ErrCorruptManifest", err)
	}

	// Valid JSON, wrong checksum (a hand-edited offset).
	if err := os.WriteFile(path, []byte(`{"magic":"POLMAN1","root":"`+fmt.Sprintf("%064x", 0)+`","segment":1,"offset":999,"nodes":1,"crc":12345}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("bad-crc manifest: got %v, want ErrCorruptManifest", err)
	}
}

func TestTruncatedDurableTailIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	commit(t, buildTrie(40, "tt"), s, nil)
	durable := s.curOff
	s.Close()

	// The manifest promises bytes the segment no longer has.
	if err := os.Truncate(filepath.Join(dir, segName(1)), durable-5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("got %v, want ErrTruncatedRecord", err)
	}
}

func TestPartialFinalRecordIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	commit(t, buildTrie(40, "pf"), s, nil)
	s.Close()

	// Rewrite the manifest so its durable region ends mid-record: the
	// file still has the bytes, but the record structure cannot close
	// at that offset — a partially-written final record.
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	man.Offset -= 3
	if err := writeManifest(dir, man, true); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("got %v, want ErrTruncatedRecord", err)
	}
}

func TestBitFlippedPayloadIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	tr := buildTrie(30, "bf")
	root := commit(t, tr, s, nil)
	// Locate the root's record so the flip is inside a payload we will
	// definitely read back.
	index, err := s.indexLocked()
	if err != nil {
		t.Fatal(err)
	}
	r := index[root]
	s.Close()

	path := filepath.Join(dir, segName(r.seg))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	flipAt := r.off + recHeaderLen + int64(r.ln)/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], flipAt); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], flipAt); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	if _, err := s2.GetNode(root); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
	// The same corruption must fail a trie load, never produce state.
	if _, err := mstate.Load(s2, root); !errors.Is(err, ErrChecksum) {
		t.Fatalf("load over corrupt record: got %v, want ErrChecksum", err)
	}
}

func TestMissingSegmentIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 2048})
	tr := buildTrie(300, "ms")
	commit(t, tr, s, nil)
	if s.active < 2 {
		t.Fatalf("test needs multiple segments, active = %d", s.active)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrMissingSegment) {
		t.Fatalf("got %v, want ErrMissingSegment", err)
	}
}

func TestClosedStoreIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	root := commit(t, buildTrie(5, "cl"), s, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.GetNode(root); !errors.Is(err, ErrClosed) {
		t.Fatalf("GetNode after close: %v", err)
	}
	if err := s.Put(root, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if err := s.Commit(root, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after close: %v", err)
	}
}

func TestGetNodeSeesUnflushedAppends(t *testing.T) {
	dir := t.TempDir()
	// The root was only just appended: the read must flush the append
	// buffer before ReadAt can see it.
	s := openT(t, dir, Options{})
	defer s.Close()
	tr := buildTrie(10, "uf")
	root, err := tr.Commit(s)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.GetNode(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) == 0 {
		t.Fatal("empty encoding")
	}
}

func TestGetNodeReturnsOwnedSlice(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	defer s.Close()
	root := commit(t, buildTrie(10, "own"), s, nil)
	enc, err := s.GetNode(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xAA
	}
	again, err := s.GetNode(root)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(again, enc) {
		t.Fatal("caller mutation leaked into the store")
	}
}

func TestCommitOfUnknownRootRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	defer s.Close()
	if err := s.Commit(mstate.Hash{1, 2, 3}, nil); err == nil {
		t.Fatal("commit of a root the log never saw must fail")
	}
	// The empty root is always committable (an empty trie).
	if err := s.Commit(mstate.Hash{}, []byte("empty")); err != nil {
		t.Fatal(err)
	}
}
