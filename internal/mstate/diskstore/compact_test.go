package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"agnopol/internal/mstate"
)

// soakRound is one round of a soak-shaped trie: every value but those of
// the first sixteen keys rewritten, and two keys added, so most nodes
// change, a few subtrees never do, and the trie grows slowly.
func soakRound(tr *mstate.Trie, keys, round int) {
	for i := 0; i < keys+2*round; i++ {
		if i >= 16 || round == 0 {
			tr.Put(tk(fmt.Sprintf("soak-%d", i)), []byte(fmt.Sprintf("round-%d-value-%d", round, i)))
		}
	}
}

// untilNewGeneration applies one change a round to tr and commits it to s
// until a commit starts a new generation, and returns the last committed
// root, which the manifest still names in the old generation.
func untilNewGeneration(t testing.TB, tr *mstate.Trie, s *Store) mstate.Hash {
	t.Helper()
	var root mstate.Hash
	for round := 0; s.gen == s.man.Gen; round++ {
		if round == 100 {
			t.Fatal("100 commits started no new generation")
		}
		tr.Put(tk(fmt.Sprintf("round-%d", round%8)), []byte(fmt.Sprintf("value-%d", round)))
		root = commit(t, tr, s, []byte("durable"))
	}
	return root
}

// A long-running store's log and its reopen follow the live trie, not its
// history. Over 100 soak-shaped rounds, every commit after which the
// manifest names the generation appends go to (the old one removed) leaves
// at most twice the live trie's nodes in the log, and Open at round 100
// scans at most twice the records it scans at round 10. The store is
// reopened and the trie loaded at both, so the subtrees that never change
// must have been carried into every new generation.
func TestLogFollowsTheLiveTrie(t *testing.T) {
	const keys = 400
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	// shadow takes the same writes; committing it to a fresh MemStore
	// counts the live trie's nodes without touching tr's commit base.
	tr, shadow := mstate.New(), mstate.New()
	soakRound(tr, keys, 0)
	soakRound(shadow, keys, 0)
	commit(t, tr, s, nil)
	scanned := map[int]int{}
	compactions := 0
	for round := 1; round <= 100; round++ {
		soakRound(tr, keys, round)
		soakRound(shadow, keys, round)
		gen := s.man.Gen
		root := commit(t, tr, s, nil)
		if s.man.Gen != gen {
			compactions++
		}
		if s.gen == s.man.Gen {
			mem := mstate.NewMemStore()
			if _, err := shadow.Commit(mem); err != nil {
				t.Fatal(err)
			}
			if s.Len() > 2*mem.Len() {
				t.Fatalf("round %d: the log holds %d records for a live trie of %d nodes", round, s.Len(), mem.Len())
			}
		}
		if round == 10 || round == 100 {
			s.Close()
			s = openT(t, dir, Options{})
			scanned[round] = s.Len()
			var err error
			if tr, err = mstate.Load(s, root); err != nil {
				t.Fatalf("round %d: load after reopen: %v", round, err)
			}
		}
	}
	defer s.Close()
	if scanned[100] > 2*scanned[10] {
		t.Fatalf("Open scanned %d records at round 100, %d at round 10", scanned[100], scanned[10])
	}
	if compactions < 30 {
		t.Fatalf("%d compactions in 100 rounds, want one every second or third round", compactions)
	}
	t.Logf("%d compactions; Open scanned %d records at round 10, %d at round 100", compactions, scanned[10], scanned[100])
}

// Compaction costs little write bandwidth on the soak's shape, where a round
// rewrites ≈ 97 % of the trie: averaged over compacting and plain rounds, a
// round appends at most 5 % more bytes than a plain round, which appends
// exactly what a store that never compacts would.
func TestCompactionWritesLittleMore(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	defer s.Close()
	tr := mstate.New()
	round := func(r int) {
		for i := 0; i < benchKeys; i++ {
			if i%32 != 0 || r == 0 {
				tr.Put(tk(fmt.Sprintf("bench-%d", i)), []byte(fmt.Sprintf("round-%d-value-%d", r, i)))
			}
		}
	}
	logBytes := func() int64 {
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range segs {
			st, err := os.Stat(filepath.Join(dir, segName(n)))
			if err != nil {
				t.Fatal(err)
			}
			total += st.Size()
		}
		return total
	}
	round(0)
	commit(t, tr, s, nil)
	var all, plain int64
	var plainRounds int64
	const rounds = 12
	for r := 1; r <= rounds; r++ {
		round(r)
		compacting := s.gen != s.man.Gen
		before := logBytes()
		root, err := tr.Commit(s) // flushes: the appended bytes are on file
		if err != nil {
			t.Fatal(err)
		}
		wrote := logBytes() - before
		if err := s.Commit(root, nil); err != nil {
			t.Fatal(err)
		}
		all += wrote
		if !compacting {
			plain += wrote
			plainRounds++
		}
	}
	if plainRounds == 0 || plainRounds == rounds {
		t.Fatalf("%d of %d rounds were plain, want both kinds", plainRounds, rounds)
	}
	perRound, perPlain := float64(all)/rounds, float64(plain)/float64(plainRounds)
	t.Logf("%.0f B a round, %.0f B a plain round (%+.2f %%)", perRound, perPlain, 100*(perRound/perPlain-1))
	if perRound > 1.05*perPlain {
		t.Fatalf("a round appends %.0f B on average, a plain one %.0f B: compaction costs more than 5 %%", perRound, perPlain)
	}
}

// Every cut during a compaction reopens at the last committed root: the
// new generation's segments cut at every byte before the commit naming it
// (beside the old manifest, and with that commit's manifest temp file cut
// at every prefix), the manifest renamed with the old generation whole
// beside it, and the old generation's segments partway removed. The old
// generation spans two segments and so does the new one. After the
// rename, Open removes what is left of the old generation. Each state
// resumes, redoes what was lost, and ends at the root an uninterrupted run
// reaches.
func TestEveryCutPointOfACompactionRecovers(t *testing.T) {
	steps := []func(tr *mstate.Trie){
		func(tr *mstate.Trie) { tr.Put(tk("compacted"), []byte("v")) },
		func(tr *mstate.Trie) { tr.Delete(tk("gen-3")) },
		func(tr *mstate.Trie) { tr.Put(tk("gen-5"), []byte("last")) },
	}
	opts := Options{SegmentBytes: 512}
	src := t.TempDir()
	s := openT(t, src, opts)
	tr := buildTrie(8, "gen")
	commit(t, tr, s, nil)
	rootOld := untilNewGeneration(t, tr, s)
	oldGen, newGen := s.man.Gen, s.gen
	before := readFiles(t, src)
	steps[0](tr)
	rootNew := commit(t, tr, s, nil)
	if s.man.Gen != newGen {
		t.Fatalf("the compacting commit named generation %d, want %d", s.man.Gen, newGen)
	}
	after := readFiles(t, src)
	lastNew := s.active
	for _, step := range steps[1:] {
		step(tr)
		commit(t, tr, s, nil)
	}
	want := tr.Root()
	s.Close()
	if newGen-oldGen < 2 || lastNew == newGen {
		t.Fatalf("the old generation is segments %d..%d, the new one %d..%d: want two each", oldGen, newGen-1, newGen, lastNew)
	}

	dir := filepath.Join(t.TempDir(), "crashed")
	recovers := func(label string, files map[string][]byte, root mstate.Hash, steps ...func(*mstate.Trie)) {
		if got := resumeAfterCrash(t, label, dir, files, opts, root, steps...); got != want {
			t.Fatalf("%s: resumed run ended at %x, the uninterrupted one at %x", label, got[:8], want[:8])
		}
	}
	// withOld is the old generation whole, from segment from on, and the
	// given manifest.
	withOld := func(from int, manifest []byte) map[string][]byte {
		files := map[string][]byte{manifestName: manifest}
		for n := from; n < newGen; n++ {
			files[segName(n)] = before[segName(n)]
		}
		return files
	}

	// Before the new generation's sync: its segments cut anywhere, in
	// order, beside the manifest that names the old generation.
	var stream []byte
	var starts []int
	for n := newGen; n <= lastNew; n++ {
		starts = append(starts, len(stream))
		stream = append(stream, after[segName(n)]...)
	}
	cuts := 0
	for cut := 0; cut <= len(stream); cut++ {
		files := withOld(oldGen, before[manifestName])
		for i, start := range starts {
			if start > cut || (start == cut && i > 0) {
				break
			}
			end := len(stream)
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			files[segName(newGen+i)] = stream[start:min(cut, end)]
		}
		recovers(fmt.Sprintf("new generation cut at %d of %d", cut, len(stream)), files, rootOld, steps...)
		cuts++
	}
	man := after[manifestName]
	for cut := 0; cut < len(man); cut++ {
		files := withOld(oldGen, before[manifestName])
		for n := newGen; n <= lastNew; n++ {
			files[segName(n)] = after[segName(n)]
		}
		files[manifestName+".tmp"] = man[:cut]
		recovers(fmt.Sprintf("manifest temp cut at %d", cut), files, rootOld, steps...)
		cuts++
	}

	// After the rename: the old generation whole, then with its first
	// segments removed one by one.
	for from := oldGen; from < newGen; from++ {
		files := withOld(from, man)
		for n := newGen; n <= lastNew; n++ {
			files[segName(n)] = after[segName(n)]
		}
		label := fmt.Sprintf("renamed, old generation from segment %d", from)
		resetDir(t, dir, files)
		s := openT(t, dir, opts)
		segs, err := listSegments(dir)
		s.Close()
		if err != nil || segs[0] != newGen {
			t.Fatalf("%s: Open left segments %v (%v), want %d on", label, segs, err, newGen)
		}
		recovers(label, files, rootNew, steps[1:]...)
		cuts++
	}
	t.Logf("%d cut points", cuts)
}

// readFiles reads every file of dir.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// A commit that would name the new generation but fails to publish its
// manifest leaves the old generation on disk: the store reopens at the
// last committed root, whole.
func TestFailedCompactionCommitKeepsTheOldGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	tr := buildTrie(64, "fail")
	commit(t, tr, s, nil)
	rootOld := untilNewGeneration(t, tr, s)
	tr.Put(tk("compacted"), []byte("v"))
	root, err := tr.Commit(s)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the manifest's temp file goes fails its creation.
	blocker := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(root, nil); err == nil {
		t.Fatal("the commit published a manifest through a directory")
	}
	s.Close()
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s = openT(t, dir, Options{})
	defer s.Close()
	if got, _ := s.Root(); got != rootOld {
		t.Fatalf("reopened at %x, want the last committed root %x", got[:8], rootOld[:8])
	}
	if _, err := mstate.Load(s, rootOld); err != nil {
		t.Fatalf("the last committed root: %v", err)
	}
}

// A read between the commit that starts a generation and the one that
// names it returns a node of the old generation. A handle loaded then must
// not take its nodes for the new generation's: its next commit would skip
// them, and they would go with the old generation. The read cancels the
// move instead, and the handle's next root loads after a reopen.
func TestReadDuringCompactionKeepsEveryNode(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	tr := buildTrie(64, "read")
	commit(t, tr, s, nil)
	rootOld := untilNewGeneration(t, tr, s)
	other, err := mstate.Load(s, rootOld)
	if err != nil {
		t.Fatal(err)
	}
	other.Put(tk("read"), []byte("changed"))
	root := commit(t, other, s, nil)
	s.Close()
	s = openT(t, dir, Options{})
	defer s.Close()
	if _, err := mstate.Load(s, root); err != nil {
		t.Fatalf("the last root after reopen: %v", err)
	}
}
