package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSoakCheckpointResumeBitIdentical is the headline crash-safety gate
// at the harness level: a soak stopped mid-run and resumed from its
// diskstore checkpoint must land on exactly the digest, state root and
// block count of a soak that never stopped — on both chain families, and
// even when the resumed process picks a different fan-out width.
func TestSoakCheckpointResumeBitIdentical(t *testing.T) {
	for _, c := range []ChainName{ChainGoerli, ChainAlgorand} {
		c := c
		t.Run(string(c), func(t *testing.T) {
			spec := SoakSpec{Chain: c, Areas: 3, Users: 6, Rounds: 6, Shards: 2, Seed: 42}
			full, err := RunSoak(spec)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			withState := spec
			withState.StateDir = dir
			withState.CheckpointEvery = 2
			withState.StopAfterRounds = 3
			stopped, err := RunSoak(withState)
			if err != nil {
				t.Fatal(err)
			}
			if !stopped.Stopped {
				t.Fatal("run should have stopped at StopAfterRounds")
			}
			if stopped.Digest == full.Digest {
				t.Fatal("a stopped run cannot already match the full run's digest")
			}

			resumed, err := RunSoak(SoakSpec{StateDir: dir, Resume: true, Shards: 4, CheckpointEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Resumed {
				t.Fatal("result should be marked resumed")
			}
			if resumed.Digest != full.Digest {
				t.Fatalf("resumed digest %x diverges from uninterrupted %x", resumed.Digest, full.Digest)
			}
			if resumed.StateRoot != full.StateRoot {
				t.Fatal("resumed state root diverges from uninterrupted run")
			}
			if resumed.Blocks != full.Blocks {
				t.Fatalf("resumed run reports %d blocks, uninterrupted %d", resumed.Blocks, full.Blocks)
			}
			if resumed.Submitted != full.Submitted || resumed.Included != full.Included {
				t.Fatalf("resumed submitted/included %d/%d, uninterrupted %d/%d",
					resumed.Submitted, resumed.Included, full.Submitted, full.Included)
			}
		})
	}
}

// TestSoakResumesFromATornCheckpoint is the deterministic form of the
// SIGKILL smoke scripts/check.sh ran until PR 25. A process killed while
// writing the checkpoint after the one its MANIFEST names leaves the
// segment that checkpoint appends to cut anywhere in its append, and a
// partial MANIFEST.tmp beside it. The checkpoint after round 2 starts a new
// store generation, so the one after round 4 writes the live trie into the
// new generation's first segment (a compacting commit); the one after round
// 6 appends to that segment behind round 4's. Resuming a copy of either
// torn directory must land on the uninterrupted run's digest, state root
// and block count, on both families. TestEveryCutPointRecovers and
// TestEveryCutPointOfACompactionRecovers cover every byte of a commit at
// the store level; this covers the soak that resumes above it.
func TestSoakResumesFromATornCheckpoint(t *testing.T) {
	read := func(dir, name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	position := func(manifest []byte) (generation, segment int, offset int64) {
		var m struct {
			Generation int
			Segment    int
			Offset     int64
		}
		if err := json.Unmarshal(manifest, &m); err != nil {
			t.Fatal(err)
		}
		return m.Generation, m.Segment, m.Offset
	}
	for _, c := range []ChainName{ChainGoerli, ChainAlgorand} {
		t.Run(string(c), func(t *testing.T) {
			spec := SoakSpec{Chain: c, Areas: 3, Users: 6, Rounds: 8, Shards: 2, Seed: 42}
			full, err := RunSoak(spec)
			if err != nil {
				t.Fatal(err)
			}
			// The same run stopped after a number of rounds: the first
			// directory of a pair is the durable state a killed process
			// leaves, the second holds the bytes of the checkpoint the killed
			// process was writing.
			stopped := func(rounds int) string {
				s := spec
				s.StateDir, s.CheckpointEvery, s.StopAfterRounds = t.TempDir(), 2, rounds
				if _, err := RunSoak(s); err != nil {
					t.Fatal(err)
				}
				return s.StateDir
			}
			for _, pair := range [][2]int{{2, 4}, {4, 6}} {
				durable, next := stopped(pair[0]), stopped(pair[1])
				manifest, nextManifest := read(durable, "MANIFEST"), read(next, "MANIFEST")
				gen, seg, from := position(manifest)
				nextGen, nextSeg, to := position(nextManifest)
				compacting := pair[0] == 2
				switch {
				case compacting && (gen != 1 || nextGen != seg+1 || nextSeg != nextGen):
					t.Fatalf("rounds %v: want generation 1 ending in segment %d, then generation %d; manifests name %d/%d and %d/%d",
						pair, seg, seg+1, gen, seg, nextGen, nextSeg)
				case compacting:
					from = int64(len("POLSEG1\n")) // the new generation's first segment holds only its header
				case nextGen != gen || nextSeg != seg:
					t.Fatalf("rounds %v: want one segment on both sides, manifests name %d/%d and %d/%d",
						pair, gen, seg, nextGen, nextSeg)
				}
				if to <= from {
					t.Fatalf("rounds %v: the next checkpoint appended nothing: offsets %d, %d", pair, from, to)
				}
				segName := fmt.Sprintf("seg-%06d.log", nextSeg)
				log := read(next, segName)
				if !bytes.Equal(log[:from], read(durable, segName)) {
					t.Fatalf("rounds %v: the two stopped runs wrote different bytes up to the first checkpoint", pair)
				}
				segs, err := filepath.Glob(filepath.Join(durable, "seg-*.log"))
				if err != nil {
					t.Fatal(err)
				}
				cuts := []int64{from + 1, to - 1}
				for k := int64(0); k <= 8; k++ {
					cuts = append(cuts, from+(to-from)*k/8)
				}
				for _, cut := range cuts {
					dir := t.TempDir()
					files := map[string][]byte{
						"MANIFEST":     manifest,
						"MANIFEST.tmp": nextManifest[:1+int(cut-from)%(len(nextManifest)-1)],
					}
					for _, path := range segs {
						files[filepath.Base(path)] = read(durable, filepath.Base(path))
					}
					files[segName] = log[:cut]
					for name, data := range files {
						if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					resumed, err := RunSoak(SoakSpec{StateDir: dir, Resume: true})
					if err != nil {
						t.Fatalf("rounds %v, cut at %d of [%d, %d]: %v", pair, cut, from, to, err)
					}
					if resumed.Digest != full.Digest || resumed.StateRoot != full.StateRoot || resumed.Blocks != full.Blocks {
						t.Fatalf("rounds %v, cut at %d of [%d, %d]: resumed to digest %x root %x after %d blocks, uninterrupted %x %x %d",
							pair, cut, from, to, resumed.Digest[:8], resumed.StateRoot[:8], resumed.Blocks,
							full.Digest[:8], full.StateRoot[:8], full.Blocks)
					}
					// What the resumed run appended after the cut must reopen too.
					again, err := RunSoak(SoakSpec{StateDir: dir, Resume: true})
					if err != nil || again.StateRoot != full.StateRoot {
						t.Fatalf("rounds %v, cut at %d: reopening the resumed run's final checkpoint: %v", pair, cut, err)
					}
				}
			}
		})
	}
}

// TestSoakResumeOfCompletedRunIsNoOp: resuming after the final (drained)
// checkpoint replays nothing and preserves the digest — the property that
// makes a kill arriving after completion harmless.
func TestSoakResumeOfCompletedRunIsNoOp(t *testing.T) {
	dir := t.TempDir()
	done, err := RunSoak(SoakSpec{
		Chain: ChainGoerli, Areas: 2, Users: 4, Rounds: 3, Shards: 2, Seed: 7,
		StateDir: dir, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunSoak(SoakSpec{StateDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != done.Digest || again.StateRoot != done.StateRoot {
		t.Fatal("resume of a completed run must be a digest-preserving no-op")
	}
	if again.Blocks != done.Blocks {
		t.Fatalf("no-op resume reports %d blocks, original %d", again.Blocks, done.Blocks)
	}
}

func TestSoakPersistValidation(t *testing.T) {
	if _, err := RunSoak(SoakSpec{Chain: ChainGoerli, Areas: 1, Users: 1, Rounds: 1, StopAfterRounds: 1}); err == nil {
		t.Fatal("StopAfterRounds without StateDir must be rejected")
	}
	if _, err := RunSoak(SoakSpec{Resume: true}); err == nil {
		t.Fatal("Resume without StateDir must be rejected")
	}

	dir := t.TempDir()
	spec := SoakSpec{Chain: ChainAlgorand, Areas: 2, Users: 2, Rounds: 2, Seed: 9, StateDir: dir}
	if _, err := RunSoak(spec); err != nil {
		t.Fatal(err)
	}
	// A fresh run must refuse a directory that already holds a committed soak.
	if _, err := RunSoak(spec); err == nil {
		t.Fatal("fresh run into a committed state dir must be rejected")
	}
	// A resume contradicting the manifest's workload shape must be rejected.
	if _, err := RunSoak(SoakSpec{StateDir: dir, Resume: true, Users: 99}); err == nil {
		t.Fatal("resume with mismatched users must be rejected")
	}
	if _, err := RunSoak(SoakSpec{StateDir: dir, Resume: true, Chain: ChainGoerli}); err == nil {
		t.Fatal("resume with mismatched chain must be rejected")
	}
	// A matching resume still works after the rejections above.
	if _, err := RunSoak(SoakSpec{StateDir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	// Resuming an empty state dir must fail cleanly.
	if _, err := RunSoak(SoakSpec{StateDir: t.TempDir(), Resume: true}); err == nil {
		t.Fatal("resume of an empty state dir must be rejected")
	}
}
