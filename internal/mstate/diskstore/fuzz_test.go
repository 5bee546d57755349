package diskstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"agnopol/internal/mstate"
)

// typedErrors is every failure class Open and GetNode may report for bytes
// they did not write themselves.
var typedErrors = []error{
	ErrMissingManifest, ErrCorruptManifest, ErrMissingSegment,
	ErrTruncatedRecord, ErrChecksum, ErrClosed, mstate.ErrNodeMissing,
}

func isTyped(err error) bool {
	for _, want := range typedErrors {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzOpen feeds Open an arbitrary segment body under a valid magic and a
// checksummed manifest whose generation, durable offset and node count the
// fuzzer picks; the body is the generation's one segment, and the fuzzer
// may leave another segment, with a body of its own, just below the
// generation (a retired one) or just above it (an uncommitted one). Open
// must return a store or a typed error, and on success keep no segment but
// the generation's, and read every indexed record back as bytes or a typed
// error: no panic, no untyped error, whatever the log holds.
func FuzzOpen(f *testing.F) {
	// A valid two-commit log, whole and recovered to its first commit.
	src := f.TempDir()
	s := openT(f, src, Options{})
	tr := buildTrie(12, "fz")
	commit(f, tr, s, nil)
	firstCommit := uint32(s.curOff - segHeaderLen)
	tr.Put(tk("fz-second"), []byte("commit"))
	commit(f, tr, s, nil)
	s.Close()
	seg, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	body := seg[segHeaderLen:]
	f.Add(body, uint32(len(body)), uint8(1), []byte(nil), uint8(0))
	f.Add(body, firstCommit, uint8(1), []byte(nil), uint8(0))
	// The same log cut mid-header and mid-payload of the second commit's
	// first record: durable up to the cut, a byte past it (more than the
	// file holds), and back at the first commit (a torn tail).
	f.Add(body[:firstCommit+10], firstCommit+10, uint8(1), []byte(nil), uint8(0))
	f.Add(body[:firstCommit+10], firstCommit+11, uint8(1), []byte(nil), uint8(0))
	f.Add(body[:firstCommit+10], firstCommit, uint8(1), []byte(nil), uint8(0))
	f.Add(body[:firstCommit+recHeaderLen+5], firstCommit+recHeaderLen+5, uint8(1), []byte(nil), uint8(0))
	// Hostile framing: a length field of 0xFFFFFFFF, a zero-length record.
	huge := make([]byte, recHeaderLen+recTrailerLen)
	binary.BigEndian.PutUint32(huge, 0xFFFFFFFF)
	f.Add(huge, uint32(len(huge)), uint8(1), []byte(nil), uint8(0))
	f.Add(make([]byte, recHeaderLen+recTrailerLen), uint32(recHeaderLen+recTrailerLen), uint8(1), []byte(nil), uint8(0))

	// The three cut points of a compaction. A store whose first generation
	// is segment 1 stops before the new generation's sync: the manifest
	// names segment 1 and segment 2 holds part of the new generation.
	// Another, whose first generation is segments 1 and 2, compacts into
	// segment 3: cut between the manifest rename and the removal, segment 2
	// is still beside it, and partway through the removal segment 1 is gone
	// too (with segment 2 named as the new generation, it is the state
	// right after the rename of a one-segment generation).
	src = f.TempDir()
	s = openT(f, src, Options{})
	tr = buildTrie(12, "gen")
	commit(f, tr, s, nil)
	untilNewGeneration(f, tr, s)
	seg1, _ := os.ReadFile(filepath.Join(src, segName(1)))
	tr.Put(tk("compacted"), []byte("v"))
	if _, err := tr.Commit(s); err != nil {
		f.Fatal(err)
	}
	seg2, _ := os.ReadFile(filepath.Join(src, segName(2)))
	s.Close()
	f.Add(seg1[segHeaderLen:], uint32(len(seg1)-int(segHeaderLen)), uint8(1), seg2[segHeaderLen:len(seg2)/2], uint8(2))
	f.Add(seg2[segHeaderLen:], uint32(len(seg2)-int(segHeaderLen)), uint8(2), seg1[segHeaderLen:], uint8(1))

	src = f.TempDir()
	s = openT(f, src, Options{SegmentBytes: 256})
	tr = buildTrie(4, "gen")
	commit(f, tr, s, nil)
	s.Close()
	s = openT(f, src, Options{})
	if tr, err = mstate.Load(s, tr.Root()); err != nil {
		f.Fatal(err)
	}
	untilNewGeneration(f, tr, s)
	seg2, _ = os.ReadFile(filepath.Join(src, segName(2)))
	tr.Put(tk("compacted"), []byte("v"))
	commit(f, tr, s, nil)
	s.Close()
	if s.man.Gen != 3 {
		f.Fatalf("the compacting commit named generation %d, want 3", s.man.Gen)
	}
	seg3, _ := os.ReadFile(filepath.Join(src, segName(3)))
	f.Add(seg3[segHeaderLen:], uint32(len(seg3)-int(segHeaderLen)), uint8(3), seg2[segHeaderLen:], uint8(1))

	f.Fuzz(func(t *testing.T, body []byte, sel uint32, gen uint8, other []byte, place uint8) {
		dir := t.TempDir()
		g := 1 + int(gen%4)
		if err := os.WriteFile(filepath.Join(dir, segName(g)), append([]byte(segMagic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		if n := g - 1 + 2*int(place%3-1); place%3 != 0 && n >= 1 {
			if err := os.WriteFile(filepath.Join(dir, segName(n)), append([]byte(segMagic), other...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The selector reaches every offset from the header to one byte
		// past the file, and doubles as an unrelated node count.
		man := &manifest{
			Gen:     g,
			Segment: g,
			Offset:  segHeaderLen + int64(sel)%int64(len(body)+2),
			Nodes:   int(sel),
			First:   int(sel),
		}
		if err := writeManifest(dir, man, true); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			if !isTyped(err) {
				t.Fatalf("Open: untyped error: %v", err)
			}
			return
		}
		defer s.Close()
		if segs, err := listSegments(dir); err != nil || len(segs) != 1 || segs[0] != g {
			t.Fatalf("Open of generation %d kept segments %v (%v)", g, segs, err)
		}
		index, err := s.indexLocked()
		if err != nil {
			t.Fatalf("index after Open: %v", err)
		}
		for h := range index {
			if _, err := s.GetNode(h); err != nil && !isTyped(err) {
				t.Fatalf("GetNode(%x): untyped error: %v", h[:8], err)
			}
		}
	})
}
