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
// checksummed manifest whose durable offset and node count the fuzzer
// picks. Open must return a store or a typed error, and on success every
// indexed record must read back as bytes or a typed error: no panic, no
// untyped error, whatever the log holds.
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
	f.Add(body, uint32(len(body)))
	f.Add(body, firstCommit)
	// The same log cut mid-header and mid-payload of the second commit's
	// first record: durable up to the cut, a byte past it (more than the
	// file holds), and back at the first commit (a torn tail).
	f.Add(body[:firstCommit+10], firstCommit+10)
	f.Add(body[:firstCommit+10], firstCommit+11)
	f.Add(body[:firstCommit+10], firstCommit)
	f.Add(body[:firstCommit+recHeaderLen+5], firstCommit+recHeaderLen+5)
	// Hostile framing: a length field of 0xFFFFFFFF, a zero-length record.
	huge := make([]byte, recHeaderLen+recTrailerLen)
	binary.BigEndian.PutUint32(huge, 0xFFFFFFFF)
	f.Add(huge, uint32(len(huge)))
	f.Add(make([]byte, recHeaderLen+recTrailerLen), uint32(recHeaderLen+recTrailerLen))

	f.Fuzz(func(t *testing.T, body []byte, sel uint32) {
		dir := t.TempDir()
		seg := append([]byte(segMagic), body...)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		// The selector reaches every offset from the header to one byte
		// past the file, and doubles as an unrelated node count.
		man := &manifest{
			Segment: 1,
			Offset:  segHeaderLen + int64(sel)%int64(len(body)+2),
			Nodes:   int(sel),
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
