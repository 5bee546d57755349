// Package diskstore is the disk-backed mstate.NodeStore: an append-only,
// content-addressed node log with crash-safe commits, compacted by
// generations.
//
// Layout of a store directory:
//
//	seg-000007.log   segment: 8-byte magic, then records. A generation is
//	seg-000008.log   a run of segments (a new one starts once the active
//	                 one crosses Options.SegmentBytes); the manifest
//	                 names its first
//	MANIFEST         commit manifest: (root, generation, segment, offset,
//	                 meta), written atomically (temp + fsync + rename)
//	                 only after the nodes it references are durable
//
// Each record is
//
//	len(payload) uint32 BE | hash [32]byte | payload | crc32 uint32 BE
//
// with the CRC (IEEE) taken over len‖hash‖payload. A record is never
// rewritten in place; the hash is the content address (sha256 of the
// payload per the mstate node encoding). The log does not deduplicate — a
// writer (mstate.Trie.Commit) appends what is new to it — so equal nodes
// may appear more than once, and reads serve the first copy.
//
// Compaction is a commit. When another commit the size of the last one
// would take the records appended since the generation's first commit past
// the records of that first commit, so that more than half the generation
// could be dead, Commit starts a new segment as a new generation.
// Generation reports it, so the next Trie.Commit writes every live node
// again; the commit of that root names the new generation, and only then
// are the old generation's segments removed.
//
// Durability protocol: Put appends a record to the active segment through
// a 64 KiB append buffer; Commit flushes, fsyncs the segment, and
// only then replaces MANIFEST with one pointing at (root, generation,
// segment, offset). A crash between those steps leaves a torn tail past
// the manifest offset, which Open truncates away, and maybe segments past
// the manifest's (an uncommitted generation) or below its generation (a
// retired one whose removal was cut short), which Open removes; the store
// always reopens at the last committed root, never a partial one.
package diskstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"agnopol/internal/mstate"
)

// Typed failure classes, so callers can tell corruption apart from
// absence and from ordinary I/O errors (all wrapped with context).
var (
	// ErrMissingManifest: segment files exist but no MANIFEST does.
	// The log alone cannot say which prefix is committed, so this is
	// corruption (a deleted manifest), not a fresh store.
	ErrMissingManifest = errors.New("diskstore: segments present but manifest missing")
	// ErrCorruptManifest: MANIFEST exists but fails parsing, its
	// checksum, or its magic.
	ErrCorruptManifest = errors.New("diskstore: corrupt manifest")
	// ErrMissingSegment: a segment of the manifest's generation, up to
	// the one the manifest references, is not on disk.
	ErrMissingSegment = errors.New("diskstore: missing segment")
	// ErrTruncatedRecord: the durable region promised by the manifest
	// ends mid-record, or a sealed segment does.
	ErrTruncatedRecord = errors.New("diskstore: truncated record inside durable region")
	// ErrChecksum: a record failed its CRC on read.
	ErrChecksum = errors.New("diskstore: record checksum mismatch")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("diskstore: store is closed")
)

const (
	segMagic      = "POLSEG1\n"
	segHeaderLen  = int64(len(segMagic))
	recHeaderLen  = 4 + 32 // len + hash
	recTrailerLen = 4      // crc
	manifestName  = "MANIFEST"
	// scanBufBytes is the read-ahead segments are scanned through (less for
	// a log that is smaller): recovery costs one read per MiB of log, not
	// one per record.
	scanBufBytes = 1 << 20
	// appendBufBytes sizes the buffer Put appends through: a commit of
	// ≈ 1 MB reaches the file in ≈ 15 writes, and the buffer is all the
	// heap the write path keeps.
	appendBufBytes = 64 << 10
	// deadShare is the compaction rule's one constant: a new generation
	// starts once another commit like the last would leave more than
	// 1/deadShare of the generation's records appended after its first
	// commit — at most half the log is dead.
	deadShare = 2
)

// Options tunes a Store. The zero value picks sensible defaults.
type Options struct {
	// SegmentBytes rolls the active segment once it crosses this size.
	// Default 64 MiB.
	SegmentBytes int64
	// NoSync skips every fsync. Only for tests that measure logic, not
	// durability.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// ref locates one record inside the log.
type ref struct {
	seg int
	off int64 // record start (length field)
	ln  int   // payload length
}

// Store is a disk-backed mstate.NodeStore. All methods are safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	// index maps a hash to the first record carrying it. It is a recovery
	// structure, not a write-path one: Open builds it for the Load that
	// follows, the first Put releases it (appends never consult it, so a
	// long-running store holds nothing per record), and a read that finds
	// it gone rebuilds it with the same scan.
	index   map[mstate.Hash]ref
	records int         // records in the log, duplicates included
	last    mstate.Hash // hash of the newest record: a Trie.Commit appends its root last

	files  map[int]*os.File // open segment files, keyed by number
	active int              // active (append) segment number
	w      *bufio.Writer    // buffers appends to files[active]
	curOff int64            // logical end of the active segment

	// gen is the first segment of the generation appends go to. It runs
	// ahead of man.Gen from the commit that starts a generation to the
	// commit that names it; until then retired counts the records of the
	// old generation, which the log still holds.
	gen     int
	retired int
	first   int // records of gen's first commit
	sealed  int // records at the last commit

	// Put's record framing. Held here, not on Put's stack: a local
	// passed to w.Write escapes, one allocation per record.
	hdr  [recHeaderLen]byte
	tail [recTrailerLen]byte

	man *manifest // the last committed manifest; nil for a fresh store

	closed bool
}

// Open opens (or creates) the store in dir, recovering to the last
// committed manifest: the index is built by scanning the manifest's
// generation up to its (segment, offset), any torn tail past it is
// truncated, and segments outside the generation — uncommitted newer ones,
// retired older ones — are removed. An empty or absent dir
// initialises a fresh store; segments without a manifest are corruption
// (ErrMissingManifest).
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: create dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	man, manErr := readManifest(filepath.Join(dir, manifestName))
	if manErr != nil && !errors.Is(manErr, os.ErrNotExist) {
		return nil, manErr
	}

	s := &Store{
		dir:   dir,
		opts:  opts,
		files: make(map[int]*os.File),
	}

	if man == nil {
		if len(segs) > 0 {
			return nil, fmt.Errorf("%w: found %s without %s in %s",
				ErrMissingManifest, segName(segs[0]), manifestName, dir)
		}
		if err := s.startSegment(1); err != nil {
			return nil, err
		}
		s.gen = 1
		return s, nil
	}

	// Committed state exists: every segment man.Gen..man.Segment must be
	// present; anything newer was never committed, anything older belongs
	// to a retired generation, and both are dropped.
	present := make(map[int]bool, len(segs))
	for _, n := range segs {
		present[n] = true
	}
	for n := man.Gen; n <= man.Segment; n++ {
		if !present[n] {
			return nil, fmt.Errorf("%w: %s referenced by manifest", ErrMissingSegment, segName(n))
		}
	}
	for _, n := range segs {
		if n < man.Gen || n > man.Segment {
			if err := os.Remove(filepath.Join(dir, segName(n))); err != nil {
				return nil, fmt.Errorf("diskstore: drop %s outside generation %d: %w", segName(n), man.Gen, err)
			}
		}
	}

	s.gen, s.man = man.Gen, man
	for n := man.Gen; n <= man.Segment; n++ {
		f, err := os.OpenFile(filepath.Join(dir, segName(n)), os.O_RDWR, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("diskstore: open %s: %w", segName(n), err)
		}
		s.files[n] = f
	}
	end, err := s.loadIndex(man.Segment, man.Offset, man.Nodes)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	// Torn tail from a crash after flush but before commit: drop
	// everything past the durable offset.
	f := s.files[man.Segment]
	if err := f.Truncate(end); err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("diskstore: truncate torn tail of %s: %w", segName(man.Segment), err)
	}
	if _, err := f.Seek(end, 0); err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("diskstore: seek %s: %w", segName(man.Segment), err)
	}
	s.active = man.Segment
	s.curOff = end
	s.w = bufio.NewWriterSize(f, appendBufBytes)
	s.first, s.sealed = man.First, s.records
	return s, nil
}

// loadIndex builds the index, the record count and the newest hash with one
// sequential pass over the segments the store keeps, up to last: sealed
// ones to their full size, the last one up to limit. It returns the offset
// where that region ends. hint pre-sizes the map; the bytes to scan bound
// how many records there can be, so a wrong hint cannot over-allocate. On
// failure the store keeps no index rather than half of one.
func (s *Store) loadIndex(last int, limit int64, hint int) (int64, error) {
	from := s.gen
	if s.man != nil {
		from = s.man.Gen // a retiring generation is still read
	}
	sizes := make([]int64, last-from+1)
	var durable int64
	for n := from; n <= last; n++ {
		st, err := s.files[n].Stat()
		if err != nil {
			return 0, fmt.Errorf("diskstore: stat %s: %w", segName(n), err)
		}
		sizes[n-from] = st.Size()
		durable += sizes[n-from]
	}
	durable -= max(0, sizes[last-from]-limit) // the tail past limit is not scanned
	records, newest := s.records, s.last
	s.index = make(map[mstate.Hash]ref, max(0, min(int64(hint), durable/(recHeaderLen+recTrailerLen))))
	s.records = 0
	br := bufio.NewReaderSize(nil, int(min(scanBufBytes, durable)))
	var end int64
	for n := from; n <= last; n++ {
		to := sizes[n-from]
		if n == last {
			to = limit
		}
		var err error
		if end, err = s.scanSegment(n, br, sizes[n-from], to); err != nil {
			s.index, s.records, s.last = nil, records, newest
			return 0, err
		}
	}
	return end, nil
}

// scanSegment validates the header of segment n (size bytes on disk) and
// walks the records in [segHeaderLen, limit) once, sequentially through
// br, counting each and adding it to the index unless an earlier record
// carries the same hash. Only framing is checked here: payloads and CRCs
// are skipped (GetNode verifies them on every read) and no byte past limit
// is parsed. It returns the byte offset where the scanned region ends.
func (s *Store) scanSegment(n int, br *bufio.Reader, size, limit int64) (int64, error) {
	if size < limit {
		return 0, fmt.Errorf("%w: %s is %d bytes but the manifest requires %d",
			ErrTruncatedRecord, segName(n), size, limit)
	}
	if limit < segHeaderLen {
		return 0, fmt.Errorf("%w: %s shorter than its header", ErrTruncatedRecord, segName(n))
	}
	br.Reset(io.NewSectionReader(s.files[n], 0, limit))
	var hdr [recHeaderLen]byte
	magic := hdr[:segHeaderLen]
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("diskstore: read %s header: %w", segName(n), err)
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("%w: %s has bad magic %q", ErrChecksum, segName(n), magic)
	}
	off := segHeaderLen
	for off < limit {
		if off+recHeaderLen+recTrailerLen > limit {
			return 0, fmt.Errorf("%w: %s record header at %d runs past %d",
				ErrTruncatedRecord, segName(n), off, limit)
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return 0, fmt.Errorf("diskstore: read %s at %d: %w", segName(n), off, err)
		}
		ln := int64(binary.BigEndian.Uint32(hdr[:4]))
		recEnd := off + recHeaderLen + ln + recTrailerLen
		if recEnd > limit {
			return 0, fmt.Errorf("%w: %s record at %d ends at %d, past %d",
				ErrTruncatedRecord, segName(n), off, recEnd, limit)
		}
		if _, err := br.Discard(int(ln) + recTrailerLen); err != nil {
			return 0, fmt.Errorf("diskstore: read %s at %d: %w", segName(n), off, err)
		}
		copy(s.last[:], hdr[4:])
		if _, ok := s.index[s.last]; !ok {
			s.index[s.last] = ref{seg: n, off: off, ln: int(ln)}
		}
		s.records++
		off = recEnd
	}
	return off, nil
}

// startSegment creates segment n with its header and makes it active,
// appending through the same buffer as the segment before it.
func (s *Store) startSegment(n int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(n)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: create %s: %w", segName(n), err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("diskstore: write %s header: %w", segName(n), err)
	}
	s.files[n] = f
	s.active = n
	if s.w == nil {
		s.w = bufio.NewWriterSize(f, appendBufBytes)
	} else {
		s.w.Reset(f)
	}
	s.curOff = segHeaderLen
	return nil
}

// roll seals the active segment (flush + fsync) and starts the next.
func (s *Store) roll() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.syncFile(s.files[s.active]); err != nil {
		return err
	}
	return s.startSegment(s.active + 1)
}

// Put implements mstate.NodeStore: appends one record to the active
// segment, rolling it first if it is full, and releases the index. The
// record becomes durable only at the next Commit.
func (s *Store) Put(h mstate.Hash, enc []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.index = nil
	if s.curOff >= s.opts.SegmentBytes {
		if err := s.roll(); err != nil {
			return err
		}
	}
	binary.BigEndian.PutUint32(s.hdr[:4], uint32(len(enc)))
	copy(s.hdr[4:], h[:])
	crc := crc32.Update(crc32.ChecksumIEEE(s.hdr[:]), crc32.IEEETable, enc)
	binary.BigEndian.PutUint32(s.tail[:], crc)
	for _, b := range [...][]byte{s.hdr[:], enc, s.tail[:]} {
		if _, err := s.w.Write(b); err != nil {
			return fmt.Errorf("diskstore: append: %w", err)
		}
	}
	s.curOff += recHeaderLen + int64(len(enc)) + recTrailerLen
	s.records++
	s.last = h
	return nil
}

// indexLocked returns the index, rebuilding it over the flushed log when an
// append has released it since the last read.
func (s *Store) indexLocked() (map[mstate.Hash]ref, error) {
	if s.index == nil {
		// The scan reads the files, which cannot see bytes still sitting
		// in the append buffer — push them down first.
		if err := s.flushLocked(); err != nil {
			return nil, err
		}
		if _, err := s.loadIndex(s.active, s.curOff, s.records); err != nil {
			return nil, err
		}
	}
	return s.index, nil
}

// GetNode implements mstate.NodeStore: one read of the record the index
// points at, checked against the indexed length, the record's CRC and its
// stored hash. The returned slice is owned by the caller.
func (s *Store) GetNode(h mstate.Hash) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.man != nil && s.gen != s.man.Gen {
		// A read before the new generation is committed: the node may sit
		// in the old generation only, and a reader would take it for the
		// new one's (Generation). The new segments join the old generation
		// instead, and a later commit starts another.
		s.gen, s.retired = s.man.Gen, 0
	}
	index, err := s.indexLocked()
	if err != nil {
		return nil, err
	}
	r, ok := index[h]
	if !ok {
		return nil, fmt.Errorf("%w: %x", mstate.ErrNodeMissing, h[:8])
	}
	buf := make([]byte, recHeaderLen+r.ln+recTrailerLen)
	if _, err := s.files[r.seg].ReadAt(buf, r.off); err != nil {
		return nil, fmt.Errorf("diskstore: read %s at %d: %w", segName(r.seg), r.off, err)
	}
	if got := binary.BigEndian.Uint32(buf[:4]); int(got) != r.ln {
		return nil, fmt.Errorf("%w: %s at %d: length %d, index says %d",
			ErrChecksum, segName(r.seg), r.off, got, r.ln)
	}
	want := binary.BigEndian.Uint32(buf[len(buf)-recTrailerLen:])
	if crc := crc32.ChecksumIEEE(buf[:len(buf)-recTrailerLen]); crc != want {
		return nil, fmt.Errorf("%w: %s at %d: crc %08x, stored %08x",
			ErrChecksum, segName(r.seg), r.off, crc, want)
	}
	var stored mstate.Hash
	copy(stored[:], buf[4:recHeaderLen])
	if stored != h {
		return nil, fmt.Errorf("%w: %s at %d: stored hash %x, want %x",
			ErrChecksum, segName(r.seg), r.off, stored[:8], h[:8])
	}
	return buf[recHeaderLen : len(buf)-recTrailerLen], nil
}

// Flush implements mstate.NodeStore: pushes buffered appends to the OS.
// Durability still requires Commit.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("diskstore: flush %s: %w", segName(s.active), err)
	}
	return nil
}

// Commit makes every node written so far durable and atomically
// publishes root (with an opaque meta blob, e.g. a chain checkpoint) as
// the store's committed state: flush, fsync the active segment, then
// replace MANIFEST via temp-file + rename. On reopen the store recovers
// exactly to this point. A non-empty root must be the newest record (a
// Trie.Commit appends its root last) or the root already committed:
// anything else is a root this log was not just given.
//
// Commit also compacts. In a settled generation it applies the rule
// (deadShare) and may start the next generation. The manifest names a new
// generation once the generation holds root — the empty root, or the
// newest record appended there — and only after that manifest is
// published are the old generation's segments closed and removed (Open
// removes what a crash or an error leaves of them); until then the
// manifest keeps naming the old generation.
func (s *Store) Commit(root mstate.Hash, meta []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if root != (mstate.Hash{}) && root != s.last && !(s.man != nil && root == s.man.Root) {
		return fmt.Errorf("diskstore: commit of root %x, which is neither the newest record nor the committed root", root[:8])
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.syncFile(s.files[s.active]); err != nil {
		return err
	}
	man := &manifest{
		Root:    root,
		Gen:     s.gen,
		Segment: s.active,
		Offset:  s.curOff,
		Nodes:   s.records - s.retired,
		First:   s.first,
	}
	moving := s.man != nil && s.gen != s.man.Gen
	switch {
	case s.man == nil || moving && (root == mstate.Hash{} || root == s.last && s.records > s.retired):
		man.First = man.Nodes // the generation's first commit
	case moving:
		*man = *s.man // the new generation does not hold root yet
		man.Root = root
	}
	man.Meta = append([]byte(nil), meta...)
	if err := writeManifest(s.dir, man, s.opts.NoSync); err != nil {
		return err
	}
	old := s.man
	s.man = man
	written := s.records - s.sealed
	s.sealed = s.records
	if moving {
		if man.Gen == s.gen {
			return s.retire(old.Gen)
		}
		return nil
	}
	s.first = man.First
	if deadShare*(s.records-s.first+written) > s.records+written {
		if err := s.startSegment(s.active + 1); err != nil {
			return err
		}
		s.gen, s.retired = s.active, s.records
	}
	return nil
}

// retire closes and removes segments from..gen-1, the old generation, once
// a published manifest names the new one, and settles the counts on it.
func (s *Store) retire(from int) error {
	s.records -= s.retired
	s.first, s.sealed, s.retired = s.records, s.records, 0
	s.index = nil // it may point into the removed segments
	for n := from; n < s.gen; n++ {
		s.files[n].Close()
		delete(s.files, n)
		if err := os.Remove(filepath.Join(s.dir, segName(n))); err != nil {
			return fmt.Errorf("diskstore: remove retired %s: %w", segName(n), err)
		}
	}
	return nil
}

// Generation is the first segment of the generation appends go to: the
// optional method of an mstate.NodeStore that drops old nodes.
func (s *Store) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Root returns the last committed root, and whether one exists.
func (s *Store) Root() (mstate.Hash, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man == nil {
		return mstate.Hash{}, false
	}
	return s.man.Root, true
}

// Meta returns a copy of the meta blob from the last commit.
func (s *Store) Meta() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man == nil {
		return nil
	}
	return append([]byte(nil), s.man.Meta...)
}

// Len is the number of records in the log (committed or staged), a node
// appended twice counted twice. A generation's records leave the count when
// it is retired.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Close implements mstate.NodeStore: flushes buffered appends and
// closes every segment file. Staged-but-uncommitted records are not
// made durable — reopen recovers the last Commit.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked()
	s.closeFiles()
	s.closed = true
	return err
}

func (s *Store) closeFiles() {
	for _, f := range s.files {
		f.Close()
	}
}

func (s *Store) syncFile(f *os.File) error {
	if s.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("diskstore: fsync: %w", err)
	}
	return nil
}

func segName(n int) string { return fmt.Sprintf("seg-%06d.log", n) }

// listSegments returns the sorted segment numbers present in dir.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("diskstore: read dir: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.log", &n); err == nil && segName(n) == e.Name() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}
