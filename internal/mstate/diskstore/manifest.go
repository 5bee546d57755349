package diskstore

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"agnopol/internal/mstate"
)

// manifestMagic versions the manifest. POLMAN1, written before stores
// compacted, has no generation fields and reads as generation 1 whose
// first commit holds every record.
const (
	manifestMagic   = "POLMAN2"
	manifestMagicV1 = "POLMAN1"
)

// manifest is the commit record: the committed root, the generation that
// holds it (its first segment), how far into which segment the durable log
// extends, the records of the generation up to there and of its first
// commit, and an opaque caller blob (chains store their checkpoint here).
// It is only ever replaced atomically, after the bytes it points at are
// fsynced.
type manifest struct {
	Root    mstate.Hash
	Gen     int
	Segment int
	Offset  int64
	Nodes   int
	First   int
	Meta    []byte
}

// manifestJSON is the on-disk form: hex root for readability, plus a
// CRC over the canonical field string so a torn or hand-edited
// manifest is detected as corruption rather than trusted.
type manifestJSON struct {
	Magic   string `json:"magic"`
	Root    string `json:"root"`
	Gen     int    `json:"generation"`
	Segment int    `json:"segment"`
	Offset  int64  `json:"offset"`
	Nodes   int    `json:"nodes"`
	First   int    `json:"first"`
	Meta    []byte `json:"meta,omitempty"`
	CRC     uint32 `json:"crc"`
}

func (m *manifest) checksum(magic string) uint32 {
	s := fmt.Sprintf("%s|%x|%d|%d|%d|%x", magic, m.Root[:], m.Segment, m.Offset, m.Nodes, m.Meta)
	if magic != manifestMagicV1 {
		s += fmt.Sprintf("|%d|%d", m.Gen, m.First)
	}
	return crc32.ChecksumIEEE([]byte(s))
}

// readManifest loads and validates path. os.ErrNotExist passes through
// so Open can distinguish "fresh store" from corruption.
func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("diskstore: read manifest: %w", err)
	}
	var mj manifestJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	if mj.Magic != manifestMagic && mj.Magic != manifestMagicV1 {
		return nil, fmt.Errorf("%w: magic %q", ErrCorruptManifest, mj.Magic)
	}
	rootBytes, err := hex.DecodeString(mj.Root)
	if err != nil || len(rootBytes) != len(mstate.Hash{}) {
		return nil, fmt.Errorf("%w: bad root %q", ErrCorruptManifest, mj.Root)
	}
	m := &manifest{Gen: mj.Gen, Segment: mj.Segment, Offset: mj.Offset, Nodes: mj.Nodes, First: mj.First, Meta: mj.Meta}
	copy(m.Root[:], rootBytes)
	if want := m.checksum(mj.Magic); mj.CRC != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrCorruptManifest, mj.CRC, want)
	}
	if mj.Magic == manifestMagicV1 {
		m.Gen, m.First = 1, m.Nodes
	}
	if m.Gen < 1 || m.Segment < m.Gen || m.Offset < segHeaderLen {
		return nil, fmt.Errorf("%w: impossible position gen=%d seg=%d off=%d", ErrCorruptManifest, m.Gen, m.Segment, m.Offset)
	}
	return m, nil
}

// writeManifest atomically replaces dir/MANIFEST: write a temp file,
// fsync it, rename over the old manifest, fsync the directory.
func writeManifest(dir string, m *manifest, noSync bool) error {
	mj := manifestJSON{
		Magic:   manifestMagic,
		Root:    hex.EncodeToString(m.Root[:]),
		Gen:     m.Gen,
		Segment: m.Segment,
		Offset:  m.Offset,
		Nodes:   m.Nodes,
		First:   m.First,
		Meta:    m.Meta,
		CRC:     m.checksum(manifestMagic),
	}
	data, err := json.Marshal(&mj)
	if err != nil {
		return fmt.Errorf("diskstore: encode manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: create manifest temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("diskstore: write manifest temp: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("diskstore: fsync manifest temp: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("diskstore: close manifest temp: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("diskstore: publish manifest: %w", err)
	}
	if !noSync {
		d, err := os.Open(dir)
		if err != nil {
			return fmt.Errorf("diskstore: open dir for fsync: %w", err)
		}
		err = d.Sync()
		d.Close()
		if err != nil {
			return fmt.Errorf("diskstore: fsync dir: %w", err)
		}
	}
	return nil
}
