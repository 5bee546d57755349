package precompile

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"testing"

	"agnopol/internal/polcrypto"
)

// address is the reserved 20-byte EVM address of entry id: a zero prefix,
// then the ID.
func address(id byte) [20]byte {
	var a [20]byte
	a[19] = id
	return a
}

func TestAddressRoundTrip(t *testing.T) {
	for _, p := range All() {
		a := address(p.ID)
		if got := ByAddress(a); got != p {
			t.Fatalf("ByAddress(Address(%#x)) = %v, want %s", p.ID, got, p.Name)
		}
		if ByID(p.ID) != p {
			t.Fatalf("ByID(%#x) != entry %s", p.ID, p.Name)
		}
	}
	// Non-reserved addresses never resolve.
	var a [20]byte
	a[19] = IDEd25519Verify
	a[0] = 1 // any non-zero prefix byte disqualifies
	if ByAddress(a) != nil {
		t.Fatal("address with non-zero prefix must not resolve")
	}
	if ByAddress([20]byte{}) != nil {
		t.Fatal("address zero is not a precompile")
	}
	if ByID(maxID+1) != nil || ByID(0) != nil {
		t.Fatal("out-of-range IDs must not resolve")
	}
	if ByAddress(address(0x02)) != nil {
		t.Fatal("the unassigned ID 0x02 must not resolve")
	}
}

func TestByAVMOp(t *testing.T) {
	for _, p := range All() {
		if p.AVMOp == "" {
			continue
		}
		if ByAVMOp(p.AVMOp) != p {
			t.Fatalf("ByAVMOp(%q) != entry %s", p.AVMOp, p.Name)
		}
	}
	if ByAVMOp("bytes_equal") != nil {
		t.Fatal("bytes_equal has no AVM pseudo-op (native == covers it)")
	}
	if ByAVMOp("no-such-op") != nil {
		t.Fatal("unknown mnemonic must not resolve")
	}
}

func TestGasSchedule(t *testing.T) {
	p := ByID(IDSha256)
	cases := []struct{ in, want uint64 }{
		{0, 60}, {1, 72}, {32, 72}, {33, 84}, {64, 84}, {96, 96},
	}
	for _, c := range cases {
		if got := p.Gas(c.in); got != c.want {
			t.Fatalf("sha256.Gas(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := ByID(IDEd25519Verify).Gas(1 << 20); got != 3000 {
		t.Fatalf("ed25519 gas must be flat 3000, got %d", got)
	}
}

func TestHashNatives(t *testing.T) {
	a, b := []byte("proof-of-"), []byte("location")
	want := sha256.Sum256([]byte("proof-of-location"))
	p := ByID(IDSha256)
	got, ok := p.Native(a, b)
	if !ok || got != want {
		t.Fatalf("%s over split input = %x ok=%v, want %x", p.Name, got, ok, want)
	}
	// Zero ranges hash the empty string, like the underlying opcode.
	empty, ok := p.Native()
	if !ok || empty != sha256.Sum256(nil) {
		t.Fatalf("%s() = %x ok=%v, want empty-string digest", p.Name, empty, ok)
	}
}

func TestBytesEqual(t *testing.T) {
	p := ByID(IDBytesEqual)
	if w, ok := p.Native([]byte("x"), []byte("x")); !ok || w[31] != 1 {
		t.Fatalf("equal bytes: %x ok=%v", w, ok)
	}
	if w, ok := p.Native([]byte("x"), []byte("y")); !ok || w != ([32]byte{}) {
		t.Fatalf("unequal bytes: %x ok=%v", w, ok)
	}
	if _, ok := p.Native([]byte("x")); ok {
		t.Fatal("arity violation must be rejected by the native")
	}
}

func TestOLCContains(t *testing.T) {
	p := ByID(IDOLCContains)
	cases := []struct {
		cell, code string
		want       byte
	}{
		{"8FQFCX", "8FQFCXGV+XX", 1}, // code inside the 6-char cell
		{"8FQFCX", "8FQFCX", 1},      // cell contains itself
		{"8FQFCX", "9FQFCXGV+XX", 0}, // different area
		{"8FQFCXGV+XX", "8FQFCX", 0}, // cell longer than code
		{"", "8FQFCXGV+XX", 1},       // the whole planet
	}
	for _, c := range cases {
		w, ok := p.Native([]byte(c.cell), []byte(c.code))
		if !ok || w[31] != c.want {
			t.Fatalf("contains(%q, %q) = %d ok=%v, want %d", c.cell, c.code, w[31], ok, c.want)
		}
	}
}

func TestEd25519Verify(t *testing.T) {
	p := ByID(IDEd25519Verify)
	kp := polcrypto.MustGenerateKeyPair(rand.Reader)
	// Sign a digest, like every on-chain caller does.
	h := polcrypto.Hash([]byte("check-in at 8FQFCXGV+XX"))
	msg := h[:]
	sig := kp.Sign(msg)

	w, ok := p.Native(kp.Public, msg, sig)
	if !ok || w[31] != 1 {
		t.Fatalf("valid signature rejected: %x ok=%v", w, ok)
	}

	sig[0] ^= 1
	w, ok = p.Native(kp.Public, msg, sig)
	if !ok || w != ([32]byte{}) {
		t.Fatalf("corrupted signature accepted: %x ok=%v", w, ok)
	}
	if _, ok := p.Native(kp.Public, msg); ok {
		t.Fatal("arity violation must be rejected by the native")
	}
	// Malformed shapes (wrong pubkey length) verify false.
	if w, ok := p.Native([]byte("short"), msg, sig); !ok || w != ([32]byte{}) {
		t.Fatalf("short pubkey must verify false: %x ok=%v", w, ok)
	}
}

func TestAllOrderedAndComplete(t *testing.T) {
	all := All()
	if len(all) != maxID-1 { // every reserved ID but the unassigned 0x02
		t.Fatalf("registry has %d entries, want %d", len(all), maxID-1)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("All() must be ID-ordered")
		}
	}
	seen := map[string]bool{}
	for _, p := range all {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("bad or duplicate name %q", p.Name)
		}
		seen[p.Name] = true
		addr := address(p.ID)
		if !bytes.Equal(addr[:19], make([]byte, 19)) {
			t.Fatal("reserved addresses must have a zero prefix")
		}
	}
}
