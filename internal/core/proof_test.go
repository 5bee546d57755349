package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"agnopol/internal/did"
	"agnopol/internal/geo"
	"agnopol/internal/ipfs"
	"agnopol/internal/olc"
)

func TestConcatDataRoundTrip(t *testing.T) {
	err := quick.Check(func(hash [32]byte, sig []byte, wallet [20]byte, nonce uint64) bool {
		p := &LocationProof{
			Request: ProofRequest{
				DID: "did:agno:x", OLC: "8FPHF8VV+X2", Nonce: nonce,
				CID: "bafy123", Wallet: wallet,
			},
			Hash:      hash,
			Signature: sig,
		}
		parsed, err := ParseConcatData(p.ConcatData())
		if err != nil {
			return false
		}
		return parsed.Hash == hash &&
			string(parsed.Signature) == string(sig) &&
			parsed.Wallet == wallet &&
			parsed.Nonce == nonce &&
			parsed.CID == "bafy123"
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseConcatDataRejectsMalformed(t *testing.T) {
	hash, wallet := strings.Repeat("ab", 32), strings.Repeat("cd", 20)
	withNonce := func(n string) string { return hash + "-11-" + wallet + "-" + n + "-bafy" }
	cases := []string{
		"",
		"a-b-c",                            // too few fields
		"zz-11-22-3-bafy",                  // bad hash hex
		hash + "-zz-" + wallet + "-1-bafy", // bad sig hex
		hash + "-11-" + "aabb" + "-1-bafy", // short wallet
		withNonce("x"),                     // bad nonce
		// Lines that decode to the fields of withNonce("12") but are not
		// what ConcatData writes for them: each would be a second on-chain
		// spelling of one proof.
		withNonce("12abc"),
		withNonce("012"),
		withNonce(" 12"),
		withNonce("+12"),
		withNonce("1_2"),
		withNonce("0x10"),
		withNonce("18446744073709551616"), // 2^64
		strings.ToUpper(hash) + "-11-" + wallet + "-12-bafy",
		hash + "-AB-" + wallet + "-12-bafy",
		hash + "-11-" + strings.ToUpper(wallet) + "-12-bafy",
	}
	if _, err := ParseConcatData([]byte(withNonce("12"))); err != nil {
		t.Fatalf("the canonical line is refused: %v", err)
	}
	for _, c := range cases {
		if _, err := ParseConcatData([]byte(c)); !errors.Is(err, ErrMalformedConcat) {
			t.Errorf("ParseConcatData(%.30q…%q) = %v, want ErrMalformedConcat", c, c[max(0, len(c)-20):], err)
		}
	}
}

// concatRespellings rewrite one field of a canonical on-chain line: case,
// leading zeros and signs, separators inside numbers, stray bytes.
var concatRespellings = []func(string) string{
	strings.ToUpper,
	func(s string) string { return "0" + s },
	func(s string) string { return "+" + s },
	func(s string) string { return " " + s },
	func(s string) string { return s + " " },
	func(s string) string { return s + "x" },
	func(s string) string { return "0x" + s },
	func(s string) string { return s[:len(s)/2] + "_" + s[len(s)/2:] },
	func(s string) string { return s[:len(s)/2] },
	func(string) string { return "" },
}

// TestParseConcatDataAcceptsOnlyItsOwnEncoding: every line that parses is
// the encoding of what it parses to, and every encoding parses. The lines
// are canonical fields with some of them respelled — case, leading zeros
// and signs, separators inside numbers, stray bytes — so most are one edit
// away from a line that parses.
func TestParseConcatDataAcceptsOnlyItsOwnEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	respell := concatRespellings
	accepted := 0
	for i := 0; i < 20000; i++ {
		var want ParsedConcat
		rng.Read(want.Hash[:])
		want.Signature = make([]byte, rng.Intn(3)*32)
		rng.Read(want.Signature)
		rng.Read(want.Wallet[:])
		want.Nonce = rng.Uint64() >> rng.Intn(64)
		want.CID = ipfs.CID(fmt.Sprintf("bafy%x", rng.Uint32()))
		fields := strings.Split(string(want.encode()), "-")
		canonical := true
		for f := range fields {
			if rng.Intn(8) == 0 {
				fields[f] = respell[rng.Intn(len(respell))](fields[f])
				canonical = false
			}
		}
		line := []byte(strings.Join(fields, "-"))
		got, err := ParseConcatData(line)
		switch {
		case err == nil && !bytes.Equal(got.encode(), line):
			t.Fatalf("%q parses to fields that encode as %q", line, got.encode())
		case err != nil && canonical:
			t.Fatalf("an encoding is refused: %q: %v", line, err)
		case err == nil:
			accepted++
		}
	}
	t.Logf("%d of 20000 lines parsed", accepted)
}

// FuzzParseConcatData: ParseConcatData never panics, refuses with
// ErrMalformedConcat, and whatever it accepts re-encodes to exactly its
// input — the invariant of TestParseConcatDataAcceptsOnlyItsOwnEncoding.
// Seeds are a canonical line and every respelling of each of its fields.
// Crashers are committed with their fix under
// testdata/fuzz/FuzzParseConcatData.
func FuzzParseConcatData(f *testing.F) {
	want := ParsedConcat{Signature: []byte{0x11, 0x22}, Nonce: 12, CID: "bafy12"}
	want.Hash[0], want.Wallet[19] = 0xab, 0xcd
	line := string(want.encode())
	f.Add([]byte(line))
	fields := strings.Split(line, "-")
	for i := range fields {
		for _, respell := range concatRespellings {
			g := slices.Clone(fields)
			g[i] = respell(g[i])
			f.Add([]byte(strings.Join(g, "-")))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseConcatData(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedConcat) {
				t.Fatalf("refusal %v is not ErrMalformedConcat", err)
			}
			return
		}
		if enc := got.encode(); !bytes.Equal(enc, data) {
			t.Fatalf("%q parsed, but re-encodes to %q", data, enc)
		}
	})
}

// TestParsedCIDDoesNotPinTheLine: the CID ParseConcatData returns is a copy,
// not a window into the on-chain line. The verifier stores it in the
// hypercube for good; a substring would keep the whole line alive with it.
// A 1 MiB signature makes the difference plain in the live heap.
func TestParsedCIDDoesNotPinTheLine(t *testing.T) {
	// On one P, so the readings do not count partly used allocation spans
	// other Ps' caches hold.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	line := ParsedConcat{Signature: make([]byte, 1<<20), Nonce: 7, CID: "bafyX"}.encode()
	parsed, err := ParseConcatData(line)
	if err != nil {
		t.Fatal(err)
	}
	cid := parsed.CID
	line, parsed = nil, ParsedConcat{}
	with := heapAfterGC()
	runtime.KeepAlive(cid)
	cid = ""
	if held := int64(with) - int64(heapAfterGC()); held > 1<<20 {
		t.Fatalf("the parsed CID keeps %d B alive", held)
	}
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

func TestProofHashBindsEveryField(t *testing.T) {
	base := ProofRequest{DID: "did:agno:a", OLC: "8FPHF8VV+X2", Nonce: 7, CID: "bafyX", Wallet: [20]byte{1}}
	h := base.Hash()
	variants := []ProofRequest{base, base, base, base}
	variants[0].DID = "did:agno:b"
	variants[1].OLC = "8FPHF8VV+X3"
	variants[2].Nonce = 8
	variants[3].CID = "bafyY"
	for i, v := range variants {
		if v.Hash() == h {
			t.Errorf("variant %d did not change the proof hash", i)
		}
	}
	// The wallet travels outside the hash input in the thesis design; the
	// verifier cross-checks it against the on-chain record instead.
}

func TestWitnessAcceptsCellBorderSlack(t *testing.T) {
	sys := newTestSystem(t)
	// The witness stands just outside the prover's OLC cell (cells are
	// ~14 m; Bluetooth reaches 10 m across a border).
	area, err := olc.Decode(olc.MustEncode(bologna.Lat, bologna.Lng, olc.DefaultCodeLength))
	if err != nil {
		t.Fatal(err)
	}
	// Prover at the cell's east edge, witness 4 m further east (next cell).
	proverPos := geo.LatLng{Lat: (area.LatLo + area.LatHi) / 2, Lng: area.LngHi - 0.00001}
	witnessPos := geo.Offset(proverPos, 0, 4)
	w, err := NewWitness(sys, witnessPos)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(sys, proverPos)
	if err != nil {
		t.Fatal(err)
	}
	cid, err := p.UploadReport(Report{Title: "edge", Category: "env"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RequestProof(w, cid, [20]byte{1}); err != nil {
		t.Fatalf("border-adjacent witness refused: %v", err)
	}
}

func TestWitnessRejectsAuthForDifferentDID(t *testing.T) {
	sys := newTestSystem(t)
	w, err := NewWitness(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	// Mallory authenticates as herself but submits a request claiming the
	// honest prover's DID.
	ch, err := w.BeginAuth(mallory.DID)
	if err != nil {
		t.Fatal(err)
	}
	resp := did.SignChallenge(mallory.Key, ch)
	nonce := w.IssueNonce(honest.DID)
	req := ProofRequest{DID: honest.DID, OLC: mustOLC(t, mallory), Nonce: nonce, CID: "bafy", Wallet: [20]byte{1}}
	if _, err := w.HandleProofRequest(mallory.Device, resp, req); err == nil {
		t.Fatal("witness certified a DID the requester did not authenticate as")
	}
}

func mustOLC(t *testing.T, p *Prover) string {
	t.Helper()
	code, err := p.ClaimedOLC()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestWitnessRejectsBadOLCClaim(t *testing.T) {
	sys := newTestSystem(t)
	w, err := NewWitness(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := w.BeginAuth(p.DID)
	if err != nil {
		t.Fatal(err)
	}
	resp := did.SignChallenge(p.Key, ch)
	nonce := w.IssueNonce(p.DID)
	req := ProofRequest{DID: p.DID, OLC: "garbage", Nonce: nonce, CID: "bafy", Wallet: [20]byte{1}}
	if _, err := w.HandleProofRequest(p.Device, resp, req); err == nil {
		t.Fatal("malformed OLC accepted")
	}
}

func TestProofVerifyDetectsTampering(t *testing.T) {
	sys := newTestSystem(t)
	w, err := NewWitness(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	cid, err := p.UploadReport(Report{Title: "x", Category: "env"})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := p.RequestProof(w, cid, [20]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.verifyProof(proof); err != nil {
		t.Fatal(err)
	}
	tampered := *proof
	tampered.Request.CID = ipfs.CID("bafy-other")
	if err := sys.verifyProof(&tampered); err == nil {
		t.Fatal("hash/request mismatch not detected")
	}
	tampered2 := *proof
	tampered2.Signature = append([]byte(nil), proof.Signature...)
	tampered2.Signature[0] ^= 1
	if err := sys.verifyProof(&tampered2); err == nil {
		t.Fatal("signature tampering not detected")
	}
}
