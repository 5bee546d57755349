package did

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"agnopol/internal/polcrypto"
)

// valid reports whether d has the did:agno:<64 hex> shape New promises.
func valid(d DID) bool {
	parts := strings.SplitN(string(d), ":", 3)
	if len(parts) != 3 || parts[0] != "did" || parts[1] != Method || len(parts[2]) != 64 {
		return false
	}
	_, err := hex.DecodeString(parts[2])
	return err == nil
}

type detRand struct{ state uint64 }

func (r *detRand) Read(p []byte) (int, error) {
	for i := range p {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.state >> 56)
	}
	return len(p), nil
}

func newKP(t *testing.T, seed uint64) *polcrypto.KeyPair {
	t.Helper()
	return polcrypto.MustGenerateKeyPair(&detRand{state: seed})
}

func TestRegisterAndResolve(t *testing.T) {
	reg := NewRegistry()
	kp := newKP(t, 1)
	d, err := reg.Register(kp.Public, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !valid(d) {
		t.Fatalf("generated DID %q is not valid", d)
	}
	doc, err := reg.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != d || doc.Controller != d {
		t.Fatalf("doc = %+v", doc)
	}
	key, err := doc.AuthenticationKey()
	if err != nil {
		t.Fatal(err)
	}
	if string(key) != string(kp.Public) {
		t.Fatal("authentication key does not match controller key")
	}
}

func TestDuplicateRegistration(t *testing.T) {
	reg := NewRegistry()
	kp := newKP(t, 2)
	if _, err := reg.Register(kp.Public, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(kp.Public, 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestResolveUnknown(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Resolve("did:agno:" + "ab"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDIDValidation(t *testing.T) {
	kp := newKP(t, 3)
	if d := New(kp.Public); !valid(d) {
		t.Fatalf("New produced invalid DID %q", d)
	}
	bad := []DID{"", "did:agno", "did:other:" + New(kp.Public)[9:], "did:agno:xyz", "did:agno:zz" + New(kp.Public)[11:]}
	for _, d := range bad {
		if valid(d) {
			t.Errorf("Valid(%q) = true", d)
		}
	}
}

func TestUint64IsStable(t *testing.T) {
	kp := newKP(t, 4)
	d := New(kp.Public)
	if d.Uint64() != d.Uint64() {
		t.Fatal("Uint64 not deterministic")
	}
	other := New(newKP(t, 5).Public)
	if d.Uint64() == other.Uint64() {
		t.Fatal("two DIDs compressed to the same UInt")
	}
}

func TestChallengeResponseFlow(t *testing.T) {
	reg := NewRegistry()
	rng := &detRand{state: 9}
	auth := NewAuthenticator(reg, rng)
	holder := newKP(t, 10)
	d, err := reg.Register(holder.Public, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := auth.NewChallenge(d)
	if err != nil {
		t.Fatal(err)
	}
	resp := SignChallenge(holder, ch)
	if err := auth.VerifyResponse(resp); err != nil {
		t.Fatalf("honest response rejected: %v", err)
	}

	// A different key cannot answer.
	imposter := newKP(t, 11)
	forged := SignChallenge(imposter, ch)
	if err := auth.VerifyResponse(forged); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("imposter response: err = %v, want ErrAuthFailed", err)
	}

	// Challenges for unregistered DIDs fail fast.
	unregistered := New(newKP(t, 999).Public)
	if _, err := auth.NewChallenge(unregistered); err == nil {
		t.Fatal("challenge for unregistered DID accepted")
	}
}

func TestChallengeResponseBoundToDID(t *testing.T) {
	reg := NewRegistry()
	auth := NewAuthenticator(reg, &detRand{state: 12})
	alice := newKP(t, 13)
	bob := newKP(t, 14)
	aliceDID, err := reg.Register(alice.Public, 0)
	if err != nil {
		t.Fatal(err)
	}
	bobDID, err := reg.Register(bob.Public, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := auth.NewChallenge(aliceDID)
	if err != nil {
		t.Fatal(err)
	}
	// Bob answers Alice's challenge with his own key but swaps the DID —
	// the response must not verify for Bob's DID either.
	resp := SignChallenge(bob, Challenge{DID: bobDID, Nonce: ch.Nonce})
	if err := auth.VerifyResponse(resp); err != nil {
		// Bob signing his own challenge-shaped message is fine for HIS
		// DID; the protocol binding happens at the witness which
		// matches challenge.DID against the request DID — covered in
		// core. Here we assert the signature itself verifies only under
		// the right DID.
		t.Fatalf("response under bob's own DID should verify: %v", err)
	}
	cross := ChallengeResponse{Challenge: ch, Signature: resp.Signature}
	if err := auth.VerifyResponse(cross); err == nil {
		t.Fatal("bob's signature accepted for alice's challenge")
	}
}
