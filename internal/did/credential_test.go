package did

import (
	"errors"
	"testing"

	"agnopol/internal/polcrypto"
)

func credentialFixture(t *testing.T) (*Registry, *Credential, DID, DID, issuerHolderKeys) {
	t.Helper()
	reg := NewRegistry()
	issuerKey := newKP(t, 100)
	holderKey := newKP(t, 101)
	issuer, err := reg.Register(issuerKey.Public, 0)
	if err != nil {
		t.Fatal(err)
	}
	holder, err := reg.Register(holderKey.Public, 0)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := IssueCredential(issuerKey, issuer, holder, "WitnessCredential",
		map[string]string{"role": "witness", "area": "8FPHF8VV+X2"}, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return reg, cred, issuer, holder, issuerHolderKeys{issuerKey, holderKey}
}

type issuerHolderKeys struct {
	issuer, holder *polcrypto.KeyPair
}

func TestCredentialIssueAndVerify(t *testing.T) {
	reg, cred, issuer, holder, _ := credentialFixture(t)
	if err := VerifyCredential(reg, cred, 500); err != nil {
		t.Fatalf("honest credential rejected: %v", err)
	}
	if cred.Issuer != issuer || cred.Subject != holder {
		t.Fatal("credential parties wrong")
	}
}

func TestCredentialExpiry(t *testing.T) {
	reg, cred, _, _, _ := credentialFixture(t)
	if err := VerifyCredential(reg, cred, 1000); !errors.Is(err, ErrCredentialExpired) {
		t.Fatalf("err = %v, want expired", err)
	}
}

func TestCredentialTamperDetected(t *testing.T) {
	reg, cred, _, _, _ := credentialFixture(t)
	cred.Claims["role"] = "verifier" // privilege escalation attempt
	if err := VerifyCredential(reg, cred, 500); !errors.Is(err, ErrCredentialForged) {
		t.Fatalf("err = %v, want forged", err)
	}
}

func TestCredentialFromUnregisteredIssuer(t *testing.T) {
	reg := NewRegistry()
	rogueKey := newKP(t, 102)
	holderKey := newKP(t, 103)
	holder, err := reg.Register(holderKey.Public, 0)
	if err != nil {
		t.Fatal(err)
	}
	rogue := New(rogueKey.Public) // never registered
	cred, err := IssueCredential(rogueKey, rogue, holder, "X", nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCredential(reg, cred, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want issuer not found", err)
	}
}

func TestPresentationBindsHolder(t *testing.T) {
	reg, cred, _, _, keys := credentialFixture(t)
	var nonce [32]byte
	nonce[0] = 7

	p := Present(keys.holder, cred, nonce)
	if err := VerifyPresentation(reg, p, 500); err != nil {
		t.Fatalf("honest presentation rejected: %v", err)
	}

	// A thief presenting a stolen credential cannot produce the holder
	// proof.
	thiefKey := newKP(t, 104)
	stolen := Present(thiefKey, cred, nonce)
	if err := VerifyPresentation(reg, stolen, 500); !errors.Is(err, ErrWrongSubject) {
		t.Fatalf("err = %v, want wrong subject", err)
	}

	// Replaying a presentation under a different nonce fails.
	var nonce2 [32]byte
	nonce2[0] = 8
	replay := &Presentation{Credential: cred, Nonce: nonce2, HolderSig: p.HolderSig}
	if err := VerifyPresentation(reg, replay, 500); err == nil {
		t.Fatal("nonce-replayed presentation accepted")
	}
}
