package core

import (
	"bytes"
	"fmt"
	"testing"

	"agnopol/internal/eth"
	"agnopol/internal/geo"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// hintWorld is one prover, one live witness and one verifier on Goerli with
// a CA list padded to a chosen length. The live witness registers last, so
// a full scan of the list is as expensive as it gets.
type hintWorld struct {
	sys      *System
	obs      *obs.Obs
	conn     Connector
	verifier *Verifier
	witness  *Witness
	prover   *Prover
}

func newHintWorld(t *testing.T, seed uint64, caKeys int) *hintWorld {
	t.Helper()
	sys, err := NewSystem(seed)
	if err != nil {
		t.Fatal(err)
	}
	w := &hintWorld{sys: sys, obs: obs.New(), conn: NewEVMConnector(eth.NewChain(eth.Goerli(), seed))}
	sys.Instrument(w.obs)
	pad := sys.Rand.Fork("ca-padding")
	for i := 1; i < caKeys; i++ {
		sys.CA.RegisterWitness(polcrypto.MustGenerateKeyPair(pad).Public)
	}
	if w.witness, err = NewWitness(sys, geo.Offset(bologna, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if w.verifier, err = NewVerifier(sys); err != nil {
		t.Fatal(err)
	}
	if _, err := w.verifier.EnsureAccount(w.conn, 10); err != nil {
		t.Fatal(err)
	}
	if w.prover, err = NewProver(sys, bologna); err != nil {
		t.Fatal(err)
	}
	if _, err := w.prover.EnsureAccount(w.conn, 10); err != nil {
		t.Fatal(err)
	}
	return w
}

// witnessedProof runs the honest exchange up to the signed certificate.
func (w *hintWorld) witnessedProof(t *testing.T) *LocationProof {
	t.Helper()
	cid, err := w.prover.UploadReport(Report{Title: "spill", Category: "water-pollution"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := w.prover.Account(w.conn)
	proof, err := w.prover.RequestProof(w.witness, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	return proof
}

// verify stages the proof on-chain, funds the reward and runs the verifier,
// returning its verdict and how many real ed25519 verifications (signature
// cache misses) VerifyProver itself performed.
func (w *hintWorld) verify(t *testing.T, proof *LocationProof) (*Verification, uint64) {
	t.Helper()
	res, err := w.prover.SubmitProof(w.conn, proof, rewardFor(w.conn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.verifier.FundContract(w.conn, res.Handle, rewardFor(w.conn)); err != nil {
		t.Fatal(err)
	}
	_, before := sigCacheCounters(t, w.obs)
	ver, err := w.verifier.VerifyProver(w.conn, res.Handle, w.prover.DID)
	if err != nil {
		t.Fatal(err)
	}
	_, after := sigCacheCounters(t, w.obs)
	return ver, after - before
}

// TestVerifyProverAcceptPathIsConstantInWitnessCount: with the prover's
// certificate check still in the cache, accepting a proof costs the
// self-signing check plus at most one more real verification — however many
// witnesses the CA lists.
func TestVerifyProverAcceptPathIsConstantInWitnessCount(t *testing.T) {
	for _, caKeys := range []int{8, 64, 512} {
		t.Run(fmt.Sprint(caKeys), func(t *testing.T) {
			w := newHintWorld(t, 61, caKeys)
			if got := len(w.sys.CA.WitnessList()); got != caKeys {
				t.Fatalf("CA lists %d keys, want %d", got, caKeys)
			}
			ver, real := w.verify(t, w.witnessedProof(t))
			if !ver.Accepted {
				t.Fatalf("honest proof rejected: %s", ver.Reason)
			}
			if real > 2 {
				t.Fatalf("accept path ran %d real verifications, want at most 2", real)
			}
		})
	}
}

// TestVerifyProverColdCacheAcceptsThroughScan: the hint is an accelerator
// only — a verifier whose cache never saw the certificate (a fresh one, or
// one too small to have kept it) still finds the witness by scanning.
func TestVerifyProverColdCacheAcceptsThroughScan(t *testing.T) {
	const caKeys = 8
	for name, capacity := range map[string]int{"fresh": defaultSigCacheSize, "evicting": 1} {
		t.Run(name, func(t *testing.T) {
			w := newHintWorld(t, 62, caKeys)
			proof := w.witnessedProof(t)
			w.sys.sigs = polcrypto.NewSigCache(capacity)
			ver, real := w.verify(t, proof)
			if !ver.Accepted {
				t.Fatalf("honest proof rejected on a cold cache: %s", ver.Reason)
			}
			// Self-signing check + every padding key + the witness itself.
			if real != caKeys+1 {
				t.Fatalf("cold scan ran %d real verifications, want %d", real, caKeys+1)
			}
		})
	}
}

// TestSignerHintMustBeARegisteredWitnessOtherThanTheProver: a cached
// positive verdict does not widen who may sign. A signature by a key the CA
// never registered is rejected although the cache names its signer, and the
// prover's own key is passed over even when the CA lists it.
func TestSignerHintMustBeARegisteredWitnessOtherThanTheProver(t *testing.T) {
	w := newHintWorld(t, 63, 8)
	proof := w.witnessedProof(t)

	rogue := polcrypto.MustGenerateKeyPair(w.sys.Rand.Fork("rogue"))
	proof.WitnessPub = rogue.Public
	proof.Signature = rogue.Sign(proof.Hash[:])
	if err := w.sys.verifyProof(proof); err != nil {
		t.Fatal(err)
	}
	if pub, ok := w.sys.sigs.Signer(proof.Hash[:], proof.Signature); !ok || !bytes.Equal(pub, rogue.Public) {
		t.Fatal("set-up: cache does not name the rogue key")
	}
	ver, _ := w.verify(t, proof)
	if ver.Accepted || ver.Reason != ErrUnknownWitness.Error() {
		t.Fatalf("unregistered signer: accepted=%v reason=%q, want %q", ver.Accepted, ver.Reason, ErrUnknownWitness)
	}

	self := w.prover.Key
	w.sys.CA.RegisterWitness(self.Public)
	hash := polcrypto.Hash([]byte("self-issued"))
	sig := self.Sign(hash[:])
	if !w.sys.verifySig(self.Public, hash[:], sig) {
		t.Fatal("set-up: own signature does not verify")
	}
	if w.sys.witnessSigned(self.Public, hash[:], sig) {
		t.Fatal("prover's own key accepted as the signing witness")
	}
}

// TestVerifyProverRejectionReasonsUnchanged: the checks around the witness
// lookup reject what they rejected before the hint existed, for the same
// reasons, with the cache warm.
func TestVerifyProverRejectionReasonsUnchanged(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, w *hintWorld, p *LocationProof)
		want   error
	}{
		{"forged signature", func(t *testing.T, w *hintWorld, p *LocationProof) {
			p.Signature = append([]byte(nil), p.Signature...)
			p.Signature[5] ^= 0x01
		}, ErrUnknownWitness},
		{"prover-signed", func(t *testing.T, w *hintWorld, p *LocationProof) {
			w.sys.CA.RegisterWitness(w.prover.Key.Public)
			p.WitnessPub = w.prover.Key.Public
			p.Signature = w.prover.Key.Sign(p.Hash[:])
			if err := w.sys.verifyProof(p); err != nil { // warm: the hint names the prover
				t.Fatal(err)
			}
		}, ErrSelfSigned},
		{"flipped concat data", func(t *testing.T, w *hintWorld, p *LocationProof) {
			p.Request.Nonce ^= 1 // staged fields no longer hash to the signed value
		}, ErrHashMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newHintWorld(t, 64, 8)
			proof := w.witnessedProof(t)
			tc.tamper(t, w, proof)
			ver, _ := w.verify(t, proof)
			if ver.Accepted || ver.Reason != tc.want.Error() {
				t.Fatalf("accepted=%v reason=%q, want %q", ver.Accepted, ver.Reason, tc.want)
			}
		})
	}
}

// TestWitnessListKeepsRegistrationOrder: the list a verifier scans is in
// registration order, duplicates keep their first place, and so two systems
// built from one seed spend exactly the same cache hits and misses on the
// same proofs — on the scan path too, where the order decides the cost.
func TestWitnessListKeepsRegistrationOrder(t *testing.T) {
	ca := NewCertificationAuthority()
	var want [][]byte
	rng := newTestSystem(t).Rand.Fork("order")
	for i := 0; i < 40; i++ {
		pub := polcrypto.MustGenerateKeyPair(rng).Public
		ca.RegisterWitness(pub)
		want = append(want, pub)
	}
	ca.RegisterWitness(want[3])
	got := ca.WitnessList()
	if len(got) != len(want) {
		t.Fatalf("list has %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("position %d is not the %d-th registered key", i, i)
		}
	}

	counters := func() (hits, misses uint64) {
		w := newHintWorld(t, 65, 64)
		// More padding after the live witness puts it mid-list.
		pad := w.sys.Rand.Fork("more-padding")
		for i := 0; i < 32; i++ {
			w.sys.CA.RegisterWitness(polcrypto.MustGenerateKeyPair(pad).Public)
		}
		for i := 0; i < 3; i++ {
			proof := w.witnessedProof(t)
			w.sys.sigs = polcrypto.NewSigCache(defaultSigCacheSize) // force the scan
			if ver, _ := w.verify(t, proof); !ver.Accepted {
				t.Fatalf("proof %d rejected: %s", i, ver.Reason)
			}
		}
		return sigCacheCounters(t, w.obs)
	}
	h1, m1 := counters()
	h2, m2 := counters()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("same seed, different signature-cache counters: hit %d/%d miss %d/%d", h1, h2, m1, m2)
	}
}
