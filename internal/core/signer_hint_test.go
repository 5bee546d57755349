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
	c := eth.NewChain(eth.Goerli(), seed)
	w := &hintWorld{sys: sys, obs: obs.New(), conn: NewEVMConnector(c)}
	sys.Instrument(w.obs)
	c.Instrument(&obs.Obs{Registry: w.obs.Registry}) // eth_txs_submitted_total: one admission verification each
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
// certificate check still in the cache, accepting a proof costs no real
// verification at all — however many witnesses the CA lists. The check
// under the prover's own key runs only to name a rejection.
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
			if real != 0 {
				t.Fatalf("accept path ran %d real verifications, want none", real)
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
			// Every padding key + the witness itself; the prover's own key
			// is never tried once a witness has opened the signature.
			if real != caKeys {
				t.Fatalf("cold scan ran %d real verifications, want %d", real, caKeys)
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
		{"prover-signed, prover CA-registered, cold cache", func(t *testing.T, w *hintWorld, p *LocationProof) {
			w.sys.CA.RegisterWitness(w.prover.Key.Public)
			p.WitnessPub = w.prover.Key.Public
			p.Signature = w.prover.Key.Sign(p.Hash[:])
			w.sys.sigs = polcrypto.NewSigCache(defaultSigCacheSize) // the scan must pass the prover's key over
		}, ErrSelfSigned},
		{"prover-signed, prover not registered", func(t *testing.T, w *hintWorld, p *LocationProof) {
			p.WitnessPub = w.prover.Key.Public
			p.Signature = w.prover.Key.Sign(p.Hash[:])
		}, ErrSelfSigned},
		{"unregistered third key", func(t *testing.T, w *hintWorld, p *LocationProof) {
			rogue := polcrypto.MustGenerateKeyPair(w.sys.Rand.Fork("rogue"))
			p.WitnessPub = rogue.Public
			p.Signature = rogue.Sign(p.Hash[:])
		}, ErrUnknownWitness},
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

// TestRejectedProofsLeaveNoVerdict: a proof no registered witness signed
// is checked under every CA key and then under the prover's own, and none
// of those verdicts is read again, so none may stay in the memo.
func TestRejectedProofsLeaveNoVerdict(t *testing.T) {
	for name, tamper := range map[string]func(w *hintWorld, p *LocationProof){
		"forged signature": func(w *hintWorld, p *LocationProof) {
			p.Signature = append([]byte(nil), p.Signature...)
			p.Signature[5] ^= 0x01
		},
		"prover-signed": func(w *hintWorld, p *LocationProof) {
			p.WitnessPub = w.prover.Key.Public
			p.Signature = w.prover.Key.Sign(p.Hash[:])
		},
	} {
		t.Run(name, func(t *testing.T) {
			w := newHintWorld(t, 65, 8)
			proof := w.witnessedProof(t)
			tamper(w, proof)
			res, err := w.prover.SubmitProof(w.conn, proof, rewardFor(w.conn))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.verifier.FundContract(w.conn, res.Handle, rewardFor(w.conn)); err != nil {
				t.Fatal(err)
			}
			before := w.sys.sigs.Len()
			ver, err := w.verifier.VerifyProver(w.conn, res.Handle, w.prover.DID)
			if err != nil {
				t.Fatal(err)
			}
			if ver.Accepted {
				t.Fatal("a proof no witness signed was accepted")
			}
			if after := w.sys.sigs.Len(); after != before {
				t.Fatalf("rejecting the proof left %d verdicts in the memo, %d before", after, before)
			}
		})
	}
}

// TestRealVerificationsPerAcceptedProof states what one accepted proof costs
// in ed25519 verifications, phase by phase, and that nothing is verified
// twice. Three places verify: did.Authenticator.VerifyResponse (the
// challenge response; never cached, its nonce is fresh per exchange), the
// system's signature cache (a miss is a real verification), and the chain's
// pool, once per transaction it admits. So a proof costs 1 + 1 + one per
// submitted transaction: the certificate is checked for real once, by the
// prover on receipt, and the verifier's witness lookup is answered from
// that verdict.
func TestRealVerificationsPerAcceptedProof(t *testing.T) {
	w := newHintWorld(t, 66, 64)
	admitted := w.obs.Registry.Counter("eth_txs_submitted_total", obs.L("chain", eth.Goerli().Name))
	var proof *LocationProof
	var handle *Handle
	for _, phase := range []struct {
		name string
		run  func() error
		// real and cached are the system cache's misses and hits; txs is
		// how many transactions the pool verified and admitted.
		real, cached, txs uint64
	}{
		{"RequestProof: challenge response (uncounted here) + certificate", func() error {
			proof = w.witnessedProof(t)
			return nil
		}, 1, 0, 0},
		{"SubmitProof: deploy + insert_data", func() error {
			res, err := w.prover.SubmitProof(w.conn, proof, rewardFor(w.conn))
			if err == nil {
				handle = res.Handle
			}
			return err
		}, 0, 0, 2},
		{"FundContract: insert_money", func() error {
			_, err := w.verifier.FundContract(w.conn, handle, rewardFor(w.conn))
			return err
		}, 0, 0, 1},
		{"VerifyProver: hinted witness lookup + verify", func() error {
			ver, err := w.verifier.VerifyProver(w.conn, handle, w.prover.DID)
			if err == nil && !ver.Accepted {
				err = fmt.Errorf("honest proof rejected: %s", ver.Reason)
			}
			return err
		}, 0, 1, 1},
	} {
		hits0, misses0 := sigCacheCounters(t, w.obs)
		txs0 := admitted.Value()
		if err := phase.run(); err != nil {
			t.Fatalf("%s: %v", phase.name, err)
		}
		hits1, misses1 := sigCacheCounters(t, w.obs)
		if real, cached, txs := misses1-misses0, hits1-hits0, admitted.Value()-txs0; real != phase.real || cached != phase.cached || txs != phase.txs {
			t.Errorf("%s: %d real + %d cached verifications, %d transactions; want %d + %d, %d",
				phase.name, real, cached, txs, phase.real, phase.cached, phase.txs)
		}
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

// TestMemoEmptyOnceEveryProofIsSettled follows sim.Execute: every proof is
// collected (certificate checked, staged on chain) before any is verified.
// The certificate verdicts must survive the whole collection phase, so the
// verification phase runs no real verification, and each is forgotten once
// its proof is accepted, so the settled system keeps none of them.
func TestMemoEmptyOnceEveryProofIsSettled(t *testing.T) {
	const areas = 16
	sys, err := NewSystem(67)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	sys.Instrument(o)
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 67))
	verifier, err := NewVerifier(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifier.EnsureAccount(conn, 100); err != nil {
		t.Fatal(err)
	}
	// One witness per area, 200 m apart: out of each other's range, and
	// each area's provers stand where its witness does.
	var witnesses []*Witness
	var provers []*Prover
	for g := 0; g < areas; g++ {
		at := geo.Offset(bologna, 0, 200*float64(g))
		w, err := NewWitness(sys, at)
		if err != nil {
			t.Fatal(err)
		}
		witnesses = append(witnesses, w)
		for k := 0; k < MaxUsers; k++ {
			p, err := NewProver(sys, at)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.EnsureAccount(conn, 10); err != nil {
				t.Fatal(err)
			}
			provers = append(provers, p)
		}
	}
	// Collection: every area's deployer first, then the attachers.
	var order []int
	for u := 0; u < len(provers); u += MaxUsers {
		order = append(order, u)
	}
	for u := range provers {
		if u%MaxUsers != 0 {
			order = append(order, u)
		}
	}
	handles := make([]*Handle, len(provers))
	for _, u := range order {
		p := provers[u]
		cid, err := p.UploadReport(Report{Title: fmt.Sprint("report-", u), Category: "noise"})
		if err != nil {
			t.Fatal(err)
		}
		acct, _ := p.Account(conn)
		proof, err := p.RequestProof(witnesses[u/MaxUsers], cid, acct.Address())
		if err != nil {
			t.Fatal(err)
		}
		sub, err := p.SubmitProof(conn, proof, rewardFor(conn))
		if err != nil {
			t.Fatal(err)
		}
		handles[u] = sub.Handle
	}
	if n := sys.sigs.Len(); n != len(provers) {
		t.Fatalf("after collection the memo holds %d verdicts, want one per proof (%d)", n, len(provers))
	}
	for u := 0; u < len(provers); u += MaxUsers {
		if _, err := verifier.FundContract(conn, handles[u], MaxUsers*rewardFor(conn)); err != nil {
			t.Fatal(err)
		}
	}
	// Verification, in user order.
	_, before := sigCacheCounters(t, o)
	for u, p := range provers {
		ver, err := verifier.VerifyProver(conn, handles[u], p.DID)
		if err != nil {
			t.Fatal(err)
		}
		if !ver.Accepted {
			t.Fatalf("user %d rejected: %s", u, ver.Reason)
		}
	}
	if _, after := sigCacheCounters(t, o); after != before {
		t.Errorf("verification phase ran %d real verifications, want none", after-before)
	}
	if n := sys.sigs.Len(); n != 0 {
		t.Errorf("the settled system's memo holds %d verdicts, want none", n)
	}
}
