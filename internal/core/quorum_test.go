package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"agnopol/internal/eth"
	"agnopol/internal/faults"
	"agnopol/internal/geo"
	"agnopol/internal/ipfs"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// quorumSetup builds a system with one prover and n witnesses around the
// same spot, on a Goerli connector.
func quorumSetup(t *testing.T, n int) (*System, Connector, *Prover, *Verifier, []*Witness) {
	t.Helper()
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 41))
	sys, prover, verifier, witnesses := quorumWorld(t, conn, n)
	return sys, conn, prover, verifier, witnesses
}

// quorumWorld is quorumSetup on a given connector.
func quorumWorld(t *testing.T, conn Connector, n int) (*System, *Prover, *Verifier, []*Witness) {
	t.Helper()
	sys := newTestSystem(t)
	prover, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prover.EnsureAccount(conn, 10); err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifier.EnsureAccount(conn, 10); err != nil {
		t.Fatal(err)
	}
	var witnesses []*Witness
	for i := 0; i < n; i++ {
		w, err := NewWitness(sys, geo.Offset(bologna, float64(i), float64(-i)))
		if err != nil {
			t.Fatal(err)
		}
		witnesses = append(witnesses, w)
	}
	return sys, prover, verifier, witnesses
}

func TestQuorumHappyPath(t *testing.T) {
	sys, conn, prover, verifier, witnesses := quorumSetup(t, 3)
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Proofs) != 3 {
		t.Fatalf("bundle size %d", len(bundle.Proofs))
	}
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifier.FundContract(conn, sub.Handle, rewardFor(conn)); err != nil {
		t.Fatal(err)
	}
	before := conn.Balance(acct).Base.Uint64()
	ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ver.Accepted {
		t.Fatalf("quorum verification rejected: %s", ver.Reason)
	}
	if got := conn.Balance(acct).Base.Uint64() - before; got != rewardFor(conn) {
		t.Fatalf("reward %d", got)
	}
	// The report CID reached the hypercube.
	code, _ := prover.ClaimedOLC()
	target, err := sys.NodeIDForOLC(code)
	if err != nil {
		t.Fatal(err)
	}
	entry, _, ok, err := sys.Cube.Get(0, target, code)
	if err != nil || !ok || len(entry.CIDs) != 1 {
		t.Fatalf("hypercube entry: ok=%v err=%v", ok, err)
	}
}

// TestQuorumWireFormatPinned pins what one seeded q = 3 claim writes: the
// bundle's IPFS CID (and with it the bundle bytes) and the exact on-chain
// record. A change to either constant is a change of the quorum wire format.
func TestQuorumWireFormatPinned(t *testing.T) {
	const (
		wantCID    = "bafy3da84e3c923e03928c3699cd63ea88236c6abc33e80a059c4c6f251aa115edc3"
		wantRecord = "Q-3da84e3c923e03928c3699cd63ea88236c6abc33e80a059c4c6f251aa115edc3-" + wantCID
	)
	_, conn, prover, _, witnesses := quorumSetup(t, 3)
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	raw, ok, err := conn.ReadMap(sub.Handle, EasyMapName, prover.DID.Uint64())
	if err != nil || !ok {
		t.Fatalf("record missing: ok=%v err=%v", ok, err)
	}
	bundleCID, _, err := parseQuorumConcat(raw.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if string(bundleCID) != wantCID {
		t.Errorf("bundle CID %s, want %s", bundleCID, wantCID)
	}
	if string(raw.Bytes) != wantRecord {
		t.Errorf("on-chain record\n %s\nwant\n %s", raw.Bytes, wantRecord)
	}
}

// TestQuorumOnPipelineInstruments: a quorum claim is staged and settled by
// the proof pipeline, so the pipeline's instruments see it — its deploy is
// counted and reports the retries it took, and a rejection and an
// acceptance are each counted in core_verifications_total under a
// pol.verify span.
func TestQuorumOnPipelineInstruments(t *testing.T) {
	ch := eth.NewChain(eth.Goerli(), 41)
	conn := NewEVMConnector(ch)
	sys, prover, verifier, witnesses := quorumWorld(t, conn, 3)
	o := obs.New()
	sys.Instrument(o)
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}

	// The mempool drops the next two transactions; the deploy retries
	// through both.
	ch.SetFaults(faults.NewInjector(&faults.Plan{
		Rates: map[string]float64{faults.ClassTxDrop: 1}, Burst: 2,
	}, 7, nil))
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Deployed || sub.Op.Retries != 2 {
		t.Errorf("deployed=%v retries=%d, want a deploy that retried twice", sub.Deployed, sub.Op.Retries)
	}
	if got := o.Registry.Counter("core_contracts_deployed_total").Value(); got != 1 {
		t.Errorf("core_contracts_deployed_total = %d, want 1", got)
	}

	if _, err := verifier.FundContract(conn, sub.Handle, rewardFor(conn)); err != nil {
		t.Fatal(err)
	}
	if ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, 4); err != nil || ver.Accepted {
		t.Fatalf("3 witnesses against a 4-quorum: err=%v", err)
	}
	if ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, 3); err != nil || !ver.Accepted {
		t.Fatalf("3 witnesses against a 3-quorum rejected: err=%v", err)
	}
	for _, result := range []string{"accepted", "rejected"} {
		if got := o.Registry.Counter("core_verifications_total", obs.L("result", result)).Value(); got != 1 {
			t.Errorf("core_verifications_total{result=%q} = %d, want 1", result, got)
		}
	}
	spans := 0
	for _, sp := range o.Tracer.Spans() {
		if sp.Name == "pol.verify" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("%d pol.verify spans, want one per verification (2)", spans)
	}
}

// FuzzParseQuorumConcat: parseQuorumConcat accepts only what quorumConcat
// writes — whatever parses re-encodes to exactly its input, and everything
// else is refused as ErrNotQuorumRecord.
func FuzzParseQuorumConcat(f *testing.F) {
	hash := polcrypto.Hash([]byte("bundle"))
	lower := hex.EncodeToString(hash[:])
	f.Add(quorumConcat("bafy"+ipfs.CID(lower), hash))
	f.Add(quorumConcat("", hash))
	f.Add([]byte("Q-" + strings.ToUpper(lower) + "-bafy" + lower))
	f.Add([]byte("Q-" + lower[:62] + "-bafy"))
	f.Add([]byte("Q-" + lower))
	f.Add([]byte("q-" + lower + "-bafy-x"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cid, hash, err := parseQuorumConcat(data)
		if err != nil {
			if !errors.Is(err, ErrNotQuorumRecord) {
				t.Fatalf("refusal %v is not ErrNotQuorumRecord", err)
			}
			return
		}
		if got := quorumConcat(cid, hash); !bytes.Equal(got, data) {
			t.Fatalf("%q parsed, but re-encodes to %q", data, got)
		}
	})
}

func TestQuorumTooFewWitnesses(t *testing.T) {
	_, conn, prover, verifier, witnesses := quorumSetup(t, 2)
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Accepted {
		t.Fatal("2 witnesses satisfied a 3-quorum")
	}
	if !strings.Contains(ver.Reason, ErrQuorumTooSmall.Error()) {
		t.Fatalf("reason %q", ver.Reason)
	}
}

func TestQuorumDuplicateWitnessCountsOnce(t *testing.T) {
	_, conn, prover, verifier, witnesses := quorumSetup(t, 1)
	w := witnesses[0]
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	// Three proofs from the SAME witness (fresh nonce each time).
	bundle, err := prover.RequestProofQuorum([]*Witness{w, w, w}, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Accepted {
		t.Fatal("one witness repeated three times satisfied a 2-quorum")
	}
}

func TestQuorumSelfSignedEntriesExcluded(t *testing.T) {
	sys, conn, prover, verifier, witnesses := quorumSetup(t, 1)
	// The prover registers as a witness and pads its bundle with
	// self-signed proofs; only the genuine witness may count.
	sys.CA.RegisterWitness(prover.Key.Public)
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		req := bundle.Proofs[0].Request
		req.Nonce += uint64(100 + i)
		h := req.Hash()
		bundle.Proofs = append(bundle.Proofs, &LocationProof{
			Request:    req,
			Hash:       h,
			Signature:  prover.Key.Sign(h[:]),
			WitnessPub: prover.Key.Public,
		})
	}
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Accepted {
		t.Fatal("self-signed padding satisfied the quorum")
	}
}

func TestQuorumBundleTamperDetected(t *testing.T) {
	sys, conn, prover, verifier, witnesses := quorumSetup(t, 3)
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	// A different bundle under a different CID cannot match the on-chain
	// hash, and the original stays content-addressed — so simulate
	// tampering by losing every copy of the bundle.
	raw, ok, err := conn.ReadMap(sub.Handle, EasyMapName, prover.DID.Uint64())
	if err != nil || !ok {
		t.Fatal("record missing")
	}
	if _, _, err := parseQuorumConcat(raw.Bytes); err != nil {
		t.Fatal(err)
	}
	sys.IPFS = ipfs.NewNetwork()
	ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Accepted {
		t.Fatal("verification accepted with the bundle gone")
	}
}

func TestQuorumRecordRejectedByPlainVerifier(t *testing.T) {
	// A plain (v1) verification of a quorum record must fail cleanly: the
	// record does not parse as a 5-field concatenation.
	_, conn, prover, verifier, witnesses := quorumSetup(t, 2)
	cid, err := prover.UploadReport(Report{Title: "q", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	acct, _ := prover.Account(conn)
	bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := prover.SubmitProofQuorum(conn, bundle, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := verifier.VerifyProver(conn, sub.Handle, prover.DID)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Accepted {
		t.Fatal("plain verifier accepted a quorum record")
	}
}

func TestDiscovery(t *testing.T) {
	sys := newTestSystem(t)
	near1, err := NewWitness(sys, geo.Offset(bologna, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	near2, err := NewWitness(sys, geo.Offset(bologna, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWitness(sys, geo.Offset(bologna, 400, 0)); err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	got := prover.DiscoverWitnesses()
	if len(got) != 2 {
		t.Fatalf("discovered %d witnesses, want 2", len(got))
	}
	// Sorted closest first.
	if got[0] != near1 || got[1] != near2 {
		t.Fatal("discovery not distance-ordered")
	}
	// A spoofing prover scans from where it really is.
	prover.Device.ClaimedPosition = geo.Offset(bologna, 5000, 0)
	if len(prover.DiscoverWitnesses()) != 2 {
		t.Fatal("spoofed claim changed the physical scan result")
	}
}
