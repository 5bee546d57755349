package core

import (
	"strings"
	"testing"

	"agnopol/internal/algorand"
	"agnopol/internal/eth"
	"agnopol/internal/geo"
	"agnopol/internal/ipfs"
)

// bologna is the reference location of the thesis' examples.
var bologna = geo.LatLng{Lat: 44.4949, Lng: 11.3426}

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(42)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func connectors(t *testing.T) []Connector {
	t.Helper()
	return []Connector{
		NewEVMConnector(eth.NewChain(eth.Goerli(), 7)),
		NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), 7)),
	}
}

// rewardFor keeps rewards meaningful but affordable in each unit.
func rewardFor(c Connector) uint64 {
	if c.Unit().Name == "ALGO" {
		return 10_000 // 0.01 ALGO
	}
	return 1e15 // 0.001 ETH/MATIC
}

func TestFullPipelineBothChains(t *testing.T) {
	for _, conn := range connectors(t) {
		conn := conn
		t.Run(conn.Name(), func(t *testing.T) {
			sys := newTestSystem(t)
			witness, err := NewWitness(sys, geo.Offset(bologna, 3, 2))
			if err != nil {
				t.Fatal(err)
			}
			verifier, err := NewVerifier(sys)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := verifier.EnsureAccount(conn, 10); err != nil {
				t.Fatal(err)
			}

			reward := rewardFor(conn)

			// Creator prover deploys; a second prover attaches.
			creator, err := NewProver(sys, bologna)
			if err != nil {
				t.Fatal(err)
			}
			creatorAcct, err := creator.EnsureAccount(conn, 10)
			if err != nil {
				t.Fatal(err)
			}
			// The attacher stands at the same spot so both claims encode
			// to the same 10-digit OLC cell (the thesis simulation groups
			// four users per location for exactly this reason).
			attacher, err := NewProver(sys, bologna)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := attacher.EnsureAccount(conn, 10); err != nil {
				t.Fatal(err)
			}

			submit := func(p *Prover, title string) *SubmissionResult {
				t.Helper()
				cid, err := p.UploadReport(Report{
					Title:       title,
					Description: "oily spots on the river Reno",
					Category:    "water-pollution",
				})
				if err != nil {
					t.Fatal(err)
				}
				acct, _ := p.Account(conn)
				proof, err := p.RequestProof(witness, cid, acct.Address())
				if err != nil {
					t.Fatalf("RequestProof: %v", err)
				}
				res, err := p.SubmitProof(conn, proof, reward)
				if err != nil {
					t.Fatalf("SubmitProof: %v", err)
				}
				return res
			}

			res1 := submit(creator, "report-1")
			if !res1.Deployed {
				t.Fatal("first submission should deploy the contract")
			}
			if res1.Op.Latency <= 0 {
				t.Fatal("deploy latency must be positive")
			}
			res2 := submit(attacher, "report-2")
			if res2.Deployed {
				t.Fatal("second submission should attach, not deploy")
			}
			if res2.Handle.ID() != res1.Handle.ID() {
				t.Fatalf("attacher used %s, want %s", res2.Handle.ID(), res1.Handle.ID())
			}

			h := res1.Handle

			// Fund rewards for both provers.
			if _, err := verifier.FundContract(conn, h, 2*reward); err != nil {
				t.Fatalf("FundContract: %v", err)
			}
			if got := conn.ContractBalance(h); got != 2*reward {
				t.Fatalf("contract balance %d, want %d", got, 2*reward)
			}

			// Verify both provers; rewards must arrive; hypercube must
			// contain both CIDs afterwards.
			for _, p := range []*Prover{creator, attacher} {
				acct, _ := p.Account(conn)
				before := conn.Balance(acct).Base.Uint64()
				ver, err := verifier.VerifyProver(conn, h, p.DID)
				if err != nil {
					t.Fatalf("VerifyProver(%s): %v", p.DID, err)
				}
				if !ver.Accepted {
					t.Fatalf("verification of %s rejected: %s", p.DID, ver.Reason)
				}
				after := conn.Balance(acct).Base.Uint64()
				if after != before+reward {
					t.Fatalf("prover balance %d -> %d, want +%d reward", before, after, reward)
				}
				if ver.Report.Category != "water-pollution" {
					t.Fatalf("verified report category %q", ver.Report.Category)
				}
			}
			if got := conn.ContractBalance(h); got != 0 {
				t.Fatalf("contract balance after verifications %d, want 0", got)
			}

			// Double verification must fail: the map entry is gone.
			if _, err := verifier.VerifyProver(conn, h, creator.DID); err == nil {
				t.Fatal("verifying an already-verified prover should fail")
			}

			// The hypercube now serves both validated reports.
			code, _ := creator.ClaimedOLC()
			target, err := sys.NodeIDForOLC(code)
			if err != nil {
				t.Fatal(err)
			}
			entry, _, ok, err := sys.Cube.Get(0, target, code)
			if err != nil || !ok {
				t.Fatalf("hypercube entry missing: %v", err)
			}
			if len(entry.CIDs) != 2 {
				t.Fatalf("hypercube holds %d CIDs, want 2", len(entry.CIDs))
			}

			// Creator closes the (already empty) contract; a third party
			// cannot.
			if _, _, err := conn.Invoke(creatorAcct, h, "close", CallOpts{}); err != nil {
				t.Fatalf("creator close: %v", err)
			}
		})
	}
}

func TestCIDSubstitutionDetected(t *testing.T) {
	sys := newTestSystem(t)
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 10))
	verifier, err := NewVerifier(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifier.EnsureAccount(conn, 10); err != nil {
		t.Fatal(err)
	}
	witness, err := NewWitness(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(sys, geo.Offset(bologna, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	acct, err := prover.EnsureAccount(conn, 10)
	if err != nil {
		t.Fatal(err)
	}
	cid, err := prover.UploadReport(Report{Title: "honest", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := prover.RequestProof(witness, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	// After obtaining the proof the prover swaps in different content — a
	// new CID the witness never attested (§2.3.1.1).
	evil, err := sys.IPFS.Add(string(prover.DID), []byte(`{"title":"propaganda"}`))
	if err != nil {
		t.Fatal(err)
	}
	proof.Request.CID = evil
	res, err := prover.SubmitProof(conn, proof, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := verifier.VerifyProver(conn, res.Handle, prover.DID)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Accepted {
		t.Fatal("CID substitution must be rejected")
	}
	if ver.Reason != ErrHashMismatch.Error() {
		t.Fatalf("rejection reason %q, want hash mismatch", ver.Reason)
	}
}

func TestUnpinnedReportDisappearsBeforeVerification(t *testing.T) {
	sys := newTestSystem(t)
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 11))
	verifier, err := NewVerifier(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifier.EnsureAccount(conn, 10); err != nil {
		t.Fatal(err)
	}
	witness, err := NewWitness(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(sys, geo.Offset(bologna, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	acct, err := prover.EnsureAccount(conn, 10)
	if err != nil {
		t.Fatal(err)
	}
	cid, err := prover.UploadReport(Report{Title: "ephemeral", Category: "waste"})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := prover.RequestProof(witness, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prover.SubmitProof(conn, proof, rewardFor(conn)); err != nil {
		t.Fatal(err)
	}
	// Every copy of the report is lost (§1.5's availability caveat: content
	// nobody pins is garbage-collected) before the verifier gets to it.
	sys.IPFS = ipfs.NewNetwork()
	h, _, _, err := sys.LookupContract(0, proof.Request.OLC)
	if err != nil || h == nil {
		t.Fatalf("contract lookup failed: %v", err)
	}
	ver, err := verifier.VerifyProver(conn, h, prover.DID)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Accepted {
		t.Fatal("verification must fail when the report content is gone")
	}
	if !strings.Contains(ver.Reason, ipfs.ErrNotFound.Error()) {
		t.Fatalf("rejection reason %q, want content-not-found", ver.Reason)
	}
}
