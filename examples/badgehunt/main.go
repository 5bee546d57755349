// Badgehunt: the motivation of the paper's introduction, played out.
//
// A shop rewards users who check in nearby (the Foursquare badge /
// customer-loyalty scenario of §1.1). Three attackers try the classic
// exploits:
//
//  1. a GPS spoofer claims to be at the shop from across town — the witness
//     refuses to certify (Bluetooth says otherwise);
//
//  2. a replayer re-submits an old proof — the nonce check kills it;
//
//  3. two colluding remote peers mint a proof over the internet — it works
//     against the Brambilla-style baseline chain, which has no channel
//     binding, and fails against this system's witness-proximity check.
//
//     go run ./examples/badgehunt
package main

import (
	"fmt"
	"io"
	"os"

	"agnopol/internal/baseline"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/geo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole example: it takes no arguments and returns the exit
// status — 0, 1 for a run that fails, 2 for a stray argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(stderr, "usage: badgehunt")
		return 2
	}
	if err := hunt(stdout); err != nil {
		fmt.Fprintf(stderr, "badgehunt: %v\n", err)
		return 1
	}
	return 0
}

func hunt(stdout io.Writer) error {
	shop := geo.LatLng{Lat: 44.4938, Lng: 11.3387} // Piazza Maggiore
	home := geo.Offset(shop, 4200, -2600)          // across town

	sys, err := core.NewSystem(9)
	if err != nil {
		return err
	}
	conn := core.NewEVMConnector(eth.NewChain(eth.PolygonMumbai(), 9))
	verifier, err := core.NewVerifier(sys)
	if err != nil {
		return err
	}
	if _, err := verifier.EnsureAccount(conn, 50); err != nil {
		return err
	}
	witness, err := core.NewWitness(sys, shop) // the shop's own device
	if err != nil {
		return err
	}
	const reward = 1e15 // 0.001 MATIC coupon

	checkIn := func(name string, truePos geo.LatLng, claim *geo.LatLng) error {
		p, err := core.NewProver(sys, truePos)
		if err != nil {
			return err
		}
		if claim != nil {
			p.Device.Spoof(*claim)
		}
		acct, err := p.EnsureAccount(conn, 5)
		if err != nil {
			return err
		}
		cid, err := p.UploadReport(core.Report{Title: "check-in", Category: "loyalty"})
		if err != nil {
			return err
		}
		proof, err := p.RequestProof(witness, cid, acct.Address())
		if err != nil {
			fmt.Fprintf(stdout, "%-10s REJECTED at the witness: %v\n", name, err)
			return nil
		}
		sub, err := p.SubmitProof(conn, proof, reward)
		if err != nil {
			return err
		}
		if _, err := verifier.FundContract(conn, sub.Handle, reward); err != nil {
			return err
		}
		ver, err := verifier.VerifyProver(conn, sub.Handle, p.DID)
		if err != nil {
			return err
		}
		if ver.Accepted {
			fmt.Fprintf(stdout, "%-10s checked in, coupon paid (0.001 MATIC)\n", name)
		} else {
			fmt.Fprintf(stdout, "%-10s REJECTED by the verifier: %s\n", name, ver.Reason)
		}
		return nil
	}

	fmt.Fprintln(stdout, "== agnopol proof-of-location ==")
	if err := checkIn("honest", shop, nil); err != nil {
		return err
	}
	if err := checkIn("spoofer", home, &shop); err != nil { // physically home, claims the shop
		return err
	}

	// Replay: an honest user tries to reuse the same nonce twice.
	replayer, err := core.NewProver(sys, shop)
	if err != nil {
		return err
	}
	if _, err := replayer.EnsureAccount(conn, 5); err != nil {
		return err
	}
	cid, err := replayer.UploadReport(core.Report{Title: "check-in", Category: "loyalty"})
	if err != nil {
		return err
	}
	acct, _ := replayer.Account(conn)
	if _, err := replayer.RequestProof(witness, cid, acct.Address()); err != nil {
		return err
	}
	// Second exchange reusing the consumed nonce (simulated by asking the
	// witness again with a stale request — see core's replay test for the
	// raw-protocol version).
	if _, err := replayer.RequestProof(witness, cid, acct.Address()); err != nil {
		fmt.Fprintf(stdout, "%-10s REJECTED: %v\n", "replayer", err)
	} else {
		fmt.Fprintf(stdout, "%-10s second fresh exchange fine (new nonce) — replays of OLD proofs die at the nonce check\n", "replayer")
	}

	// Collusion against the Brambilla-style baseline: prover at home,
	// accomplice at the shop, exchanging messages over the internet.
	fmt.Fprintln(stdout, "\n== Brambilla-style baseline chain (no channel binding) ==")
	rng := chain.NewRand(77)
	mallory, err := baseline.NewP2PPeer("mallory", home, 100, rng)
	if err != nil {
		return err
	}
	mallory.Device.Spoof(shop) // claims the shop
	accomplice, err := baseline.NewP2PPeer("accomplice", shop, 100, rng)
	if err != nil {
		return err
	}
	pchain := baseline.NewP2PChain([]*baseline.P2PPeer{mallory, accomplice}, 77)
	req := mallory.NewRequest(pchain.Head().Hash, 0)
	resp := accomplice.Respond(req, 0) // over any channel — 4 km away
	if err := pchain.Submit(resp); err != nil {
		return err
	}
	pchain.Forge()
	if pchain.HasProofFor(mallory.Key.Public, shop, 50) {
		fmt.Fprintln(stdout, "mallory     COLLUSION SUCCEEDED: the chain holds a proof placing her at the shop")
	}
	fmt.Fprintln(stdout, "(the same collusion fails above: the witness only answers peers in Bluetooth range)")
	return nil
}
