// Quickstart: the smallest end-to-end proof-of-location round trip.
//
// One prover, one witness and one verifier meet in Bologna. The prover
// uploads a report to IPFS, gets a location proof over (simulated)
// Bluetooth, stages it in the per-area smart contract on the simulated
// Algorand network, and the verifier validates it, pays the reward, and
// publishes the report CID to the hypercube DHT.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"agnopol/internal/algorand"
	"agnopol/internal/core"
	"agnopol/internal/geo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole example: it takes no arguments and returns the exit
// status — 0, 1 for a run that fails, 2 for a stray argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(stderr, "usage: quickstart")
		return 2
	}
	if err := roundTrip(stdout); err != nil {
		fmt.Fprintf(stderr, "quickstart: %v\n", err)
		return 1
	}
	return 0
}

func roundTrip(stdout io.Writer) error {
	bologna := geo.LatLng{Lat: 44.4949, Lng: 11.3426}

	// The shared substrate: DID registry, IPFS, hypercube, CA, and the
	// PoL contract compiled for both backends.
	sys, err := core.NewSystem(1)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "compiled the PoL contract:")
	fmt.Fprint(stdout, sys.Compiled.Report)

	// A connector to the simulated Algorand network (swap in
	// eth.Goerli() / eth.PolygonMumbai() to target the other chains —
	// same compiled contract, same calls).
	conn := core.NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), 1))

	witness, err := core.NewWitness(sys, geo.Offset(bologna, 2, 1))
	if err != nil {
		return err
	}
	prover, err := core.NewProver(sys, bologna)
	if err != nil {
		return err
	}
	verifier, err := core.NewVerifier(sys)
	if err != nil {
		return err
	}
	acct, err := prover.EnsureAccount(conn, 10)
	if err != nil {
		return err
	}
	if _, err := verifier.EnsureAccount(conn, 10); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nprover DID:  %s\nwitness DID: %s\n", prover.DID, witness.DID)

	// 1. Upload the report to IPFS.
	cid, err := prover.UploadReport(core.Report{
		Title:       "Oily spots on the river Reno",
		Description: "dark patches along the east bank",
		Category:    "water-pollution",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nreport stored on IPFS: %s…\n", cid[:24])

	// 2. Bluetooth exchange: DID auth, nonce, proof.
	proof, err := prover.RequestProof(witness, cid, acct.Address())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "witness signed proof hash %x…\n", proof.Hash[:8])

	// 3. Stage the proof on-chain (deploys the area contract, since the
	// hypercube has no entry for this OLC yet).
	const reward = 100_000 // 0.1 ALGO in µAlgos
	sub, err := prover.SubmitProof(conn, proof, reward)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "deployed contract %s in %.1fs (fees %s)\n",
		sub.Handle.ID(), sub.Op.Latency.Seconds(), sub.Op.Fee)

	// 4. The verifier funds and validates; the prover gets the reward and
	// the CID enters the hypercube.
	if _, err := verifier.FundContract(conn, sub.Handle, reward); err != nil {
		return err
	}
	before := conn.Balance(acct)
	ver, err := verifier.VerifyProver(conn, sub.Handle, prover.DID)
	if err != nil {
		return err
	}
	after := conn.Balance(acct)
	fmt.Fprintf(stdout, "verification accepted=%v; prover balance %v -> %v\n",
		ver.Accepted, before, after)

	// 5. Anyone can now query the area through the DHT.
	code := proof.Request.OLC
	target, err := sys.NodeIDForOLC(code)
	if err != nil {
		return err
	}
	entry, hops, ok, err := sys.Cube.Get(0, target, code)
	if err != nil || !ok {
		return fmt.Errorf("hypercube lookup failed: %v", err)
	}
	fmt.Fprintf(stdout, "hypercube node %d (reached in %d hops) serves %d validated report(s) for %s\n",
		target, hops, len(entry.CIDs), code)
	data, err := sys.IPFS.Get(ver.CID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "report body: %s\n", data)
	return nil
}
