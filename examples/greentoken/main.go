// Greentoken: the paper's §2.8 and §2.1 extensions working together.
//
// The crowdsensing operator mints a GREEN reward token as an Algorand
// Standard Asset ("in the future will be possible to create a new token
// and transfer it, using the Algorand Standard Assets") and the CA issues
// Verifiable Credentials to witnesses ("in a new version of this project,
// they will issue Verifiable Credentials"). A prover submits a report; the
// verifier checks the witness's credential presentation before accepting
// the proof, then pays the reward in GREEN instead of ALGO.
//
//	go run ./examples/greentoken
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/core"
	"agnopol/internal/did"
	"agnopol/internal/geo"
	"agnopol/internal/polcrypto"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole example: it takes no arguments and returns the exit
// status — 0, 1 for a run that fails, 2 for a stray argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(stderr, "usage: greentoken")
		return 2
	}
	if err := reward(stdout); err != nil {
		fmt.Fprintf(stderr, "greentoken: %v\n", err)
		return 1
	}
	return 0
}

func reward(stdout io.Writer) error {
	sys, err := core.NewSystem(17)
	if err != nil {
		return err
	}
	algoChain := algorand.NewChain(algorand.Testnet(), 17)
	conn := core.NewAlgorandConnector(algoChain)
	cl := algorand.NewClient(algoChain)
	spot := geo.LatLng{Lat: 44.4949, Lng: 11.3426}

	// The operator (also playing CA issuer here) mints the GREEN ASA.
	operator := algoChain.NewAccount(50_000_000)
	_, greenID, err := cl.CreateAsset(operator, "Green Reward", "GREEN", 1_000_000, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "minted ASA %d: 10,000.00 GREEN total supply\n", greenID)

	// The CA gets a DID and issues a WitnessCredential to the witness.
	caKey, caDID, err := newActor(sys)
	if err != nil {
		return err
	}
	witness, err := core.NewWitness(sys, spot)
	if err != nil {
		return err
	}
	cred, err := did.IssueCredential(caKey, caDID, witness.DID, "WitnessCredential",
		map[string]string{"role": "witness", "area": "Bologna"},
		0, 24*time.Hour)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "CA %s… issued %s to witness %s…\n", caDID[:20], cred.Type, witness.DID[:20])

	// A relying party (the verifier) challenges the witness to present it.
	var nonce [32]byte
	if _, err := sys.Rand.Read(nonce[:]); err != nil {
		return err
	}
	presentation := did.Present(witness.Key, cred, nonce)
	if err := did.VerifyPresentation(sys.Registry, presentation, time.Hour); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "witness presented a valid WitnessCredential (holder-bound, unexpired)")

	// The normal PoL flow.
	verifier, err := core.NewVerifier(sys)
	if err != nil {
		return err
	}
	if _, err := verifier.EnsureAccount(conn, 10); err != nil {
		return err
	}
	prover, err := core.NewProver(sys, spot)
	if err != nil {
		return err
	}
	acct, err := prover.EnsureAccount(conn, 10)
	if err != nil {
		return err
	}
	cid, err := prover.UploadReport(core.Report{
		Title: "Cleaned riverbank", Category: "stewardship",
	})
	if err != nil {
		return err
	}
	proof, err := prover.RequestProof(witness, cid, acct.Address())
	if err != nil {
		return err
	}
	sub, err := prover.SubmitProof(conn, proof, 1) // nominal 1 µAlgo on-chain reward
	if err != nil {
		return err
	}
	if _, err := verifier.FundContract(conn, sub.Handle, 1); err != nil {
		return err
	}
	ver, err := verifier.VerifyProver(conn, sub.Handle, prover.DID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "report accepted=%v — paying the real reward in GREEN\n", ver.Accepted)

	// GREEN payout: the prover opts in, the operator transfers.
	proverAlgo := &acct.Account
	if _, err := cl.OptInAsset(proverAlgo, greenID); err != nil {
		return err
	}
	if _, err := cl.TransferAsset(operator, greenID, proverAlgo.Address, 2500); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "prover GREEN balance: %d.%02d GREEN\n",
		algoChain.AssetBalance(proverAlgo.Address, greenID)/100,
		algoChain.AssetBalance(proverAlgo.Address, greenID)%100)
	return nil
}

// newActor registers a fresh DID-holding actor.
func newActor(sys *core.System) (*polcrypto.KeyPair, did.DID, error) {
	kp, err := polcrypto.GenerateKeyPair(sys.Rand)
	if err != nil {
		return nil, "", err
	}
	d, err := sys.RegisterDID(kp.Public)
	return kp, d, err
}
