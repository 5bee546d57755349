// Command polsim runs the §4.5-style scripted execution: a contract with a
// creator, attachers, and a verifier validating both provers — narrated
// step by step on the chain of your choice.
//
//	polsim -chain algorand
//	polsim -chain goerli -users 4
package main

import (
	"flag"
	"fmt"
	"os"

	"agnopol/internal/algorand"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/geo"
)

// evmPresets are the Ethereum-family networks -chain accepts.
var evmPresets = map[string]func() eth.Config{"ropsten": eth.Ropsten, "goerli": eth.Goerli, "polygon": eth.PolygonMumbai}

func main() {
	var (
		chainName = flag.String("chain", "algorand", "ropsten | goerli | polygon | algorand")
		users     = flag.Int("users", 4, "provers on the contract (max 4 per the thesis contract)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		explorer  = flag.Bool("explorer", false, "print the Fig 3.1 EtherScan-style contract history (EVM chains)")
	)
	flag.Parse()
	if *users < 1 || *users > core.MaxUsers {
		fatal(fmt.Errorf("users must be 1..%d", core.MaxUsers))
	}

	var (
		conn core.Connector
		evm  *eth.Chain // an EVM preset's chain, kept for -explorer
	)
	if preset, ok := evmPresets[*chainName]; ok {
		evm = eth.NewChain(preset(), *seed)
		conn = core.NewEVMConnector(evm)
	} else if *chainName == "algorand" {
		conn = core.NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), *seed))
	} else {
		fatal(fmt.Errorf("unknown chain %q", *chainName))
	}
	sys, err := core.NewSystem(*seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("chain: %s (%s)\n", conn.Name(), conn.Unit().Name)
	fmt.Print(sys.Compiled.Report)

	spot := geo.LatLng{Lat: 44.4949, Lng: 11.3426}
	witness, err := core.NewWitness(sys, spot)
	if err != nil {
		fatal(err)
	}
	verifier, err := core.NewVerifier(sys)
	if err != nil {
		fatal(err)
	}
	if _, err := verifier.EnsureAccount(conn, 100); err != nil {
		fatal(err)
	}
	reward := uint64(1e15)
	if conn.Unit().Name == "ALGO" {
		reward = 100_000
	}

	var handle *core.Handle
	var provers []*core.Prover
	for u := 0; u < *users; u++ {
		p, err := core.NewProver(sys, spot)
		if err != nil {
			fatal(err)
		}
		acct, err := p.EnsureAccount(conn, 10)
		if err != nil {
			fatal(err)
		}
		cid, err := p.UploadReport(core.Report{
			Title:       fmt.Sprintf("report by user %d", u),
			Description: "environment issue",
			Category:    "environment",
		})
		if err != nil {
			fatal(err)
		}
		proof, err := p.RequestProof(witness, cid, acct.Address())
		if err != nil {
			fatal(err)
		}
		sub, err := p.SubmitProof(conn, proof, reward)
		if err != nil {
			fatal(err)
		}
		role := "attach"
		if sub.Deployed {
			role = "DEPLOY"
			handle = sub.Handle
			fmt.Printf("\nThe contract is deployed as %s\n", sub.Handle.ID())
		}
		fmt.Printf("user %d  %-6s  %6.2fs  fees %v  (hypercube lookup: %d hops)\n",
			u, role, sub.Op.Latency.Seconds(), sub.Op.Fee, sub.Hops)
		provers = append(provers, p)
	}

	sits, err := conn.View(handle, "getAvailableSits")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\navailable sits after inserts (free view): %d\n", sits.Uint)

	fund := uint64(len(provers)) * reward
	if _, err := verifier.FundContract(conn, handle, fund); err != nil {
		fatal(err)
	}
	fmt.Printf("verifier funded the contract with %d base units\n", fund)

	for u, p := range provers {
		ver, err := verifier.VerifyProver(conn, handle, p.DID)
		if err != nil {
			fatal(err)
		}
		if ver.Accepted {
			fmt.Printf("DID %d has been verified by Verifier %s\n", p.DID.Uint64(), verifier.DID[:24])
		} else {
			fmt.Printf("DID %d has NOT been verified: %s\n", p.DID.Uint64(), ver.Reason)
		}
		_ = u
	}
	fmt.Printf("contract balance after verification: %d\n", conn.ContractBalance(handle))
	fmt.Printf("simulated time elapsed: %.1fs\n", conn.Now().Seconds())

	if *explorer {
		if evm == nil {
			fmt.Println("\n(-explorer is only available on EVM chains)")
			return
		}
		fmt.Println("\n== contract history (Fig 3.1, read bottom-up) ==")
		records := evm.HistoryOf(handle.EVMAddr)
		fmt.Print(eth.FormatHistory(handle.EVMAddr, records, conn.Unit()))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "polsim: %v\n", err)
	os.Exit(1)
}
