// Command polsim runs the §4.5-style scripted execution: a contract with a
// creator, attachers, and a verifier validating both provers — narrated
// step by step on the chain of your choice.
//
//	polsim -chain algorand
//	polsim -chain goerli -users 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"agnopol/internal/algorand"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/geo"
)

// evmPresets are the Ethereum-family networks -chain accepts.
var evmPresets = map[string]func() eth.Config{"ropsten": eth.Ropsten, "goerli": eth.Goerli, "polygon": eth.PolygonMumbai}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status — 0, 1 for a run
// that fails, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		chainName = fs.String("chain", "algorand", "ropsten | goerli | polygon | algorand")
		users     = fs.Int("users", 4, "provers on the contract (max 4 per the thesis contract)")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		explorer  = fs.Bool("explorer", false, "print the Fig 3.1 EtherScan-style contract history (EVM chains)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package already printed the error and usage
	}
	if err := simulate(stdout, *chainName, *users, *seed, *explorer); err != nil {
		fmt.Fprintf(stderr, "polsim: %v\n", err)
		return 1
	}
	return 0
}

func simulate(stdout io.Writer, chainName string, users int, seed uint64, explorer bool) error {
	if users < 1 || users > core.MaxUsers {
		return fmt.Errorf("users must be 1..%d", core.MaxUsers)
	}

	var (
		conn core.Connector
		evm  *eth.Chain // an EVM preset's chain, kept for -explorer
	)
	if preset, ok := evmPresets[chainName]; ok {
		evm = eth.NewChain(preset(), seed)
		conn = core.NewEVMConnector(evm)
	} else if chainName == "algorand" {
		conn = core.NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), seed))
	} else {
		return fmt.Errorf("unknown chain %q", chainName)
	}
	sys, err := core.NewSystem(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chain: %s (%s)\n", conn.Name(), conn.Unit().Name)
	fmt.Fprint(stdout, sys.Compiled.Report)

	spot := geo.LatLng{Lat: 44.4949, Lng: 11.3426}
	witness, err := core.NewWitness(sys, spot)
	if err != nil {
		return err
	}
	verifier, err := core.NewVerifier(sys)
	if err != nil {
		return err
	}
	if _, err := verifier.EnsureAccount(conn, 100); err != nil {
		return err
	}
	reward := uint64(1e15)
	if conn.Unit().Name == "ALGO" {
		reward = 100_000
	}

	var handle *core.Handle
	var provers []*core.Prover
	for u := 0; u < users; u++ {
		p, err := core.NewProver(sys, spot)
		if err != nil {
			return err
		}
		acct, err := p.EnsureAccount(conn, 10)
		if err != nil {
			return err
		}
		cid, err := p.UploadReport(core.Report{
			Title:       fmt.Sprintf("report by user %d", u),
			Description: "environment issue",
			Category:    "environment",
		})
		if err != nil {
			return err
		}
		proof, err := p.RequestProof(witness, cid, acct.Address())
		if err != nil {
			return err
		}
		sub, err := p.SubmitProof(conn, proof, reward)
		if err != nil {
			return err
		}
		role := "attach"
		if sub.Deployed {
			role = "DEPLOY"
			handle = sub.Handle
			fmt.Fprintf(stdout, "\nThe contract is deployed as %s\n", sub.Handle.ID())
		}
		fmt.Fprintf(stdout, "user %d  %-6s  %6.2fs  fees %v  (hypercube lookup: %d hops)\n",
			u, role, sub.Op.Latency.Seconds(), sub.Op.Fee, sub.Hops)
		provers = append(provers, p)
	}

	sits, err := conn.View(handle, "getAvailableSits")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\navailable sits after inserts (free view): %d\n", sits.Uint)

	fund := uint64(len(provers)) * reward
	if _, err := verifier.FundContract(conn, handle, fund); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "verifier funded the contract with %d base units\n", fund)

	for _, p := range provers {
		ver, err := verifier.VerifyProver(conn, handle, p.DID)
		if err != nil {
			return err
		}
		if ver.Accepted {
			fmt.Fprintf(stdout, "DID %d has been verified by Verifier %s\n", p.DID.Uint64(), verifier.DID[:24])
		} else {
			fmt.Fprintf(stdout, "DID %d has NOT been verified: %s\n", p.DID.Uint64(), ver.Reason)
		}
	}
	fmt.Fprintf(stdout, "contract balance after verification: %d\n", conn.ContractBalance(handle))
	fmt.Fprintf(stdout, "simulated time elapsed: %.1fs\n", conn.Now().Seconds())

	if explorer {
		if evm == nil {
			fmt.Fprintln(stdout, "\n(-explorer is only available on EVM chains)")
			return nil
		}
		fmt.Fprintln(stdout, "\n== contract history (Fig 3.1, read bottom-up) ==")
		records := evm.HistoryOf(handle.EVMAddr)
		fmt.Fprint(stdout, eth.FormatHistory(handle.EVMAddr, records, conn.Unit()))
	}
	return nil
}
