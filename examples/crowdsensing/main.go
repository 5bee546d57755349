// Crowdsensing: the Chapter-3 use case — environmental issue reports.
//
// Citizens across several areas of a city report environmental issues
// (abandoned waste, oily rivers, potholes). Each area gets its own smart
// contract (factory-style, one per Open Location Code cell), reports are
// validated by a designated verifier, rewarded in ALGO, and the application
// then renders an area's reports by querying the hypercube and fetching the
// bodies from IPFS — the display path of Fig. 3.2.
//
//	go run ./examples/crowdsensing
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"agnopol/internal/algorand"
	"agnopol/internal/core"
	"agnopol/internal/geo"
	"agnopol/internal/ipfs"
)

type spot struct {
	name    string
	at      geo.LatLng
	reports []core.Report
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole example: it takes no arguments and returns the exit
// status — 0, 1 for a run that fails, 2 for a stray argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(stderr, "usage: crowdsensing")
		return 2
	}
	if err := crowdsense(stdout); err != nil {
		fmt.Fprintf(stderr, "crowdsensing: %v\n", err)
		return 1
	}
	return 0
}

func crowdsense(stdout io.Writer) error {
	sys, err := core.NewSystem(3)
	if err != nil {
		return err
	}
	conn := core.NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), 3))

	city := geo.LatLng{Lat: 44.4949, Lng: 11.3426} // Bologna
	spots := []spot{
		{
			name: "Reno river bank",
			at:   geo.Offset(city, 900, -1200),
			reports: []core.Report{
				{Title: "Oily spots on the river", Category: "water-pollution",
					Description: "iridescent film, ~50 m stretch"},
				{Title: "Dead fish downstream", Category: "water-pollution",
					Description: "several near the weir"},
			},
		},
		{
			name: "Industrial lot, via Stalingrado",
			at:   geo.Offset(city, 2500, 1800),
			reports: []core.Report{
				{Title: "Illegally abandoned waste", Category: "waste",
					Description: "construction debris and drums"},
			},
		},
		{
			name: "Park entrance",
			at:   geo.Offset(city, -700, 300),
			reports: []core.Report{
				{Title: "Hole in the road", Category: "road-damage",
					Description: "deep pothole by the gate"},
				{Title: "Contaminated ground", Category: "soil",
					Description: "discoloured soil near the flowerbed"},
			},
		},
	}

	verifier, err := core.NewVerifier(sys)
	if err != nil {
		return err
	}
	if _, err := verifier.EnsureAccount(conn, 100); err != nil {
		return err
	}
	const reward = 50_000 // 0.05 ALGO

	fmt.Fprintln(stdout, "== collection phase ==")
	for _, s := range spots {
		witness, err := core.NewWitness(sys, s.at)
		if err != nil {
			return err
		}
		for i, rep := range s.reports {
			prover, err := core.NewProver(sys, s.at)
			if err != nil {
				return err
			}
			acct, err := prover.EnsureAccount(conn, 5)
			if err != nil {
				return err
			}
			cid, err := prover.UploadReport(rep)
			if err != nil {
				return err
			}
			proof, err := prover.RequestProof(witness, cid, acct.Address())
			if err != nil {
				return err
			}
			sub, err := prover.SubmitProof(conn, proof, reward)
			if err != nil {
				return err
			}
			if sub.Deployed {
				fmt.Fprintf(stdout, "  %-32s contract %s deployed by report %d\n", s.name, sub.Handle.ID(), i)
			}
			if _, err := verifier.FundContract(conn, sub.Handle, reward); err != nil {
				return err
			}
			ver, err := verifier.VerifyProver(conn, sub.Handle, prover.DID)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "    %-34q accepted=%v reward=0.05 ALGO\n", rep.Title, ver.Accepted)
		}
	}

	// The application view (Fig. 3.2): pick an area, query the hypercube
	// for its entry, pull the CIDs from IPFS and display.
	fmt.Fprintln(stdout, "\n== display phase (app view) ==")
	for _, s := range spots {
		code, target, err := areaOf(sys, s.at)
		if err != nil {
			return err
		}
		entry, hops, ok, err := sys.Cube.Get(0, target, code)
		if err != nil || !ok {
			return fmt.Errorf("no hypercube entry for %s", s.name)
		}
		fmt.Fprintf(stdout, "%s (%s, DHT node %d, %d hops): %d validated report(s)\n",
			s.name, code, target, hops, len(entry.CIDs))
		for _, cidStr := range entry.CIDs {
			data, err := sys.IPFS.Get(ipfs.CID(cidStr))
			if err != nil {
				return err
			}
			var rep core.Report
			if err := json.Unmarshal(data, &rep); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "   • [%s] %s — %s\n", rep.Category, rep.Title, rep.Description)
		}
	}

	// Nearby search: one DHT range query collects this area and its
	// neighbours (§1.3's complex queries).
	fmt.Fprintln(stdout, "\n== nearby search (range query, ≤2 hops) ==")
	_, target, err := areaOf(sys, spots[0].at)
	if err != nil {
		return err
	}
	entries, err := sys.Cube.RangeQuery(target, 2)
	if err != nil {
		return err
	}
	total := 0
	for _, e := range entries {
		total += len(e.CIDs)
	}
	fmt.Fprintf(stdout, "found %d area(s) holding %d report(s) within 2 hops of node %d\n",
		len(entries), total, target)
	return nil
}

// areaOf is the OLC a device at a position claims and the hypercube node
// responsible for it.
func areaOf(sys *core.System, at geo.LatLng) (string, uint64, error) {
	p, err := core.NewProver(sys, at)
	if err != nil {
		return "", 0, err
	}
	code, err := p.ClaimedOLC()
	if err != nil {
		return "", 0, err
	}
	target, err := sys.NodeIDForOLC(code)
	return code, target, err
}
