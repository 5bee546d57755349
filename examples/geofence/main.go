// Geofence: the Victor-et-al related work (§1.7.1) on our stack.
//
// A geofence is a set of grid cells (Open Location Code cells here, where
// the original used Geohash-like cells) stored in an Ethereum smart
// contract; an oracle checks whether a tracked device's attested location
// falls inside the fence and triggers actions. The example reproduces their
// cost analysis — ~20,000 gas per cell, ~2.1M gas for a 100-cell fence —
// and shows why on-chain geofences stopped being viable as gas prices rose.
//
//	go run ./examples/geofence
package main

import (
	"fmt"
	"io"
	"os"

	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/geo"
	"agnopol/internal/lang"
	"agnopol/internal/olc"
	"agnopol/internal/polcrypto"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole example: it takes no arguments and returns the exit
// status — 0, 1 for a run that fails, 2 for a stray argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(stderr, "usage: geofence")
		return 2
	}
	if err := fence(stdout); err != nil {
		fmt.Fprintf(stderr, "geofence: %v\n", err)
		return 1
	}
	return 0
}

func fence(stdout io.Writer) error {
	// The geofence contract in the agnostic language: a map of cell
	// hashes plus a containment check API.
	p := lang.NewProgram("geofence")
	p.DeclareMap("cells", lang.TUInt, lang.TUInt)
	p.DeclareGlobal("cellCount", lang.TUInt)
	p.SetConstructor(nil)
	p.AddAPI(&lang.API{
		Name:    "add_cell",
		Params:  []lang.Param{{Name: "cell", Type: lang.TUInt}},
		Returns: lang.TUInt,
		Body: []lang.Stmt{
			&lang.Assume{Cond: &lang.Not{A: &lang.MapHas{Map: "cells", Key: lang.A(0)}}, Msg: "cell already present"},
			&lang.MapSet{Map: "cells", Key: lang.A(0), Value: lang.U(1)},
			&lang.SetGlobal{Name: "cellCount", Value: lang.Add(lang.G("cellCount"), lang.U(1))},
			&lang.Return{Value: lang.G("cellCount")},
		},
	})
	p.AddAPI(&lang.API{
		Name:    "inside",
		Params:  []lang.Param{{Name: "cell", Type: lang.TUInt}},
		Returns: lang.TBool,
		Body: []lang.Stmt{
			&lang.Return{Value: &lang.MapHas{Map: "cells", Key: lang.A(0)}},
		},
	})
	p.AddView("getCellCount", lang.TUInt, lang.G("cellCount"))

	compiled, err := lang.Compile(p, lang.Options{MaxBytesLen: 64})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, compiled.Report)

	conn := core.NewEVMConnector(eth.NewChain(eth.Goerli(), 12))
	acct, err := conn.NewAccount(50)
	if err != nil {
		return err
	}
	h, deployOp, err := conn.Deploy(acct, compiled, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ngeofence contract %s deployed (gas %d, fee %s)\n",
		h.ID(), deployOp.GasUsed, deployOp.Fee)

	// Fence a 10×10 block of OLC cells around Bologna's station.
	center := geo.LatLng{Lat: 44.5056, Lng: 11.3430}
	var totalGas uint64
	var totalFee float64
	cells := 0
	seen := make(map[uint64]bool)
	for dn := -5; dn < 5; dn++ {
		for de := -5; de < 5; de++ {
			pos := geo.Offset(center, float64(dn)*14, float64(de)*14)
			code := olc.MustEncode(pos.Lat, pos.Lng, olc.DefaultCodeLength)
			id := cellID(code)
			if seen[id] {
				// Adjacent 14 m offsets can land in the same OLC cell.
				continue
			}
			seen[id] = true
			_, op, err := conn.Invoke(acct, h, "add_cell", core.CallOpts{}, lang.Uint64Value(id))
			if err != nil {
				return err
			}
			totalGas += op.GasUsed
			totalFee += op.Fee.Euros()
			cells++
		}
	}
	fmt.Fprintf(stdout, "stored %d cells: %d gas (%.0f gas/cell), €%.2f total\n",
		cells, totalGas, float64(totalGas)/float64(cells), totalFee)
	fmt.Fprintln(stdout, "(Victor et al. 2018: 20,000 gas/cell, 2,088,102 gas per 100-cell fence, $1.89 then, ~$240 by 2022)")

	// Track a device: inside the fence, then out.
	for _, at := range []geo.LatLng{center, geo.Offset(center, 2000, 0)} {
		code := olc.MustEncode(at.Lat, at.Lng, olc.DefaultCodeLength)
		v, _, err := conn.Invoke(acct, h, "inside", core.CallOpts{}, lang.Uint64Value(cellID(code)))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "device %-12s at %s -> inside fence: %v\n", "courier-1", code, v.Bool)
	}

	cnt, err := conn.View(h, "getCellCount")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "on-chain cell count (free view): %d\n", cnt.Uint)
	return nil
}

// cellID compresses an OLC cell into the UInt key the contract map uses.
func cellID(code string) uint64 {
	h := polcrypto.Hash([]byte("geofence-cell:" + code))
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(h[i])
	}
	return v
}
