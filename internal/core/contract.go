// Package core implements the paper's primary contribution: the
// decentralized Proof-of-Location system. It wires together the
// blockchain-agnostic contract (package lang) deployed through chain
// connectors (eth, algorand), the DID layer, the hypercube DHT, IPFS and
// the prover/witness/verifier protocol of Chapter 2.
package core

import (
	"fmt"

	"agnopol/contracts"
	"agnopol/internal/lang"
)

// MaxUsers is the §4.1 seat cap: every per-location contract accepts at most
// MaxUsers provers (creator included) — the thesis tests with 4 per
// contract. It mirrors the literal in contracts/pol-report.pol and
// pol-report-v2.pol (TestPoLProgramShape holds the two together).
const MaxUsers = 4

// shipped is every contract core deploys: the source is the .pol file in
// package contracts (the one definition a reader or auditor opens), and
// maxBytesLen its Bytes bound for the conservative analysis.
var shipped = map[string]struct {
	src         string
	maxBytesLen int
}{
	"pol-report":    {contracts.PoLReport, 512},
	"pol-report-v2": {contracts.PoLReportV2, 512},
	"pol-verify":    {contracts.PoLVerify, 512},
	"area-checkin":  {contracts.AreaCheckin, 512},
}

// compileShipped parses and compiles one row of shipped for both backends;
// the single compiled artifact drives every connector.
func compileShipped(name string) (*lang.Compiled, error) {
	row := shipped[name]
	prog, err := lang.ParseSource(row.src)
	if err != nil {
		return nil, fmt.Errorf("core: parse %s: %w", name, err)
	}
	c, err := lang.Compile(prog, lang.Options{MaxBytesLen: row.maxBytesLen})
	if err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", name, err)
	}
	return c, nil
}

// CompilePoL compiles the thesis PoL contract (contracts/pol-report.pol).
func CompilePoL() (*lang.Compiled, error) { return compileShipped("pol-report") }

// CompilePoLV2 compiles the extended contract with a deadline and witness
// rewards (contracts/pol-report-v2.pol).
func CompilePoLV2() (*lang.Compiled, error) { return compileShipped("pol-report-v2") }

// CompileVerify compiles the proof-verification hot-path contract
// (contracts/pol-verify.pol).
func CompileVerify() (*lang.Compiled, error) { return compileShipped("pol-verify") }

// CompileCheckin compiles the soak harness's check-in contract
// (contracts/area-checkin.pol).
func CompileCheckin() (*lang.Compiled, error) { return compileShipped("area-checkin") }

// Map and global indices for off-chain state reads (Reach frontends read
// contract state through the node; the connectors mirror that via
// ReadMap/ReadGlobal).
const (
	EasyMapName      = "easy_map"
	PositionGlobal   = "position"
	RewardGlobal     = "reward"
	CreatorDidGlobal = "creatorDid"
)
