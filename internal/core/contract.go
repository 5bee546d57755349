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

// maxBytesLen bounds the Bytes values of every shipped contract for the
// conservative analysis.
const maxBytesLen = 512

// compileShipped parses and compiles one contract core deploys for both
// backends: src is its .pol file in package contracts (the one definition
// a reader or auditor opens), and the single compiled artifact drives
// every connector.
func compileShipped(name, src string) (*lang.Compiled, error) {
	prog, err := lang.ParseSource(src)
	if err != nil {
		return nil, fmt.Errorf("core: parse %s: %w", name, err)
	}
	c, err := lang.Compile(prog, lang.Options{MaxBytesLen: maxBytesLen})
	if err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", name, err)
	}
	return c, nil
}

// CompilePoL compiles the thesis PoL contract (contracts/pol-report.pol).
func CompilePoL() (*lang.Compiled, error) { return compileShipped("pol-report", contracts.PoLReport) }

// CompilePoLV2 compiles the extended contract with a deadline and witness
// rewards (contracts/pol-report-v2.pol).
func CompilePoLV2() (*lang.Compiled, error) {
	return compileShipped("pol-report-v2", contracts.PoLReportV2)
}

// CompileVerify compiles the proof-verification hot-path contract
// (contracts/pol-verify.pol).
func CompileVerify() (*lang.Compiled, error) {
	return compileShipped("pol-verify", contracts.PoLVerify)
}

// CompileCheckin compiles the soak harness's check-in contract
// (contracts/area-checkin.pol).
func CompileCheckin() (*lang.Compiled, error) {
	return compileShipped("area-checkin", contracts.AreaCheckin)
}

// Map and global indices for off-chain state reads (Reach frontends read
// contract state through the node; the connectors mirror that via
// ReadMap/ReadGlobal).
const (
	EasyMapName      = "easy_map"
	PositionGlobal   = "position"
	RewardGlobal     = "reward"
	CreatorDidGlobal = "creatorDid"
)
