// Package contracts embeds the shipped .pol sources. The file a reader or
// auditor opens is the artefact that executes: core compiles these strings
// (core.CompilePoL and its siblings) and nothing else defines a contract.
package contracts

import _ "embed"

// PoLReport is the thesis proof-of-location report contract (§4.1).
//
//go:embed pol-report.pol
var PoLReport string

// PoLReportV2 extends PoLReport with a deadline and witness rewards.
//
//go:embed pol-report-v2.pol
var PoLReportV2 string

// PoLVerify is the proof-verification hot-path contract (DESIGN.md §14).
//
//go:embed pol-verify.pol
var PoLVerify string

// AreaCheckin is the soak harness's per-area check-in counter.
//
//go:embed area-checkin.pol
var AreaCheckin string
