// Package precompile is the shared registry of native contract functions
// reachable from both VMs: fixed-cost implementations of the proof-of-
// location verification hot path (ed25519 signature checks, keccak/sha256
// digests, bytes equality, OLC cell containment) that the language backends
// can target instead of interpreted bytecode.
//
// The EVM exposes each entry as a CALL to a reserved low address (the
// production-EVM precompiled-contract pattern; DESIGN.md §14): the
// interpreter intercepts the address before dispatch, resolves a descriptor
// of (offset, length) memory ranges zero-copy, charges the entry's gas
// schedule and writes a 32-byte result word. The AVM exposes the same
// natives as pseudo-ops with fixed Instr.Cost. Both routes funnel through
// (*Precompiled).Native, so each function has one implementation.
package precompile

import (
	"bytes"

	"agnopol/internal/polcrypto"
)

// Reserved precompile IDs. The EVM address of entry id is the 20-byte
// address whose last byte is id (0x0000…01 … 0x0000…05), mirroring the
// Ethereum convention of precompiles at low addresses.
const (
	IDEd25519Verify = 0x01
	IDKeccak256     = 0x02
	IDSha256        = 0x03
	IDBytesEqual    = 0x04
	IDOLCContains   = 0x05
)

// maxID bounds the reserved address range: addresses 0x…01 through 0x…05.
const maxID = IDOLCContains

// Variadic marks an entry that accepts any number of descriptor ranges.
const Variadic = 0

// Precompiled is one native contract function. Run receives the resolved
// input ranges in declaration order and returns the 32-byte result word;
// ok=false reports malformed input (the VM pushes 0, the calling contract
// sees a failed CALL).
type Precompiled struct {
	ID    byte
	Name  string
	Arity int // required descriptor ranges; Variadic accepts any count

	// EVM gas schedule: GasBase + GasWord × ⌈inputBytes/32⌉, charged on top
	// of the warm-access cost of the intercepted CALL.
	GasBase uint64
	GasWord uint64

	// AVM exposure: pseudo-op mnemonic and its fixed Instr.Cost. Empty when
	// the AVM already covers the function natively (bytes equality is `==`).
	AVMOp   string
	AVMCost uint64

	run func(args [][]byte) ([32]byte, bool)
}

// Native runs the precompile over already-resolved arguments. Both VM
// engines and the AVM pseudo-ops route through here.
func (p *Precompiled) Native(args ...[]byte) ([32]byte, bool) {
	return p.run(args)
}

// Gas returns the EVM gas charge for inputBytes of referenced input.
func (p *Precompiled) Gas(inputBytes uint64) uint64 {
	return p.GasBase + p.GasWord*((inputBytes+31)/32)
}

func boolWord(b bool) [32]byte {
	var w [32]byte
	if b {
		w[31] = 1
	}
	return w
}

func runEd25519(args [][]byte) ([32]byte, bool) {
	if len(args) != 3 {
		return [32]byte{}, false
	}
	return boolWord(polcrypto.Verify(args[0], args[1], args[2])), true
}

func runHash(args [][]byte) ([32]byte, bool) {
	return polcrypto.Hash(args...), true
}

func runBytesEqual(args [][]byte) ([32]byte, bool) {
	if len(args) != 2 {
		return [32]byte{}, false
	}
	return boolWord(bytes.Equal(args[0], args[1])), true
}

// runOLCContains reports whether the open-location code in args[1] lies in
// the area cell args[0]. Cells are stored as stripped even-length OLC
// prefixes (e.g. "8FQFCX" for the 6-char cell), so containment of a full
// code ("8FQFCXGV+XX") is exactly a byte-prefix test.
func runOLCContains(args [][]byte) ([32]byte, bool) {
	if len(args) != 2 {
		return [32]byte{}, false
	}
	return boolWord(bytes.HasPrefix(args[1], args[0])), true
}

// registry indexes entries by ID. Gas schedules follow the Ethereum
// precompile precedents where one exists (sha256 at 60+12/word per EIP-2,
// signature verification flat like ECRECOVER's 3000); keccak matches the
// KECCAK256 opcode; the comparison entries are priced like cheap linear
// scans.
var registry = [maxID + 1]*Precompiled{
	IDEd25519Verify: {
		ID: IDEd25519Verify, Name: "ed25519_verify", Arity: 3,
		GasBase: 3000, GasWord: 0,
		AVMOp: "ed25519verify", AVMCost: 1900,
		run: runEd25519,
	},
	IDKeccak256: {
		ID: IDKeccak256, Name: "keccak256", Arity: Variadic,
		GasBase: 30, GasWord: 6,
		AVMOp: "keccak256", AVMCost: 130,
		run: runHash,
	},
	IDSha256: {
		ID: IDSha256, Name: "sha256", Arity: Variadic,
		GasBase: 60, GasWord: 12,
		AVMOp: "sha256_parts", AVMCost: 35,
		run: runHash,
	},
	IDBytesEqual: {
		ID: IDBytesEqual, Name: "bytes_equal", Arity: 2,
		GasBase: 15, GasWord: 3,
		run: runBytesEqual,
	},
	IDOLCContains: {
		ID: IDOLCContains, Name: "olc_contains", Arity: 2,
		GasBase: 30, GasWord: 3,
		AVMOp: "olc_contains", AVMCost: 20,
		run: runOLCContains,
	},
}

// avmOps indexes entries by pseudo-op mnemonic.
var avmOps = func() map[string]*Precompiled {
	m := make(map[string]*Precompiled)
	for _, p := range registry {
		if p != nil && p.AVMOp != "" {
			m[p.AVMOp] = p
		}
	}
	return m
}()

// ByID returns the entry with the given ID, or nil.
func ByID(id byte) *Precompiled {
	if int(id) >= len(registry) {
		return nil
	}
	return registry[id]
}

// ByAddress returns the entry at a reserved EVM address, or nil for every
// non-reserved address.
func ByAddress(a [20]byte) *Precompiled {
	for _, b := range a[:19] {
		if b != 0 {
			return nil
		}
	}
	return ByID(a[19])
}

// ByAVMOp returns the entry behind an AVM pseudo-op mnemonic, or nil.
func ByAVMOp(op string) *Precompiled { return avmOps[op] }

// All returns the registered entries in ID order.
func All() []*Precompiled {
	out := make([]*Precompiled, 0, maxID)
	for _, p := range registry {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}
