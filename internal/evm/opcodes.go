// Package evm implements the Ethereum Virtual Machine subset the
// blockchain-agnostic contract language compiles to: a 256-bit stack
// machine with the Yellow-Paper gas schedule reproduced in Fig. 1.4 of the
// thesis (including EIP-2929 warm/cold storage access and EIP-1559-era
// refunds). The Ethereum and Polygon simulators execute contract
// transactions through this VM, so gas — and therefore the fees in
// Tables 5.1–5.4 — comes out of real opcode accounting rather than
// constants.
package evm

import "fmt"

// Opcode is a single EVM instruction.
type Opcode byte

// The opcodes the contract-language compiler emits, plus CALLDATASIZE.
// Execute runs these, SWAP4 (so that SWAP1–SWAP5 stay one range) and every
// PUSH width; every other byte is an invalid opcode.
// TestExecutesWhatTheCompilerEmits holds the two sets equal. Values match
// the real EVM so disassemblies read like Etherscan output.
const (
	STOP         Opcode = 0x00
	ADD          Opcode = 0x01
	MUL          Opcode = 0x02
	SUB          Opcode = 0x03
	DIV          Opcode = 0x04
	MOD          Opcode = 0x06
	LT           Opcode = 0x10
	GT           Opcode = 0x11
	EQ           Opcode = 0x14
	ISZERO       Opcode = 0x15
	AND          Opcode = 0x16
	OR           Opcode = 0x17
	SHL          Opcode = 0x1b
	SHR          Opcode = 0x1c
	KECCAK256    Opcode = 0x20
	CALLER       Opcode = 0x33
	CALLVALUE    Opcode = 0x34
	CALLDATALOAD Opcode = 0x35
	CALLDATASIZE Opcode = 0x36
	CALLDATACOPY Opcode = 0x37
	TIMESTAMP    Opcode = 0x42
	SELFBALANCE  Opcode = 0x47
	POP          Opcode = 0x50
	MLOAD        Opcode = 0x51
	MSTORE       Opcode = 0x52
	SLOAD        Opcode = 0x54
	SSTORE       Opcode = 0x55
	JUMP         Opcode = 0x56
	JUMPI        Opcode = 0x57
	JUMPDEST     Opcode = 0x5b
	PUSH1        Opcode = 0x60
	PUSH32       Opcode = 0x7f
	DUP1         Opcode = 0x80
	DUP2         Opcode = 0x81
	DUP3         Opcode = 0x82
	DUP4         Opcode = 0x83
	DUP5         Opcode = 0x84
	DUP6         Opcode = 0x85
	SWAP1        Opcode = 0x90
	SWAP2        Opcode = 0x91
	SWAP3        Opcode = 0x92
	SWAP5        Opcode = 0x94
	LOG1         Opcode = 0xa1
	CALL         Opcode = 0xf1
	RETURN       Opcode = 0xf3
	REVERT       Opcode = 0xfd
)

var opNames = map[Opcode]string{
	STOP: "STOP", ADD: "ADD", MUL: "MUL", SUB: "SUB", DIV: "DIV", MOD: "MOD",
	LT: "LT", GT: "GT", EQ: "EQ", ISZERO: "ISZERO", AND: "AND", OR: "OR",
	SHL: "SHL", SHR: "SHR", KECCAK256: "KECCAK256", CALLER: "CALLER",
	CALLVALUE: "CALLVALUE", CALLDATALOAD: "CALLDATALOAD",
	CALLDATASIZE: "CALLDATASIZE", CALLDATACOPY: "CALLDATACOPY",
	TIMESTAMP: "TIMESTAMP", SELFBALANCE: "SELFBALANCE", POP: "POP",
	MLOAD: "MLOAD", MSTORE: "MSTORE", SLOAD: "SLOAD", SSTORE: "SSTORE",
	JUMP: "JUMP", JUMPI: "JUMPI", JUMPDEST: "JUMPDEST", LOG1: "LOG1",
	CALL: "CALL", RETURN: "RETURN", REVERT: "REVERT",
}

// opStrings is every byte's mnemonic, formatted once: the opcode profiler
// names each executed opcode, so String must not allocate.
var opStrings = func() (names [256]string) {
	for i := range names {
		op := Opcode(i)
		switch {
		case op >= PUSH1 && op <= PUSH32:
			names[i] = fmt.Sprintf("PUSH%d", op-PUSH1+1)
		case op >= DUP1 && op <= DUP6:
			names[i] = fmt.Sprintf("DUP%d", op-DUP1+1)
		case op >= SWAP1 && op <= SWAP5:
			names[i] = fmt.Sprintf("SWAP%d", op-SWAP1+1)
		case opNames[op] != "":
			names[i] = opNames[op]
		default:
			names[i] = fmt.Sprintf("INVALID(0x%02x)", i)
		}
	}
	return names
}()

// String renders the opcode mnemonic.
func (op Opcode) String() string { return opStrings[op] }

// IsPush reports whether op is PUSH1..PUSH32, and its immediate width.
func (op Opcode) IsPush() (int, bool) {
	if op >= PUSH1 && op <= PUSH32 {
		return int(op-PUSH1) + 1, true
	}
	return 0, false
}
