package evm

// Gas schedule constants, matching the Yellow Paper table the thesis
// reproduces as Fig. 1.4.
const (
	GasZero          = 0
	GasJumpdest      = 1
	GasBase          = 2
	GasVeryLow       = 3
	GasLow           = 5
	GasMid           = 8
	GasHigh          = 10
	GasWarmAccess    = 100
	GasColdAccount   = 2600
	GasColdSLoad     = 2100
	GasSSet          = 20000
	GasSReset        = 2900
	RefundSClear     = 15000
	GasCallValue     = 9000
	GasNewAccount    = 25000
	GasMemory        = 3
	GasTxCreate      = 32000
	GasCodeDeposit   = 200
	GasTxDataZero    = 4
	GasTxDataNonZero = 16
	GasTransaction   = 21000
	GasLog           = 375
	GasLogData       = 8
	GasLogTopic      = 375
	GasKeccak256     = 30
	GasKeccak256Word = 6
	GasCopy          = 3
)

// IntrinsicGas is the cost charged before the first opcode executes:
// 21000 per transaction, per-byte calldata cost, and the CREATE surcharge
// for deployments.
func IntrinsicGas(data []byte, isCreate bool) uint64 {
	gas := uint64(GasTransaction)
	if isCreate {
		gas += GasTxCreate
	}
	for _, b := range data {
		if b == 0 {
			gas += GasTxDataZero
		} else {
			gas += GasTxDataNonZero
		}
	}
	return gas
}

// memoryGas returns the total cost of a memory of the given word count:
// Gmemory·a + a²/512 (Yellow Paper eq. 326).
func memoryGas(words uint64) uint64 {
	return GasMemory*words + words*words/512
}

// constGas maps opcodes with flat costs. Dynamic opcodes (SSTORE, SLOAD,
// KECCAK256, LOG1, CALL, memory ops) are charged in the interpreter.
var constGas = map[Opcode]uint64{
	STOP:         GasZero,
	ADD:          GasVeryLow,
	MUL:          GasLow,
	SUB:          GasVeryLow,
	DIV:          GasLow,
	MOD:          GasLow,
	LT:           GasVeryLow,
	GT:           GasVeryLow,
	EQ:           GasVeryLow,
	ISZERO:       GasVeryLow,
	AND:          GasVeryLow,
	OR:           GasVeryLow,
	SHL:          GasVeryLow,
	SHR:          GasVeryLow,
	CALLER:       GasBase,
	CALLVALUE:    GasBase,
	CALLDATALOAD: GasVeryLow,
	CALLDATASIZE: GasBase,
	TIMESTAMP:    GasBase,
	SELFBALANCE:  GasLow,
	POP:          GasBase,
	JUMP:         GasMid,
	JUMPI:        GasHigh,
	JUMPDEST:     GasJumpdest,
}
