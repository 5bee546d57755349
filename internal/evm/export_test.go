package evm

// The shipped-contract differential (contracts_test.go) imports lang, which
// imports evm, so it lives in the external evm_test package; these expose
// the test-only reference engine (ref_test.go) and the comparators of
// diff_test.go to it.
var (
	ExecuteRef     = executeRef
	ResultsEqual   = resultsEqual
	MemStatesEqual = memStatesEqual
)
