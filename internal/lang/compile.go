package lang

import (
	"errors"
	"fmt"

	"agnopol/internal/avm"
)

// Compiled is the output of compiling one program for every connector: the
// single-source / many-backends artifact that makes the language
// blockchain-agnostic (the index.main.mjs analogue of §2.9.3).
type Compiled struct {
	Program *Program

	// EVMCode is the runtime bytecode deployed on Ethereum-family chains.
	EVMCode []byte
	// TEALSource and TEALProgram are the Algorand artifact.
	TEALSource  string
	TEALProgram *avm.Program

	// Report is the static verification result.
	Report *Report
	// Analysis is the conservative cost analysis (Fig. 5.1).
	Analysis *Analysis
}

// ErrVerification reports failed theorems at compile time.
var ErrVerification = errors.New("lang: verification failed")

// Options tune compilation.
type Options struct {
	// MaxBytesLen bounds Bytes values for the conservative analysis
	// (default 512, the thesis contract's largest Bytes annotation).
	MaxBytesLen int
}

// Compile type-checks, verifies and compiles a program for both backends.
// The verification builtins (digest over concatenations, bytes equality,
// contains, sigok) lower to the native VM precompiles (DESIGN.md §14).
func Compile(p *Program, opts Options) (*Compiled, error) {
	if err := Check(p); err != nil {
		return nil, fmt.Errorf("lang: %w", err)
	}
	report := Verify(p)
	if report.Failures > 0 {
		return nil, fmt.Errorf("%w:\n%s", ErrVerification, report)
	}
	evmCode, err := CompileEVM(p)
	if err != nil {
		return nil, err
	}
	tealSrc, tealProg, err := CompileTEAL(p)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Program:     p,
		EVMCode:     evmCode,
		TEALSource:  tealSrc,
		TEALProgram: tealProg,
		Report:      report,
		Analysis:    Analyze(p, evmCode, tealSrc, opts.MaxBytesLen),
	}, nil
}
