// Command polc compiles the proof-of-location contract with the
// blockchain-agnostic compiler and prints what the Reach toolchain printed
// in the thesis: the verification report (Fig. 2.11), the conservative
// resource analysis (Fig. 5.1), and optionally the generated backends
// (EVM disassembly, TEAL source — the index.main.mjs analogue).
package main

import (
	"flag"
	"fmt"
	"os"

	"agnopol/internal/core"
	"agnopol/internal/evm"
	"agnopol/internal/lang"
)

// compileFile compiles a .pol source file the way core compiles the shipped
// contracts.
func compileFile(path string) (*lang.Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := lang.ParseSource(string(data))
	if err != nil {
		return nil, err
	}
	return lang.Compile(prog, lang.Options{MaxBytesLen: 512, Precompiles: true})
}

func main() {
	var (
		showEVM  = flag.Bool("evm", false, "print the EVM disassembly")
		showTEAL = flag.Bool("teal", false, "print the generated TEAL source")
		analyze  = flag.Bool("analyze", true, "print the conservative analysis (Fig 5.1)")
		src      = flag.String("src", "", "compile a .pol source file instead of the shipped contracts/pol-report.pol")
	)
	flag.Parse()

	var compiled *lang.Compiled
	var err error
	if *src != "" {
		compiled, err = compileFile(*src)
	} else {
		compiled, err = core.CompilePoL()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "polc: %v\n", err)
		os.Exit(1)
	}

	fmt.Print(compiled.Report)
	fmt.Println()

	if *analyze {
		fmt.Print(compiled.Analysis)
		fmt.Println()
	}
	if *showEVM {
		fmt.Println("=== EVM backend ===")
		fmt.Print(evm.Disassemble(compiled.EVMCode))
		fmt.Println()
	}
	if *showTEAL {
		fmt.Println("=== TEAL backend ===")
		fmt.Print(compiled.TEALSource)
	}
}
