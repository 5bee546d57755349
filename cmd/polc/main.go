// Command polc compiles the proof-of-location contract with the
// blockchain-agnostic compiler and prints what the Reach toolchain printed
// in the thesis: the verification report (Fig. 2.11), the conservative
// resource analysis (Fig. 5.1), and optionally the generated backends
// (EVM disassembly, TEAL source — the index.main.mjs analogue).
package main

import (
	"flag"
	"fmt"
	"io"
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
	return lang.Compile(prog, lang.Options{MaxBytesLen: 512})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status — 0, 1 for a source
// that does not compile, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		showEVM  = fs.Bool("evm", false, "print the EVM disassembly")
		showTEAL = fs.Bool("teal", false, "print the generated TEAL source")
		analyze  = fs.Bool("analyze", true, "print the conservative analysis (Fig 5.1)")
		src      = fs.String("src", "", "compile a .pol source file instead of the shipped contracts/pol-report.pol")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2 // the flag package already printed the error and usage
	}

	var compiled *lang.Compiled
	var err error
	if *src != "" {
		compiled, err = compileFile(*src)
	} else {
		compiled, err = core.CompilePoL()
	}
	if err != nil {
		fmt.Fprintf(stderr, "polc: %v\n", err)
		return 1
	}

	fmt.Fprintln(stdout, compiled.Report)
	if *analyze {
		fmt.Fprintln(stdout, compiled.Analysis)
	}
	if *showEVM {
		fmt.Fprintln(stdout, "=== EVM backend ===")
		fmt.Fprintln(stdout, evm.Disassemble(compiled.EVMCode))
	}
	if *showTEAL {
		fmt.Fprintln(stdout, "=== TEAL backend ===")
		fmt.Fprint(stdout, compiled.TEALSource)
	}
	return 0
}
