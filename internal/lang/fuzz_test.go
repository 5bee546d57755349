package lang

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSource: the textual frontend is on the production path (core
// compiles the shipped .pol files), so for any input the pipeline
// ParseSource → Check → Compile must not panic, and
// whatever it refuses it must refuse with one of the package's typed errors
// — an untyped backend error is a hole in Check.
func FuzzParseSource(f *testing.F) {
	files, err := filepath.Glob("../../contracts/*.pol")
	if err != nil || len(files) == 0 {
		f.Fatalf("no contracts found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, tc := range namespaceClashes {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		refused := func(stage string, err error) bool {
			if err != nil && !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrType) && !errors.Is(err, ErrVerification) {
				t.Fatalf("%s failed with an untyped error: %v", stage, err)
			}
			return err != nil
		}
		prog, err := ParseSource(src)
		if refused("ParseSource", err) || refused("Check", Check(prog)) {
			return
		}
		_, err = Compile(prog, Options{})
		refused("Compile", err)
	})
}
