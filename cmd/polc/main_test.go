package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGolden pins polc's output byte for byte: the default run (the
// shipped pol-report contract) and one run per contracts/*.pol source.
// Regenerate with `go test ./cmd/polc -update`.
func TestGolden(t *testing.T) {
	srcs, err := filepath.Glob("../../contracts/*.pol")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no contract sources: %v", err)
	}
	runs := map[string][]string{"default": nil}
	for _, src := range srcs {
		runs[strings.TrimSuffix(filepath.Base(src), ".pol")] = []string{"-src", src}
	}
	for name, args := range runs {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("polc %v: exit %d: %s", args, code, stderr.String())
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("polc %v differs from %s at line %d:\n got %q\nwant %q", args, path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("polc %v: %d lines, %s has %d", args, len(gl), path, len(wl))
			}
		})
	}
}

// TestExitStatus: a source that does not compile exits 1 with the reason
// on stderr, a bad flag exits 2, -h exits 0; none prints to stdout.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-src", filepath.Join(t.TempDir(), "missing.pol")}, 1},
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("polc %v: exit %d, %d bytes on stdout, %d on stderr; want exit %d, output on stderr only",
				tc.args, code, stdout.Len(), stderr.Len(), tc.code)
		}
	}
}
