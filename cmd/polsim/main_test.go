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

// TestGolden pins polsim's narration byte for byte on both chain families
// and the -explorer history. Regenerate with `go test ./cmd/polsim -update`.
func TestGolden(t *testing.T) {
	for name, args := range map[string][]string{
		"algorand":        {"-chain", "algorand"},
		"goerli":          {"-chain", "goerli"},
		"goerli-explorer": {"-chain", "goerli", "-explorer"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("polsim %v: exit %d: %s", args, code, stderr.String())
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
						t.Fatalf("polsim %v differs from %s at line %d:\n got %q\nwant %q", args, path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("polsim %v: %d lines, %s has %d", args, len(gl), path, len(wl))
			}
		})
	}
}

// TestExitStatus: a run that cannot start exits 1 with the reason on
// stderr, a bad flag exits 2, -h exits 0; none prints to stdout.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-chain", "nope"}, 1},
		{[]string{"-users", "5"}, 1},
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("polsim %v: exit %d, %d bytes on stdout, %d on stderr; want exit %d, output on stderr only",
				tc.args, code, stdout.Len(), stderr.Len(), tc.code)
		}
	}
}
