package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/greentoken.golden from the current output")

// TestGolden pins the example's output byte for byte: the minted asset,
// the credential and its presentation, the accepted report and the GREEN
// payout. Regenerate with `go test ./examples/greentoken -update`.
func TestGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("greentoken: exit %d: %s", code, stderr.String())
	}
	path := filepath.Join("testdata", "greentoken.golden")
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
				t.Fatalf("output differs from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}

// TestStrayArgument: the example takes no arguments.
func TestStrayArgument(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"x"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
		t.Fatalf("exit %d, %d bytes on stdout, %d on stderr; want exit 2, output on stderr only",
			code, stdout.Len(), stderr.Len())
	}
}
