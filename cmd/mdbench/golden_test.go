package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper-figs.golden from this build")

// paperFigs are the paper's figures that mdbench reproduces on the
// simulated testbed: virtual time, so the output is the same on every run.
var paperFigs = []string{"-fig", "7,8,9,10,clone"}

// paperFigsEnv makes the test binary print paperFigs and exit, so the
// figures run in a process of their own: encoding/gob numbers types
// process-wide at their first encode, and a migration frame's gob parts
// (so its length, so the simulated transfer time) would otherwise depend
// on which tests ran before this one.
const paperFigsEnv = "MDBENCH_PAPER_FIGS_CHILD"

func paperFigsChildMain() bool {
	if os.Getenv(paperFigsEnv) == "" {
		return false
	}
	if err := run(paperFigs, os.Stdout); err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(3)
	}
	return true
}

// TestPaperFiguresGolden pins the simulated Figs. 7-10 and the
// clone-dispatch table byte for byte. A change that moves them rewrites
// the file with -update and says which rows moved, and why.
func TestPaperFiguresGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), paperFigsEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("mdbench %v: %v\n%s", paperFigs, err, stderr.Bytes())
	}
	path := filepath.Join("testdata", "paper-figs.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
		t.Fatalf("mdbench %v differs from %s (go test ./cmd/mdbench -run TestPaperFiguresGolden -update rewrites it)", paperFigs, path)
	}
}
