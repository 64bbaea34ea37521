package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A non-zero exit must still flush the profile: the failing gated run
// is the one worth profiling.
func TestProfileSurvivesNonZeroExit(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if code := realMain([]string{"-exp", "serve", "-cpuprofile", prof}); code != 2 {
		t.Fatalf("unknown -exp exited %d, want 2", code)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("cpu profile is empty: the exit path skipped the deferred stop")
	}
}
