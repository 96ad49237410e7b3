package main

import (
	"path/filepath"
	"testing"

	"adp/internal/testutil"
)

// TestProfileWrittenOnFailure: a run that fails after profiling started
// must still stop the profile, or -cpuprofile leaves an unusable file.
func TestProfileWrittenOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if code := run([]string{"-cpuprofile", path, "no-such-experiment"}); code != 2 {
		t.Fatalf("exit code %d for an unknown experiment id, want 2", code)
	}
	testutil.CheckCPUProfile(t, path)
}

// TestNegativeWorkersRejected: -workers below zero is a flag error, not
// a silent fall-back to GOMAXPROCS.
func TestNegativeWorkersRejected(t *testing.T) {
	if code := run([]string{"-workers", "-1", "list"}); code != 2 {
		t.Fatalf("exit code %d for -workers -1, want 2", code)
	}
}
