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
