package testutil

import (
	"compress/gzip"
	"io"
	"os"
)

// CheckCPUProfile fails t unless path holds a complete CPU profile.
// runtime/pprof writes the whole gzip-compressed protobuf only when the
// profile is stopped, so a run that exits without stopping leaves an
// empty file; reading the stream to its end also verifies the gzip
// length and checksum trailer.
func CheckCPUProfile(t TB, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile %s is not a gzip stream (was the profile stopped?): %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile %s is truncated: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("profile %s is empty", path)
	}
}
