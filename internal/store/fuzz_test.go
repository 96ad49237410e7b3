package store

import (
	"os"
	"path/filepath"
	"testing"

	"adp/internal/graph"
)

// FuzzWALReplay feeds arbitrary bytes as the WAL segment of an
// otherwise-intact store: Open must never panic, and whenever it
// succeeds the recovered composite must pass full index validation —
// torn, bit-flipped, or adversarial logs degrade to a shorter committed
// prefix, never to a corrupt store.
func FuzzWALReplay(f *testing.F) {
	g, muts, snapBytes, walBytes := recordFuzzRun(f)

	f.Add(walBytes)
	f.Add(walBytes[:len(walBytes)/2])
	f.Add(walBytes[:segHdrLen])
	f.Add([]byte{})
	tampered := append([]byte(nil), walBytes...)
	tampered[len(tampered)/3] ^= 0xFF
	f.Add(tampered)
	// The version-2 header only earlier stores wrote: once with a vector
	// the composite can place, once with a fragment out of range.
	f.Add(v2Segment(walBytes, []int{1, 2}))
	f.Add(v2Segment(walBytes, []int{0, 99}))

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(0)), snapBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName(1)), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, info, err := Open(dir, g, Options{})
		if err != nil {
			return // refusing hostile input is fine; panicking is not
		}
		defer s.Close()
		if err := s.Composite().ValidateIndex(); err != nil {
			t.Fatalf("recovered composite fails validation: %v", err)
		}
		if info.Replayed > len(muts) {
			// The log can only ack mutations that were actually recorded;
			// anything more means replay invented state.
			t.Fatalf("replayed %d mutations from a %d-mutation log", info.Replayed, len(muts))
		}
		// And the store fsck sees after recovery must be structurally
		// clean: recovery's truncation is fsck's definition of repair.
		rep, err := Fsck(dir, g, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range rep.Segments {
			if seg.Damage != nil {
				t.Fatalf("damage survives recovery: %v", seg.Damage)
			}
		}
	})
}

// recordFuzzRun is recordRun sized for the fuzz corpus (fewer
// mutations keep per-input work small).
func recordFuzzRun(f *testing.F) (g *graph.Graph, muts []Mutation, snapBytes, walBytes []byte) {
	gg, c := testComposite(f)
	dir := f.TempDir()
	s, err := Create(dir, c, Options{})
	if err != nil {
		f.Fatal(err)
	}
	muts = genMutations(f, gg, s.Composite(), 60, 31)
	for _, m := range muts {
		if m.Kind == MutInsert {
			err = s.Insert(m.U, m.V, m.Dest)
		} else {
			_, err = s.Delete(m.U, m.V)
		}
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	snapBytes, err = os.ReadFile(filepath.Join(dir, snapName(0)))
	if err != nil {
		f.Fatal(err)
	}
	walBytes, err = os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return gg, muts, snapBytes, walBytes
}
