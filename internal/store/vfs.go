package store

import (
	"os"
	"path/filepath"
	"sort"

	"adp/internal/fault"
)

// The store reaches the filesystem only through this seam, so a
// fault.DiskInjector can deterministically tear writes, fail fsyncs,
// or kill the "process" mid-write without touching the os package in
// tests.

type vfile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type vfs interface {
	// Create truncates/creates name for writing.
	Create(name string) (vfile, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// Size returns the current length of name in bytes.
	Size(name string) (int64, error)
	// List returns the file names (not paths) in dir, sorted.
	List(dir string) ([]string, error)
}

// osVFS is the real filesystem.
type osVFS struct{}

func (osVFS) Create(name string) (vfile, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osVFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osVFS) Rename(o, n string) error             { return os.Rename(o, n) }
func (osVFS) Remove(name string) error             { return os.Remove(name) }
func (osVFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}

func (osVFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osVFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// faultVFS wraps a vfs, threading every write and fsync through a
// DiskInjector. Reads, renames and removals pass through untouched:
// the injector models a dying write path, and metadata operations
// either happen or don't (the crash-point sweep covers the "don't"
// case by truncating copies of the directory instead).
type faultVFS struct {
	base vfs
	inj  *fault.DiskInjector
}

func withInjector(base vfs, inj *fault.DiskInjector) vfs {
	if inj == nil {
		return base
	}
	return &faultVFS{base: base, inj: inj}
}

type faultFile struct {
	f   vfile
	inj *fault.DiskInjector
}

func (v *faultVFS) Create(name string) (vfile, error) {
	if v.inj.Crashed() {
		return nil, fault.ErrCrashed
	}
	f, err := v.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, inj: v.inj}, nil
}

func (v *faultVFS) ReadFile(name string) ([]byte, error) { return v.base.ReadFile(name) }
func (v *faultVFS) Rename(o, n string) error {
	if v.inj.Crashed() {
		return fault.ErrCrashed
	}
	return v.base.Rename(o, n)
}
func (v *faultVFS) Remove(name string) error { return v.base.Remove(name) }
func (v *faultVFS) Truncate(name string, size int64) error {
	if v.inj.Crashed() {
		return fault.ErrCrashed
	}
	return v.base.Truncate(name, size)
}
func (v *faultVFS) Size(name string) (int64, error)   { return v.base.Size(name) }
func (v *faultVFS) List(dir string) ([]string, error) { return v.base.List(dir) }

func (f *faultFile) Write(p []byte) (int, error) {
	allow, ferr := f.inj.BeforeWrite(len(p))
	if ferr == nil {
		return f.f.Write(p)
	}
	n := 0
	if allow > 0 {
		// The surviving prefix really reaches the file: that is what a
		// torn write leaves behind for recovery to find.
		n, _ = f.f.Write(p[:allow])
	}
	return n, ferr
}

func (f *faultFile) Sync() error {
	if err := f.inj.BeforeSync(); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *faultFile) Close() error { return f.f.Close() }

func join(dir, name string) string { return filepath.Join(dir, name) }
