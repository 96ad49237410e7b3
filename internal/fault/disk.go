package fault

import (
	"errors"
	"fmt"
	"sync"
)

// The crash-consistent store (internal/store) threads every file write
// and fsync through a DiskInjector, so torn frames, failed syncs, and
// mid-write process deaths are deterministic, replayable events rather
// than rare hardware accidents: whether an operation faults depends
// only on the armed schedule and the operation counters.

// ErrDiskFault is the sentinel wrapped by every injected disk error
// that is NOT a simulated process death; callers distinguish injected
// faults from real I/O errors with errors.Is.
var ErrDiskFault = errors.New("injected disk fault")

// ErrCrashed is returned by every operation after a CrashWrite event
// fires: the process is "dead" and the store must be reopened (in a
// test, on the bytes that actually reached the file) to make progress.
var ErrCrashed = errors.New("injected crash: process considered dead")

// DiskKind enumerates the injectable disk-fault classes.
type DiskKind uint8

const (
	// ShortWrite lets only Bytes bytes of the targeted write through,
	// then fails the call. The store sees the error and poisons itself;
	// the on-disk tail is a torn frame for recovery to truncate.
	ShortWrite DiskKind = iota + 1
	// SyncErr fails the targeted fsync. Data may or may not be durable
	// — exactly the ambiguity a real EIO leaves behind.
	SyncErr
	// CrashWrite lets Bytes bytes of the targeted write through and
	// then kills the process model: the write fails with ErrCrashed and
	// every later operation fails the same way.
	CrashWrite
)

// String names the kind using the flag spelling.
func (k DiskKind) String() string {
	switch k {
	case ShortWrite:
		return "shortw"
	case SyncErr:
		return "syncerr"
	case CrashWrite:
		return "crashw"
	}
	return "invalid"
}

// DiskEvent is one scheduled disk fault, pinned to an operation
// counter: the Nth write (ShortWrite/CrashWrite) or the Nth fsync
// (SyncErr) issued through the injector, counting from 0.
type DiskEvent struct {
	Kind DiskKind
	// N is the 0-based index of the targeted operation within its class
	// (write ops for ShortWrite/CrashWrite, sync ops for SyncErr).
	N int
	// Bytes is how many bytes of the targeted write survive before the
	// fault (clamped to the write's length).
	Bytes int
}

// String renders the event as kind@N[:bytes].
func (e DiskEvent) String() string {
	if e.Kind == SyncErr {
		return fmt.Sprintf("%s@%d", e.Kind, e.N)
	}
	return fmt.Sprintf("%s@%d:%d", e.Kind, e.N, e.Bytes)
}

// DiskInjector arms a schedule of disk faults for one store instance.
// All methods are safe for concurrent use; determinism holds because
// firing depends only on the armed schedule and the operation
// counters, and the store issues its writes in a fixed order.
type DiskInjector struct {
	mu      sync.Mutex
	events  []DiskEvent
	writes  int
	syncs   int
	crashed bool
}

// NewDiskInjector arms the given schedule. The slice is copied.
func NewDiskInjector(events ...DiskEvent) *DiskInjector {
	return &DiskInjector{events: append([]DiskEvent(nil), events...)}
}

// Crashed reports whether a CrashWrite event has fired.
func (d *DiskInjector) Crashed() bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Writes returns the number of write operations observed so far —
// handy for pinning a follow-up schedule to a recorded run.
func (d *DiskInjector) Writes() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// BeforeWrite consults the schedule for the next write of length n.
// It returns how many bytes the caller should actually write and the
// error the caller must return after doing so (nil for a clean write).
func (d *DiskInjector) BeforeWrite(n int) (allow int, err error) {
	if d == nil {
		return n, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	idx := d.writes
	d.writes++
	for _, e := range d.events {
		if e.N != idx {
			continue
		}
		switch e.Kind {
		case ShortWrite:
			b := e.Bytes
			if b > n {
				b = n
			}
			return b, fmt.Errorf("short write after %d of %d bytes: %w", b, n, ErrDiskFault)
		case CrashWrite:
			d.crashed = true
			b := e.Bytes
			if b > n {
				b = n
			}
			return b, ErrCrashed
		}
	}
	return n, nil
}

// BeforeSync consults the schedule for the next fsync; a non-nil error
// means the sync must fail without reaching the disk.
func (d *DiskInjector) BeforeSync() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	idx := d.syncs
	d.syncs++
	for _, e := range d.events {
		if e.Kind == SyncErr && e.N == idx {
			return fmt.Errorf("fsync failed: %w", ErrDiskFault)
		}
	}
	return nil
}
