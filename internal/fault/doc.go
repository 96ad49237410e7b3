// Package fault provides deterministic fault injection for the storage
// plane. A DiskInjector tears writes, fails fsyncs and kills the
// process mid-write for the crash-consistent store (internal/store).
// It is armed with a schedule pinned to operation counters, so a
// schedule is a pure value and any run under it is replayable.
//
// The injector never consults the wall clock or global randomness:
// whether an operation faults depends only on the schedule and the
// counters, which is what makes the store's committed-prefix contract
// testable (see DESIGN.md).
package fault
