// Package fault provides deterministic fault injection for the storage
// and replication planes. A DiskInjector tears writes, fails fsyncs
// and kills the process mid-write for the crash-consistent store
// (internal/store); a NetInjector drops, duplicates, reorders and
// delays frames, and opens partition windows, for the WAL-shipping
// transport (internal/replica). Each is armed with a schedule pinned to
// operation counters, either written out explicitly or generated from a
// seed (RandomNet); either way a schedule is a pure value, so any run
// under it is replayable.
//
// An injector never consults the wall clock or global randomness:
// whether an operation faults depends only on the schedule and the
// counters, which is what makes the store's committed-prefix and the
// replicas' convergence contracts testable (see DESIGN.md).
package fault
