// Package pool is the repository's single bounded concurrency
// primitive: a reusable worker pool over index ranges that every
// parallel fan-out — BSP engine supersteps, the Section-5.3 parallel
// refiners, per-fragment metric evaluation, and the bench batch
// drivers — runs on instead of spawning ad-hoc goroutines.
//
// # Why a shared pool
//
// The paper's parallel refiners (ParE2H/ParV2H) and the BSP engine
// both fan out per superstep: one cost probe per batched migration
// candidate and one step call per fragment. Spawning a goroutine per
// item made the spawn count proportional to the input (thousands per
// superstep at Fig-9 scale), unbounded under concurrent benches, and
// left panics crashing the process from anonymous goroutines. The pool
// replaces that with ~GOMAXPROCS long-lived workers per process,
// chunked index claims from an atomic cursor, and first-panic capture
// re-raised on the submitting goroutine.
//
// # BSP supersteps on the pool
//
// A BSP superstep is exactly one Pool.Run: the barrier is the return
// of Run, compute is fn, and the per-index output slots are the
// "local state" workers may write. Because every site writes only
// slot i of a pre-sized slice, the memory effects of a superstep are
// a deterministic function of the input regardless of worker count or
// chunk schedule — which is what lets the engine's Report and the
// refiners' Stats stay bitwise identical between a laptop and a
// many-core CI runner (see the determinism tests).
//
// # Modes
//
//   - New(k): bounded pool, k workers (caller + k-1 parked helpers).
//   - New(0)/Default(): GOMAXPROCS-sized; Default() is the shared
//     process-wide instance, resizable once at startup via
//     SetDefaultWorkers (cmd-layer -workers flags).
//   - Serial(): one worker, caller's goroutine, ascending index
//     order — the deterministic single-threaded mode tests pin
//     against.
package pool
