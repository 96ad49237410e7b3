package engine

import (
	"context"
	"fmt"
)

// Options configures a Cluster's runs. The zero value runs under
// context.Background.
type Options struct {
	// Context, when non-nil, is the default run context used by Run
	// (RunCtx callers pass their own).
	Context context.Context
}

// Configure sets the cluster's run options. Returns c for chaining,
// like UsePool.
func (c *Cluster) Configure(opts Options) *Cluster {
	c.opts = opts
	return c
}

// FailedRunError is the typed failure every non-nil error path of
// Run/RunCtx returns: non-convergence, cancellation or a step panic.
// Report always carries the partial accounting up to the last completed
// superstep, so callers can report partial cost instead of discarding
// the run.
type FailedRunError struct {
	// Reason is a short human-readable failure class, e.g.
	// "no convergence within 10 supersteps".
	Reason string
	// Report is the partial report; never nil.
	Report *Report
	// Err is the underlying cause (context error or *pool.Panic), or
	// nil when Reason stands alone.
	Err error
}

func (e *FailedRunError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("engine: %s: %v", e.Reason, e.Err)
	}
	return "engine: " + e.Reason
}

// Unwrap exposes the underlying cause to errors.Is/As, so callers can
// match context.Canceled, context.DeadlineExceeded or *pool.Panic
// through the typed wrapper.
func (e *FailedRunError) Unwrap() error { return e.Err }
