package pool

import "context"

// MapCtx is Map with cancellation: slots whose items never started
// (because ctx was cancelled) keep their zero value, and the ctx error
// is returned alongside the partial result.
func MapCtx[T any](p *Pool, ctx context.Context, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := p.RunCtx(ctx, n, func(i int) {
		out[i] = fn(i)
	})
	return out, err
}
