// The benchmark is a module of its own so that it builds from its own
// build file; the module path sits under "adp/" so that it may import
// adp/internal/... (surface.go is the only file that does).
module adp/benchmark

go 1.22

require adp v0.0.0

replace adp => ../
