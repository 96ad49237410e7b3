//go:build !race

package algorithms

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation allocates.
const raceEnabled = false
