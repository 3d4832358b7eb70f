//go:build race

package dataplane_test

// raceEnabled reports that this binary was built with -race, which charges
// extra allocations to instrumented code and invalidates AllocsPerRun
// assertions.
const raceEnabled = true
