//go:build !race

package topology

// raceEnabled reports whether the race detector instruments this build.
// Alloc-count pins are skipped under -race: the instrumented runtime
// allocates shadow state on its own schedule, so AllocsPerRun deltas
// stop measuring the code under test.
const raceEnabled = false
