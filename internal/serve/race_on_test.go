//go:build race

package serve

// raceDetector reports whether the test binary was built with -race,
// whose instrumentation allocates on paths that otherwise do not.
const raceDetector = true
