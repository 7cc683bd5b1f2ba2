//go:build race

package bls

// raceDetector reports whether the test binary was built with -race,
// under which field arithmetic runs roughly 12x slower.
const raceDetector = true
