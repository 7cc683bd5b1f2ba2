//go:build !race

package bls

const raceDetector = false
