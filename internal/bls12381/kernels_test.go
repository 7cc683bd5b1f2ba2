package bls12381

import (
	"testing"
	_ "unsafe" // go:linkname
)

// useGoKernels is ff's test seam: it points Fp.Mul at the Go kernel,
// the fallback on CPUs without ADX, until restore is called.
//
//go:linkname useGoKernels repro/internal/ff.useGoKernels
func useGoKernels() (restore func())

// forEachKernel runs f once under the field kernels this CPU dispatches
// to and once under ff's Go fallback, so the fallback stays covered on
// a CPU that never selects it. Not for parallel tests: it switches a
// process-wide kernel.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Run("dispatch", f)
	t.Run("go", func(t *testing.T) {
		defer useGoKernels()()
		f(t)
	})
}
