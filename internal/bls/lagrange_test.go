package bls

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ff"
)

// lagrangeCoefficientOracle is the per-share form lagrangeCoefficients
// replaced: L_i(0) over xs with its own Fr inversion. It stays here as
// the oracle the batched form must match bit for bit.
func lagrangeCoefficientOracle(i int, xs []uint32) (ff.Fr, error) {
	var num, den ff.Fr
	num.SetOne()
	den.SetOne()
	var xi ff.Fr
	xi.SetUint64(uint64(xs[i]))
	for j, xjv := range xs {
		if j == i {
			continue
		}
		if xjv == xs[i] {
			return ff.Fr{}, fmt.Errorf("bls: duplicate share index %d", xjv)
		}
		var xj ff.Fr
		xj.SetUint64(uint64(xjv))
		var negXj, diff ff.Fr
		negXj.Neg(&xj)
		num.Mul(&num, &negXj)
		diff.Sub(&xi, &xj)
		den.Mul(&den, &diff)
	}
	den.Inverse(&den)
	var out ff.Fr
	out.Mul(&num, &den)
	return out, nil
}

// TestLagrangeCoefficientsMatchOracle: the batched inversion gives the
// per-share function's coefficients bit for bit, over contiguous index
// sets 1..t, random sparse ones of sizes 1 to 8 (indexes up to 2^32-1
// included), and index sets with a repeat, which both must refuse.
func TestLagrangeCoefficientsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var sets [][]uint32
	for size := 1; size <= 8; size++ {
		contiguous := make([]uint32, size)
		for i := range contiguous {
			contiguous[i] = uint32(i + 1)
		}
		sets = append(sets, contiguous)
		for _, max := range []uint32{16, 1000, 1<<32 - 1} {
			for trial := 0; trial < 20; trial++ {
				seen := map[uint32]bool{}
				xs := make([]uint32, 0, size)
				for len(xs) < size {
					x := 1 + uint32(rng.Int63n(int64(max)))
					if !seen[x] {
						seen[x] = true
						xs = append(xs, x)
					}
				}
				sets = append(sets, xs)
			}
		}
	}
	for _, xs := range sets {
		got, err := lagrangeCoefficients(xs)
		if err != nil {
			t.Fatalf("%v: %v", xs, err)
		}
		if len(got) != len(xs) {
			t.Fatalf("%v: %d coefficients", xs, len(got))
		}
		for i := range xs {
			want, err := lagrangeCoefficientOracle(i, xs)
			if err != nil {
				t.Fatalf("%v: oracle: %v", xs, err)
			}
			if got[i] != want {
				t.Fatalf("%v: L_%d(0) = %v, oracle %v", xs, i, &got[i], &want)
			}
		}
	}
	for _, xs := range [][]uint32{{3, 3}, {1, 2, 1}, {5, 9, 7, 9}} {
		_, err := lagrangeCoefficients(xs)
		_, want := lagrangeCoefficientOracle(0, xs)
		for i := 1; want == nil; i++ {
			_, want = lagrangeCoefficientOracle(i, xs)
		}
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%v: error %v, oracle %v", xs, err, want)
		}
	}
}
