package bls12381

import (
	"fmt"
	"testing"

	"repro/internal/ff"
)

// Ablation benchmarks for the scalar arithmetic engine: every fast
// path benchmarked side by side with the retained naive implementation,
// so the before/after table in DESIGN.md §8 is reproducible from one
// run. CI's curve-perf job emits these as BENCH_curve.json.

func benchFixtureG1(b *testing.B) (G1Jac, ff.Fr) {
	b.Helper()
	k, err := ff.RandFr()
	if err != nil {
		b.Fatal(err)
	}
	p := G1ScalarBaseMult(&k)
	var j G1Jac
	j.FromAffine(&p)
	return j, k
}

func BenchmarkScalarMultG1(b *testing.B) {
	base, k := benchFixtureG1(b)
	kb := k.Big()
	b.Run("naive", func(b *testing.B) {
		var out G1Jac
		for i := 0; i < b.N; i++ {
			out.ScalarMultBig(&base, kb)
		}
	})
	b.Run("wnaf-glv", func(b *testing.B) {
		var out G1Jac
		for i := 0; i < b.N; i++ {
			out.ScalarMult(&base, &k)
		}
	})
}

func BenchmarkScalarMultG2(b *testing.B) {
	k, err := ff.RandFr()
	if err != nil {
		b.Fatal(err)
	}
	p := G2ScalarBaseMult(&k)
	var base G2Jac
	base.FromAffine(&p)
	kb := k.Big()
	b.Run("naive", func(b *testing.B) {
		var out G2Jac
		for i := 0; i < b.N; i++ {
			out.ScalarMultBig(&base, kb)
		}
	})
	b.Run("wnaf", func(b *testing.B) {
		var out G2Jac
		for i := 0; i < b.N; i++ {
			out.ScalarMult(&base, &k)
		}
	})
}

func BenchmarkScalarMultBaseG1(b *testing.B) {
	k, err := ff.RandFr()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("naive", func(b *testing.B) {
		kb := k.Big()
		for i := 0; i < b.N; i++ {
			gen := G1Generator()
			var j, out G1Jac
			j.FromAffine(&gen)
			out.ScalarMultBig(&j, kb)
			_ = out.Affine()
		}
	})
	b.Run("table", func(b *testing.B) {
		_ = G1ScalarBaseMult(&k) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = G1ScalarBaseMult(&k)
		}
	})
}

func BenchmarkScalarMultBaseG2(b *testing.B) {
	k, err := ff.RandFr()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("naive", func(b *testing.B) {
		kb := k.Big()
		for i := 0; i < b.N; i++ {
			gen := G2Generator()
			var j, out G2Jac
			j.FromAffine(&gen)
			out.ScalarMultBig(&j, kb)
			_ = out.Affine()
		}
	})
	b.Run("table", func(b *testing.B) {
		_ = G2ScalarBaseMult(&k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = G2ScalarBaseMult(&k)
		}
	})
}

func benchMSMG1(b *testing.B, n int) {
	points := make([]G1Affine, n)
	scalars := make([]ff.Fr, n)
	for i := 0; i < n; i++ {
		k, err := ff.RandFr()
		if err != nil {
			b.Fatal(err)
		}
		scalars[i] = k
		points[i] = G1ScalarBaseMult(&k)
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = msmNaiveG1(points, scalars)
		}
	})
	b.Run("pippenger", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = G1MultiScalarMult(points, scalars)
		}
	})
}

func BenchmarkMSMG1(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMSMG1(b, n) })
	}
}

func BenchmarkMSMG2(b *testing.B) {
	const n = 64
	points := make([]G2Affine, n)
	scalars := make([]ff.Fr, n)
	for i := 0; i < n; i++ {
		k, err := ff.RandFr()
		if err != nil {
			b.Fatal(err)
		}
		scalars[i] = k
		points[i] = G2ScalarBaseMult(&k)
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = msmNaiveG2(points, scalars)
		}
	})
	b.Run("pippenger", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = G2MultiScalarMult(points, scalars)
		}
	})
}

// BenchmarkPairingCheck10 is the quorum-verify shape: ten pairs, as in
// one source head plus a 9-witness cosignature batch.
func BenchmarkPairingCheck10(b *testing.B) {
	const n = 10
	ps := make([]G1Affine, n)
	qs := make([]G2Affine, n)
	for i := 0; i < n; i++ {
		k, err := ff.RandFr()
		if err != nil {
			b.Fatal(err)
		}
		ps[i] = G1ScalarBaseMult(&k)
		qs[i] = G2ScalarBaseMult(&k)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = PairingCheckSequential(ps, qs)
		}
	})
	b.Run("lockstep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = PairingCheck(ps, qs)
		}
	})
}

// BenchmarkMillerLoop2 is the Miller loop of one signature check (two
// pairs): cold walks both G2 points and builds their line tables inside
// the loop, as PairingCheck does; warm evaluates tables built once, as
// bls does for -G2 and a memoized key. CI gates warm >= 1.2x cold.
func BenchmarkMillerLoop2(b *testing.B) {
	ps := []G1Affine{randG1(b), randG1(b)}
	qs := []G2Affine{randG2(b), randG2(b)}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = MillerLoopBatch(ps, qs)
		}
	})
	b.Run("warm", func(b *testing.B) {
		tables := []*G2Prepared{PrepareG2(&qs[0]), PrepareG2(&qs[1])}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = millerLoopPrepared(ps, tables)
		}
	})
}
