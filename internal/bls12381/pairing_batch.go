package bls12381

import (
	"runtime"
	"sync"

	"repro/internal/ff"
)

// The Miller loop. All pairs run in lockstep over the shared bit
// pattern of |x|, so ONE Fp12 squaring chain serves every pair
// ((prod f_i)^2 = prod f_i^2): the accumulator squares once per
// iteration and each pair's line multiplies in.
//
// T is kept in homogeneous projective coordinates (x = X/Z, y = Y/Z)
// and stepped with the Costello-Lange-Naehrig doubling and
// mixed-addition formulas for y^2 = x^3 + b' (eprint 2009/615), so a
// step costs a handful of Fp2 products and no inversion. Clearing the
// slope's denominator scales each line by an Fp2 factor, which the
// final exponentiation kills; per step, with the line written
// c0 + c3*W^3 + c5*W^5:
//
//	doubling  (3 M + 6 S in Fp2, + 4 Fp products for the line)
//	  c0 = -2YZ * xi*yP     c3 = 3b'Z^2 - Y^2     c5 = 3X^2 * xP
//	  X3 = 2XY(Y^2 - 9b'Z^2)
//	  Y3 = (Y^2 + 9b'Z^2)^2 - 12(3b'Z^2)^2
//	  Z3 = 8Y^3 Z
//	addition of affine Q, theta = Y - yQ*Z, lambda = X - xQ*Z
//	          (11 M + 2 S in Fp2, + 4 Fp products for the line)
//	  c0 = lambda * xi*yP   c3 = theta*xQ - lambda*yQ   c5 = -theta * xP
//	  H  = lambda^3 + Z*theta^2 - 2X*lambda^2
//	  X3 = lambda*H
//	  Y3 = theta*(X*lambda^2 - H) - Y*lambda^3
//	  Z3 = Z*lambda^3
//
// (the doubling is the usual halved form scaled by 4, so there is no
// division by two either). The formulas are branch-free and assume what
// every caller guarantees: Q in the order-r subgroup, where T never
// meets infinity or +-Q inside the loop.
//
// On top of that, PairingCheck shards the pairs across cores (each
// worker runs its own lockstep loop) and every partial product shares
// the single final exponentiation. After the final exponentiation the
// result is bit-identical to the affine per-pair oracle
// (TestMillerLoopBatchMatchesProduct, TestPairingMatchesAffineOracle).

// millerPair is the per-pair state of the lockstep loop: T = (X:Y:Z)
// walks the twist; the G1 point enters only as the two Fp scalars that
// scale the line coefficients.
type millerPair struct {
	q       G2Affine
	x, y, z ff.Fp2
	xp, yp  ff.Fp
}

// mulBy12 sets z = 12z with four additions.
func mulBy12(z *ff.Fp2) {
	var t ff.Fp2
	t.Double(z)
	z.Add(&t, z)
	z.Double(z)
	z.Double(z)
}

// doubleStep multiplies the tangent line at T, evaluated at P, into f
// and sets T = 2T.
func (mp *millerPair) doubleStep(f *ff.Fp12) {
	var a, b, c, e, e3, g, h, j, t ff.Fp2
	a.Mul(&mp.x, &mp.y) // XY
	b.Square(&mp.y)     // Y^2
	c.Square(&mp.z)     // Z^2
	j.Square(&mp.x)     // X^2
	h.Add(&mp.y, &mp.z)
	h.Square(&h)
	h.Sub(&h, &b)
	h.Sub(&h, &c) // 2YZ
	e.MulByNonResidue(&c)
	mulBy12(&e) // 3b'Z^2 = 12*xi*Z^2 (b' = 4*xi)
	t.Double(&e)
	e3.Add(&t, &e) // 9b'Z^2
	g.Add(&b, &e3)

	var c0, c3, c5 ff.Fp2
	c0.MulByNonResidue(&h)
	c0.MulByFp(&c0, &mp.yp)
	c0.Neg(&c0)
	c3.Sub(&e, &b)
	c5.Double(&j)
	c5.Add(&c5, &j)
	c5.MulByFp(&c5, &mp.xp)
	f.MulBySparse035(f, &c0, &c3, &c5)

	t.Sub(&b, &e3)
	mp.x.Mul(&a, &t)
	mp.x.Double(&mp.x)
	e.Square(&e)
	mulBy12(&e) // 12(3b'Z^2)^2
	g.Square(&g)
	mp.y.Sub(&g, &e)
	mp.z.Mul(&b, &h)
	mp.z.Double(&mp.z)
	mp.z.Double(&mp.z)
}

// addStep multiplies the chord through T and Q, evaluated at P, into f
// and sets T = T + Q.
func (mp *millerPair) addStep(f *ff.Fp12) {
	var theta, lambda, c, d, e, g, h, t ff.Fp2
	theta.Mul(&mp.q.Y, &mp.z)
	theta.Sub(&mp.y, &theta)
	lambda.Mul(&mp.q.X, &mp.z)
	lambda.Sub(&mp.x, &lambda)

	var c0, c3, c5 ff.Fp2
	c0.MulByNonResidue(&lambda)
	c0.MulByFp(&c0, &mp.yp)
	c3.Mul(&theta, &mp.q.X)
	t.Mul(&lambda, &mp.q.Y)
	c3.Sub(&c3, &t)
	c5.MulByFp(&theta, &mp.xp)
	c5.Neg(&c5)
	f.MulBySparse035(f, &c0, &c3, &c5)

	c.Square(&theta)
	d.Square(&lambda)
	e.Mul(&lambda, &d) // lambda^3
	g.Mul(&mp.x, &d)   // X*lambda^2
	h.Mul(&mp.z, &c)
	h.Add(&h, &e)
	h.Sub(&h, &g)
	h.Sub(&h, &g)
	mp.x.Mul(&lambda, &h)
	g.Sub(&g, &h)
	g.Mul(&theta, &g)
	t.Mul(&e, &mp.y)
	mp.y.Sub(&g, &t)
	mp.z.Mul(&mp.z, &e)
}

// MillerLoopBatch computes the product of Miller loop values
// prod_i f_{|x|,Q_i}(P_i) (conjugated for the negative curve
// parameter), sharing one Fp12 squaring chain across pairs. Pairs with
// either point at infinity contribute 1. The value is defined up to an
// Fp2* factor; only FinalExponentiation of it is canonical.
func MillerLoopBatch(ps []G1Affine, qs []G2Affine) ff.Fp12 {
	if len(ps) != len(qs) {
		panic("bls12381: MillerLoopBatch length mismatch")
	}
	pairs := make([]millerPair, 0, len(ps))
	for i := range ps {
		if ps[i].Infinity || qs[i].Infinity {
			continue
		}
		mp := millerPair{q: qs[i], x: qs[i].X, y: qs[i].Y, xp: ps[i].X, yp: ps[i].Y}
		mp.z.SetOne()
		pairs = append(pairs, mp)
	}
	f := ff.Fp12One()
	if len(pairs) == 0 {
		return f
	}

	msb := 63
	for msb >= 0 && (blsX>>uint(msb))&1 == 0 {
		msb--
	}
	for i := msb - 1; i >= 0; i-- {
		f.Square(&f)
		for j := range pairs {
			pairs[j].doubleStep(&f)
		}
		if (blsX>>uint(i))&1 == 1 {
			for j := range pairs {
				pairs[j].addStep(&f)
			}
		}
	}
	if blsXIsNegative {
		f.Conjugate(&f)
	}
	return f
}

// pairingWorkers caps the Miller-loop worker pool. One worker per core,
// never more workers than pairs.
func pairingWorkers(pairs int) int {
	w := runtime.GOMAXPROCS(0)
	if w > pairs {
		w = pairs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PairingCheck reports whether prod e(Pi, Qi) == 1. The Miller loops
// run as lockstep batches sharded across cores, and all partial
// products share ONE final exponentiation.
func PairingCheck(ps []G1Affine, qs []G2Affine) bool {
	if len(ps) != len(qs) {
		return false
	}
	n := len(ps)
	pairObs.checks.Inc()
	pairObs.pairs.Add(uint64(n))
	workers := pairingWorkers(n)
	var acc ff.Fp12
	if workers <= 1 {
		acc = MillerLoopBatch(ps, qs)
	} else {
		partials := make([]ff.Fp12, workers)
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				partials[w] = ff.Fp12One()
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				partials[w] = MillerLoopBatch(ps[lo:hi], qs[lo:hi])
			}(w, lo, hi)
		}
		wg.Wait()
		acc = partials[0]
		for w := 1; w < workers; w++ {
			acc.Mul(&acc, &partials[w])
		}
	}
	out := FinalExponentiation(&acc)
	return out.IsOne()
}
