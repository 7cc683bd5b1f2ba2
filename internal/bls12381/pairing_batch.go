package bls12381

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/ff"
)

// The Miller loop, in two halves.
//
// Prepare (PrepareG2) walks T from Q over the twist once and records
// every step's line with the G1 point factored out: a G2Prepared line
// table. It depends on Q alone, so a Q that recurs — -G2 in every BLS
// verification, a pinned monitor or witness key — is prepared once and
// its table reused (the bls package memoizes them).
//
// Evaluate (millerLoopPrepared) runs all pairs in lockstep over the
// shared bit pattern of |x|, so ONE Fp12 squaring chain serves every
// pair ((prod f_i)^2 = prod f_i^2): per step the accumulator squares
// once and each pair's line, scaled by its G1 point, multiplies in
// (mulLines).
//
// T is kept in homogeneous projective coordinates (x = X/Z, y = Y/Z)
// and stepped with the Costello-Lange-Naehrig doubling and
// mixed-addition formulas for y^2 = x^3 + b' (eprint 2009/615), so a
// step costs a handful of Fp2 products and no inversion. Clearing the
// slope's denominator scales each line by an Fp2 factor, which the
// final exponentiation kills. Per step, the table stores (c0, c3, c5)
// and evaluation at P = (xP, yP) multiplies
// c0*yP + c3*W^3 + (c5*xP)*W^5 into the accumulator:
//
//	doubling  (3 M + 6 S in Fp2)
//	  c0 = -2YZ * xi        c3 = 3b'Z^2 - Y^2     c5 = 3X^2
//	  X3 = 2XY(Y^2 - 9b'Z^2)
//	  Y3 = (Y^2 + 9b'Z^2)^2 - 12(3b'Z^2)^2
//	  Z3 = 8Y^3 Z
//	addition of affine Q, theta = Y - yQ*Z, lambda = X - xQ*Z
//	          (11 M + 2 S in Fp2)
//	  c0 = lambda * xi      c3 = theta*xQ - lambda*yQ   c5 = -theta
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
// PairingCheck prepares its Qs on the fly and evaluates; the
// prepared and on-the-fly paths are one loop. On top of that the pairs
// are sharded across cores (each worker runs its own lockstep loop) and
// every partial product shares the single final exponentiation. After
// the final exponentiation the result is bit-identical to the affine
// per-pair oracle (TestMillerLoopBatchMatchesProduct,
// TestPairingMatchesAffineOracle, TestPreparedMatchesOnTheFly).

// millerTopBit is the index of the top set bit of |x|; the loop runs
// over the bits below it.
func millerTopBit() int { return bits.Len64(blsX) - 1 }

// millerSteps is the number of lines in a table: one doubling per bit
// below the top bit and one addition per set bit among them (68).
func millerSteps() int { return millerTopBit() + bits.OnesCount64(blsX) - 1 }

// lineCoeffs is one step's line with the G1 point factored out: at
// P = (xP, yP) the line is c0*yP + c3*W^3 + c5*xP*W^5.
type lineCoeffs struct {
	c0, c3, c5 ff.Fp2
}

// G2Prepared is the line table of one G2 point: every Miller-loop
// step's line, in loop order (millerSteps() entries of three Fp2, about
// 20 KB; none for the point at infinity). It is immutable once built,
// so one table may serve any number of concurrent checks.
type G2Prepared struct {
	lines []lineCoeffs
}

// PrepareG2 walks the Miller loop's point T from q once and returns its
// line table. q must be in the order-r subgroup (every decoded or
// derived point the packages hand out is).
func PrepareG2(q *G2Affine) *G2Prepared {
	if q.Infinity {
		return &G2Prepared{}
	}
	lines := make([]lineCoeffs, millerSteps())
	w := g2Walk{q: *q, x: q.X, y: q.Y}
	w.z.SetOne()
	k := 0
	for i := millerTopBit() - 1; i >= 0; i-- {
		w.double(&lines[k])
		k++
		if (blsX>>uint(i))&1 == 1 {
			w.add(&lines[k])
			k++
		}
	}
	return &G2Prepared{lines: lines}
}

// g2Walk is the point T = (X:Y:Z) stepping from Q over the twist.
type g2Walk struct {
	q       G2Affine
	x, y, z ff.Fp2
}

// mulBy12 sets z = 12z with four additions.
func mulBy12(z *ff.Fp2) {
	var t ff.Fp2
	t.Double(z)
	z.Add(&t, z)
	z.Double(z)
	z.Double(z)
}

// double records the tangent line at T in l and sets T = 2T.
func (w *g2Walk) double(l *lineCoeffs) {
	var a, b, c, e, e3, g, h, j, t ff.Fp2
	a.Mul(&w.x, &w.y) // XY
	b.Square(&w.y)    // Y^2
	c.Square(&w.z)    // Z^2
	j.Square(&w.x)    // X^2
	h.Add(&w.y, &w.z)
	h.Square(&h)
	h.Sub(&h, &b)
	h.Sub(&h, &c) // 2YZ
	e.MulByNonResidue(&c)
	mulBy12(&e) // 3b'Z^2 = 12*xi*Z^2 (b' = 4*xi)
	t.Double(&e)
	e3.Add(&t, &e) // 9b'Z^2
	g.Add(&b, &e3)

	l.c0.MulByNonResidue(&h)
	l.c0.Neg(&l.c0)
	l.c3.Sub(&e, &b)
	l.c5.Double(&j)
	l.c5.Add(&l.c5, &j)

	t.Sub(&b, &e3)
	w.x.Mul(&a, &t)
	w.x.Double(&w.x)
	e.Square(&e)
	mulBy12(&e) // 12(3b'Z^2)^2
	g.Square(&g)
	w.y.Sub(&g, &e)
	w.z.Mul(&b, &h)
	w.z.Double(&w.z)
	w.z.Double(&w.z)
}

// add records the chord through T and Q in l and sets T = T + Q.
func (w *g2Walk) add(l *lineCoeffs) {
	var theta, lambda, c, d, e, g, h, t ff.Fp2
	theta.Mul(&w.q.Y, &w.z)
	theta.Sub(&w.y, &theta)
	lambda.Mul(&w.q.X, &w.z)
	lambda.Sub(&w.x, &lambda)

	l.c0.MulByNonResidue(&lambda)
	l.c3.Mul(&theta, &w.q.X)
	t.Mul(&lambda, &w.q.Y)
	l.c3.Sub(&l.c3, &t)
	l.c5.Neg(&theta)

	c.Square(&theta)
	d.Square(&lambda)
	e.Mul(&lambda, &d) // lambda^3
	g.Mul(&w.x, &d)    // X*lambda^2
	h.Mul(&w.z, &c)
	h.Add(&h, &e)
	h.Sub(&h, &g)
	h.Sub(&h, &g)
	w.x.Mul(&lambda, &h)
	g.Sub(&g, &h)
	g.Mul(&theta, &g)
	t.Mul(&e, &w.y)
	w.y.Sub(&g, &t)
	w.z.Mul(&w.z, &e)
}

// evalPair is one pair of the evaluate half: a line table and the G1
// point its lines are evaluated at.
type evalPair struct {
	lines  []lineCoeffs
	xp, yp *ff.Fp
}

// mulLines multiplies step k's line of every pair, evaluated at its P,
// into f.
func mulLines(f *ff.Fp12, pairs []evalPair, k int) {
	var c0, c5 ff.Fp2
	for j := range pairs {
		l := &pairs[j].lines[k]
		c0.MulByFp(&l.c0, pairs[j].yp)
		c5.MulByFp(&l.c5, pairs[j].xp)
		f.MulBySparse035(f, &c0, &l.c3, &c5)
	}
}

// millerLoopPrepared is the evaluate half: the product over i of the
// Miller values f_{|x|,Q_i}(P_i) read from the tables qs (conjugated
// for the negative curve parameter), with one shared squaring chain.
// Pairs with P at infinity or an empty (infinity) table contribute 1.
func millerLoopPrepared(ps []G1Affine, qs []*G2Prepared) ff.Fp12 {
	pairs := make([]evalPair, 0, len(ps))
	for i := range ps {
		if ps[i].Infinity || len(qs[i].lines) == 0 {
			continue
		}
		pairs = append(pairs, evalPair{lines: qs[i].lines, xp: &ps[i].X, yp: &ps[i].Y})
	}
	f := ff.Fp12One()
	if len(pairs) == 0 {
		return f
	}
	k := 0
	for i := millerTopBit() - 1; i >= 0; i-- {
		if k > 0 { // f = 1 before the first step
			f.Square(&f)
		}
		mulLines(&f, pairs, k)
		k++
		if (blsX>>uint(i))&1 == 1 {
			mulLines(&f, pairs, k)
			k++
		}
	}
	if blsXIsNegative {
		f.Conjugate(&f)
	}
	return f
}

// MillerLoopBatch computes the product of Miller loop values
// prod_i f_{|x|,Q_i}(P_i) (conjugated for the negative curve
// parameter): it prepares each Q and evaluates, sharing one Fp12
// squaring chain across pairs. Pairs with either point at infinity
// contribute 1. The value is defined up to an Fp2* factor; only
// FinalExponentiation of it is canonical.
func MillerLoopBatch(ps []G1Affine, qs []G2Affine) ff.Fp12 {
	if len(ps) != len(qs) {
		panic("bls12381: MillerLoopBatch length mismatch")
	}
	tables := make([]*G2Prepared, len(qs))
	for i := range qs {
		tables[i] = PrepareG2(&qs[i])
	}
	return millerLoopPrepared(ps, tables)
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

// PairingCheckPrepared is PairingCheck with every Q given as its line
// table (PrepareG2), so no G2 walk is repeated for a Q the caller has
// seen before.
func PairingCheckPrepared(ps []G1Affine, qs []*G2Prepared) bool {
	if len(ps) != len(qs) {
		return false
	}
	return pairingCheck(len(ps), func(lo, hi int) ff.Fp12 {
		return millerLoopPrepared(ps[lo:hi], qs[lo:hi])
	})
}

// pairingCheck shards pairs [0, n) across the worker pool, runs loop on
// each shard, multiplies the partial products and applies the one
// final exponentiation.
func pairingCheck(n int, loop func(lo, hi int) ff.Fp12) bool {
	pairObs.checks.Inc()
	pairObs.pairs.Add(uint64(n))
	workers := pairingWorkers(n)
	var acc ff.Fp12
	if workers <= 1 {
		acc = loop(0, n)
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
				partials[w] = loop(lo, hi)
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
