package bls12381

import (
	"math/big"
	"testing"

	"repro/internal/ff"
)

// Equivalence and property tests pinning every fast path of the scalar
// arithmetic engine to the retained naive implementations:
// wNAF/GLV ScalarMult vs ScalarMultBig, fixed-base tables vs naive base
// multiplication, Pippenger MSM vs the naive sum, the endomorphism
// subgroup check vs [r]P, fast cofactor clearing vs subgroup
// membership, and the lockstep batched Miller loop vs the per-pair
// reference.

func randFr(t testing.TB) ff.Fr {
	t.Helper()
	k, err := ff.RandFr()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func randG1(t testing.TB) G1Affine {
	k := randFr(t)
	return G1ScalarBaseMult(&k)
}

func randG2(t testing.TB) G2Affine {
	k := randFr(t)
	return G2ScalarBaseMult(&k)
}

// edgeScalars are the scalars every equivalence test must cover in
// addition to random ones.
func edgeScalars() []ff.Fr {
	var zero, one, two, rm1, lam ff.Fr
	zero.SetZero()
	one.SetOne()
	two.SetUint64(2)
	rm1.SetBig(new(big.Int).Sub(ff.FrModulus(), big.NewInt(1)))
	glvOnce.Do(glvInit)
	lamBig := new(big.Int).SetUint64(glvLambda[1])
	lamBig.Lsh(lamBig, 64)
	lamBig.Or(lamBig, new(big.Int).SetUint64(glvLambda[0]))
	lam.SetBig(lamBig)
	return []ff.Fr{zero, one, two, rm1, lam}
}

func TestG1ScalarMultMatchesNaive(t *testing.T) {
	scalars := edgeScalars()
	for i := 0; i < 20; i++ {
		scalars = append(scalars, randFr(t))
	}
	p := randG1(t)
	var base G1Jac
	base.FromAffine(&p)
	for i, k := range scalars {
		var fast, naive G1Jac
		fast.ScalarMult(&base, &k)
		naive.ScalarMultBig(&base, k.Big())
		if !fast.Equal(&naive) {
			t.Fatalf("scalar %d (%s): wNAF+GLV != double-and-add", i, k.String())
		}
	}
	// Infinity base.
	var inf, out G1Jac
	inf.SetInfinity()
	k := randFr(t)
	out.ScalarMult(&inf, &k)
	if !out.IsInfinity() {
		t.Fatal("k * infinity != infinity")
	}
}

func TestG2ScalarMultMatchesNaive(t *testing.T) {
	scalars := edgeScalars()
	for i := 0; i < 10; i++ {
		scalars = append(scalars, randFr(t))
	}
	p := randG2(t)
	var base G2Jac
	base.FromAffine(&p)
	for i, k := range scalars {
		var fast, naive G2Jac
		fast.ScalarMult(&base, &k)
		naive.ScalarMultBig(&base, k.Big())
		if !fast.Equal(&naive) {
			t.Fatalf("scalar %d (%s): wNAF != double-and-add", i, k.String())
		}
	}
}

func TestGLVSplitRecombines(t *testing.T) {
	glvOnce.Do(glvInit)
	lambda := new(big.Int).SetUint64(glvLambda[1])
	lambda.Lsh(lambda, 64)
	lambda.Or(lambda, new(big.Int).SetUint64(glvLambda[0]))
	r := ff.FrModulus()

	check := func(k ff.Fr) {
		t.Helper()
		k1, k2 := glvSplit(&k)
		b1 := new(big.Int).SetUint64(k1[1])
		b1.Lsh(b1, 64)
		b1.Or(b1, new(big.Int).SetUint64(k1[0]))
		b2 := new(big.Int).SetUint64(k2[1])
		b2.Lsh(b2, 64)
		b2.Or(b2, new(big.Int).SetUint64(k2[0]))
		// k1 must be a proper remainder, k2 bounded by lambda+1.
		if b1.Cmp(lambda) >= 0 {
			t.Fatalf("k=%s: k1=%s >= lambda", k.String(), b1)
		}
		if b2.Cmp(new(big.Int).Add(lambda, big.NewInt(2))) > 0 {
			t.Fatalf("k=%s: k2=%s too large", k.String(), b2)
		}
		// k1 + k2*lambda == k exactly (not just mod r: both sides < r^2).
		sum := new(big.Int).Mul(b2, lambda)
		sum.Add(sum, b1)
		if sum.Cmp(k.Big()) != 0 {
			t.Fatalf("k=%s: k1 + k2*lambda = %s", k.String(), sum)
		}
		_ = r
	}
	for _, k := range edgeScalars() {
		check(k)
	}
	// lambda-adjacent values stress the Barrett correction loop.
	for delta := int64(-2); delta <= 2; delta++ {
		var k ff.Fr
		k.SetBig(new(big.Int).Add(lambda, big.NewInt(delta)))
		check(k)
		k.SetBig(new(big.Int).Add(new(big.Int).Mul(lambda, big.NewInt(3)), big.NewInt(delta)))
		check(k)
	}
	for i := 0; i < 500; i++ {
		check(randFr(t))
	}
}

func TestGLVPhiActsAsLambda(t *testing.T) {
	glvOnce.Do(glvInit)
	for i := 0; i < 10; i++ {
		p := randG1(t)
		phi := g1Phi(&p)
		var base, lambdaP G1Jac
		base.FromAffine(&p)
		g1WnafMult(&lambdaP, &base, glvLambda[:])
		want := lambdaP.Affine()
		if !phi.Equal(&want) {
			t.Fatalf("phi(P) != lambda*P for random subgroup point %d", i)
		}
	}
}

func TestG1FixedBaseMatchesNaive(t *testing.T) {
	gen := G1Generator()
	var genJac G1Jac
	genJac.FromAffine(&gen)
	scalars := edgeScalars()
	for i := 0; i < 10; i++ {
		scalars = append(scalars, randFr(t))
	}
	for i, k := range scalars {
		fast := G1ScalarBaseMult(&k)
		var naive G1Jac
		naive.ScalarMultBig(&genJac, k.Big())
		want := naive.Affine()
		if !fast.Equal(&want) {
			t.Fatalf("scalar %d: fixed-base table != naive", i)
		}
	}
}

func TestG2FixedBaseMatchesNaive(t *testing.T) {
	gen := G2Generator()
	var genJac G2Jac
	genJac.FromAffine(&gen)
	scalars := edgeScalars()
	for i := 0; i < 5; i++ {
		scalars = append(scalars, randFr(t))
	}
	for i, k := range scalars {
		fast := G2ScalarBaseMult(&k)
		var naive G2Jac
		naive.ScalarMultBig(&genJac, k.Big())
		want := naive.Affine()
		if !fast.Equal(&want) {
			t.Fatalf("scalar %d: fixed-base table != naive", i)
		}
	}
}

// msmNaiveG1 is the reference: sum of individual naive multiplications.
func msmNaiveG1(points []G1Affine, scalars []ff.Fr) G1Jac {
	var acc G1Jac
	acc.SetInfinity()
	for i := range points {
		var j, term G1Jac
		j.FromAffine(&points[i])
		term.ScalarMultBig(&j, scalars[i].Big())
		acc.Add(&acc, &term)
	}
	return acc
}

func msmNaiveG2(points []G2Affine, scalars []ff.Fr) G2Jac {
	var acc G2Jac
	acc.SetInfinity()
	for i := range points {
		var j, term G2Jac
		j.FromAffine(&points[i])
		term.ScalarMultBig(&j, scalars[i].Big())
		acc.Add(&acc, &term)
	}
	return acc
}

func TestMSMMatchesNaiveG1(t *testing.T) {
	// Every size 0..64, with infinity points and zero scalars sprinkled
	// through the batch.
	base := randG1(t)
	_ = base
	for n := 0; n <= 64; n++ {
		points := make([]G1Affine, n)
		scalars := make([]ff.Fr, n)
		for i := 0; i < n; i++ {
			switch {
			case i%7 == 3:
				points[i] = G1Affine{Infinity: true}
			default:
				points[i] = randG1(t)
			}
			switch {
			case i%5 == 2:
				scalars[i].SetZero()
			default:
				scalars[i] = randFr(t)
			}
		}
		fast := G1MultiScalarMult(points, scalars)
		naive := msmNaiveG1(points, scalars)
		if !fast.Equal(&naive) {
			t.Fatalf("n=%d: Pippenger != naive sum", n)
		}
	}
}

// TestMSMSignedScalarsG1 pins the signed form: scalars on both sides
// of r/2 (0, 1, 2, r-1, r-2, (r-1)/2, (r+1)/2) and random ones, in
// every rotation against points with infinity mixed in, must give the
// naive sum, and the caller's points must come back unchanged.
func TestMSMSignedScalarsG1(t *testing.T) {
	r := ff.FrModulus()
	half := new(big.Int).Rsh(r, 1) // (r-1)/2
	var edge []ff.Fr
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(r, big.NewInt(1)), new(big.Int).Sub(r, big.NewInt(2)),
		half, new(big.Int).Add(half, big.NewInt(1)),
	} {
		var s ff.Fr
		s.SetBig(v)
		edge = append(edge, s)
	}
	for i := 0; i < 5; i++ {
		edge = append(edge, randFr(t))
	}
	points := make([]G1Affine, len(edge))
	for i := range points {
		if i%4 == 1 {
			points[i] = G1Affine{Infinity: true}
		} else {
			points[i] = randG1(t)
		}
	}
	for n := 1; n <= len(edge); n++ {
		for rot := range edge {
			scalars := make([]ff.Fr, n)
			for i := range scalars {
				scalars[i] = edge[(rot+i)%len(edge)]
			}
			pts := append([]G1Affine(nil), points[:n]...)
			fast := G1MultiScalarMult(pts, scalars)
			naive := msmNaiveG1(points[:n], scalars)
			if !fast.Equal(&naive) {
				t.Fatalf("n=%d rotation %d: signed Pippenger != naive sum", n, rot)
			}
			for i := range pts {
				if !pts[i].Equal(&points[i]) {
					t.Fatalf("n=%d rotation %d: point %d was modified", n, rot, i)
				}
			}
		}
	}
}

func TestMSMMatchesNaiveG2(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 33, 64} {
		points := make([]G2Affine, n)
		scalars := make([]ff.Fr, n)
		for i := 0; i < n; i++ {
			if i%7 == 3 {
				points[i] = G2Affine{Infinity: true}
			} else {
				points[i] = randG2(t)
			}
			if i%5 == 2 {
				scalars[i].SetZero()
			} else {
				scalars[i] = randFr(t)
			}
		}
		fast := G2MultiScalarMult(points, scalars)
		naive := msmNaiveG2(points, scalars)
		if !fast.Equal(&naive) {
			t.Fatalf("n=%d: Pippenger != naive sum", n)
		}
	}
}

// randG1NonSubgroup finds an on-curve point outside the order-r
// subgroup (the curve has order h*r with h > 1, so a random curve point
// lands in the subgroup with negligible probability).
func randG1NonSubgroup(t *testing.T) G1Affine {
	t.Helper()
	for tries := 0; tries < 1000; tries++ {
		x, err := ff.RandFp()
		if err != nil {
			t.Fatal(err)
		}
		var y2, y ff.Fp
		y2.Square(&x)
		y2.Mul(&y2, &x)
		y2.Add(&y2, &g1B)
		if _, ok := y.Sqrt(&y2); !ok {
			continue
		}
		p := G1Affine{X: x, Y: y}
		var j G1Jac
		j.FromAffine(&p)
		j.ScalarMultBig(&j, ff.FrModulus())
		if !j.IsInfinity() {
			return p
		}
	}
	t.Fatal("could not find a non-subgroup point")
	return G1Affine{}
}

func TestG1SubgroupFastMatchesNaive(t *testing.T) {
	naive := func(p *G1Affine) bool {
		if !p.IsOnCurve() {
			return false
		}
		var j G1Jac
		j.FromAffine(p)
		j.ScalarMultBig(&j, ff.FrModulus())
		return j.IsInfinity()
	}
	for i := 0; i < 5; i++ {
		in := randG1(t)
		if !in.IsInSubgroup() || !naive(&in) {
			t.Fatalf("subgroup point %d rejected", i)
		}
		out := randG1NonSubgroup(t)
		if out.IsInSubgroup() {
			t.Fatalf("non-subgroup point %d accepted by the endomorphism check", i)
		}
		if naive(&out) {
			t.Fatalf("non-subgroup point %d accepted by the naive check", i)
		}
	}
	inf := G1Affine{Infinity: true}
	if !inf.IsInSubgroup() {
		t.Fatal("infinity rejected")
	}
}

func TestClearCofactorFastInSubgroup(t *testing.T) {
	for i := 0; i < 10; i++ {
		p := randG1NonSubgroup(t)
		fast := g1ClearCofactorFast(&p)
		aff := fast.Affine()
		if aff.Infinity {
			continue // possible in principle; the hash loop retries
		}
		var j G1Jac
		j.FromAffine(&aff)
		j.ScalarMultBig(&j, ff.FrModulus())
		if !j.IsInfinity() {
			t.Fatalf("h_eff-cleared point %d not in the subgroup", i)
		}
		// The retained true-cofactor map must land in the subgroup too.
		slow := G1ClearCofactor(&p)
		if !slow.IsInSubgroup() {
			t.Fatalf("[h]P %d not in the subgroup", i)
		}
	}
}

func TestHashToG1BatchMatchesSingle(t *testing.T) {
	msgs := [][]byte{
		[]byte("alpha"), []byte("beta"), []byte("alpha"), // repeat on purpose
		[]byte(""), []byte("gamma"),
	}
	dst := []byte("FAST-TEST-DST")
	batch := HashToG1Batch(msgs, dst)
	if len(batch) != len(msgs) {
		t.Fatalf("batch size %d, want %d", len(batch), len(msgs))
	}
	for i, m := range msgs {
		single := HashToG1(m, dst)
		if !batch[i].Equal(&single) {
			t.Fatalf("message %d: batch hash != single hash", i)
		}
		if !batch[i].IsOnCurve() || !batch[i].IsInSubgroup() {
			t.Fatalf("message %d: hash not a subgroup point", i)
		}
	}
}

// TestMillerLoopBatchMatchesProduct pins the lockstep projective loop
// against the product of per-pair affine oracle loops. Raw Miller
// values differ by an Fp2 factor (the projective lines are scaled by
// their cleared denominators), so the comparison is made after the
// final exponentiation, where it must be bit for bit.
func TestMillerLoopBatchMatchesProduct(t *testing.T) {
	var br oracleBranches
	for _, n := range []int{0, 1, 2, 3, 5, 10, 17} {
		ps := make([]G1Affine, n)
		qs := make([]G2Affine, n)
		for i := 0; i < n; i++ {
			ps[i], qs[i] = randG1(t), randG2(t)
		}
		if n > 2 {
			ps[1] = G1Affine{Infinity: true} // must contribute 1
			qs[n-1] = qs[0]                  // repeated Q, distinct P
		}
		if n > 3 {
			qs[2] = G2Affine{Infinity: true}
		}
		batched := MillerLoopBatch(ps, qs)
		oracle := millerProductOracle(ps, qs, &br)
		got := FinalExponentiation(&batched)
		want := FinalExponentiation(&oracle)
		if !got.Equal(&want) {
			t.Fatalf("n=%d: lockstep Miller loop != product of per-pair oracle loops after final exponentiation", n)
		}
		if n <= 3 {
			if plain := finalExpPlainCubed(&oracle); !got.Equal(&plain) {
				t.Fatalf("n=%d: production pairing product != all-oracle value", n)
			}
		}
	}
	t.Logf("corpus reached %d doubling, %d addition, %d infinity-skip branches",
		br.doublings, br.additions, br.infinitySkips)
	if br.doublings == 0 || br.additions == 0 || br.infinitySkips == 0 {
		t.Fatal("corpus missed a Miller-loop branch")
	}
}

func TestPairingCheckMatchesSequential(t *testing.T) {
	// A valid relation: e(aP, bQ) * e(-abP, Q) == 1.
	a, b := randFr(t), randFr(t)
	var ab ff.Fr
	ab.Mul(&a, &b)
	aP := G1ScalarBaseMult(&a)
	abP := G1ScalarBaseMult(&ab)
	var negAbP G1Affine
	negAbP.Neg(&abP)
	bQ := G2ScalarBaseMult(&b)
	g2 := G2Generator()

	ps := []G1Affine{aP, negAbP}
	qs := []G2Affine{bQ, g2}
	if !PairingCheck(ps, qs) {
		t.Fatal("valid relation rejected by the batched check")
	}
	if !PairingCheckSequential(ps, qs) {
		t.Fatal("valid relation rejected by the sequential reference")
	}

	// Break it: both paths must agree on rejection.
	psBad := []G1Affine{aP, abP}
	if PairingCheck(psBad, qs) != PairingCheckSequential(psBad, qs) {
		t.Fatal("fast and sequential pairing checks disagree on an invalid relation")
	}
	if PairingCheck(psBad, qs) {
		t.Fatal("invalid relation accepted")
	}

	// Empty and mismatched inputs.
	if !PairingCheck(nil, nil) || !PairingCheckSequential(nil, nil) {
		t.Fatal("empty product is 1 and must pass")
	}
	if PairingCheck(ps, qs[:1]) {
		t.Fatal("length mismatch accepted")
	}

	// Larger random product equality (valid by construction: pairs of
	// e(kP, Q)*e(-P, kQ) relations).
	var bigPs []G1Affine
	var bigQs []G2Affine
	for i := 0; i < 4; i++ {
		k := randFr(t)
		kP := G1ScalarBaseMult(&k)
		kQ := G2ScalarBaseMult(&k)
		var negG1 G1Affine
		g1 := G1Generator()
		negG1.Neg(&g1)
		bigPs = append(bigPs, kP, negG1)
		bigQs = append(bigQs, g2, kQ)
	}
	if !PairingCheck(bigPs, bigQs) {
		t.Fatal("product of valid relations rejected")
	}
}

func TestAddMixedMatchesAdd(t *testing.T) {
	p := randG1(t)
	q := randG1(t)
	var pj, qj G1Jac
	pj.FromAffine(&p)
	qj.FromAffine(&q)
	// Give pj a non-trivial Z.
	pj.Double(&pj)
	pj.AddMixed(&pj, &p) // pj = 3P with Z != 1

	cases := []struct {
		name string
		a    G1Jac
		b    G1Affine
	}{
		{"general", pj, q},
		{"double", func() G1Jac { var j G1Jac; j.FromAffine(&q); return j }(), q},
		{"cancel", func() G1Jac { var j G1Jac; var nq G1Affine; nq.Neg(&q); j.FromAffine(&nq); return j }(), q},
		{"a-inf", func() G1Jac { var j G1Jac; j.SetInfinity(); return j }(), q},
		{"b-inf", pj, G1Affine{Infinity: true}},
	}
	for _, tc := range cases {
		var mixed, full, bj G1Jac
		bj.FromAffine(&tc.b)
		a := tc.a
		mixed.AddMixed(&a, &tc.b)
		a = tc.a
		full.Add(&a, &bj)
		if !mixed.Equal(&full) {
			t.Fatalf("%s: AddMixed != Add", tc.name)
		}
	}

	// G2 spot check.
	p2 := randG2(t)
	q2 := randG2(t)
	var p2j, q2j, mixed2, full2 G2Jac
	p2j.FromAffine(&p2)
	p2j.Double(&p2j)
	q2j.FromAffine(&q2)
	mixed2.AddMixed(&p2j, &q2)
	full2.Add(&p2j, &q2j)
	if !mixed2.Equal(&full2) {
		t.Fatal("G2 AddMixed != Add")
	}
}

// TestG1ScalarBaseMultAllocs is the fixed-base allocation regression
// test: once the generator table is warm, a base multiplication must
// not allocate (the seed path rebuilt the generator and round-tripped
// the scalar through big.Int on every call).
func TestG1ScalarBaseMultAllocs(t *testing.T) {
	k := randFr(t)
	_ = G1ScalarBaseMult(&k) // warm the table
	allocs := testing.AllocsPerRun(10, func() {
		_ = G1ScalarBaseMult(&k)
	})
	if allocs > 0 {
		t.Fatalf("G1ScalarBaseMult allocates %.1f objects per call, want 0", allocs)
	}
	_ = G2ScalarBaseMult(&k)
	allocs = testing.AllocsPerRun(10, func() {
		_ = G2ScalarBaseMult(&k)
	})
	if allocs > 0 {
		t.Fatalf("G2ScalarBaseMult allocates %.1f objects per call, want 0", allocs)
	}
}

// TestHashToFieldAttemptAllocs: a try-and-increment attempt allocates
// nothing; the per-message input is built once by hashToFieldInput.
func TestHashToFieldAttemptAllocs(t *testing.T) {
	in := hashToFieldInput(make([]byte, 1024), []byte("ALLOC-DST"))
	ctr := uint32(0)
	allocs := testing.AllocsPerRun(10, func() {
		_, _ = hashToFieldAttempt(in, ctr)
		ctr++
	})
	if allocs > 0 {
		t.Fatalf("hashToFieldAttempt allocates %.1f objects per attempt, want 0", allocs)
	}
}

// FuzzGLVSplit: for any 32 bytes interpreted as a scalar, the GLV
// decomposition must recombine exactly and stay within its bounds.
func FuzzGLVSplit(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	seed := ff.FrModulus().Bytes()
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 32 {
			return
		}
		var k ff.Fr
		k.SetBytesWide(data)
		k1, k2 := glvSplit(&k)
		lambda := new(big.Int).SetUint64(glvLambda[1])
		lambda.Lsh(lambda, 64)
		lambda.Or(lambda, new(big.Int).SetUint64(glvLambda[0]))
		b1 := new(big.Int).SetUint64(k1[1])
		b1.Lsh(b1, 64)
		b1.Or(b1, new(big.Int).SetUint64(k1[0]))
		b2 := new(big.Int).SetUint64(k2[1])
		b2.Lsh(b2, 64)
		b2.Or(b2, new(big.Int).SetUint64(k2[0]))
		if b1.Cmp(lambda) >= 0 {
			t.Fatalf("k1 >= lambda for k=%s", k.String())
		}
		sum := new(big.Int).Mul(b2, lambda)
		sum.Add(sum, b1)
		if sum.Cmp(k.Big()) != 0 {
			t.Fatalf("k1 + k2*lambda != k for k=%s", k.String())
		}
	})
}
