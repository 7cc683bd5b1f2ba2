package bls12381

import (
	"math/big"
	"testing"
)

// TestGLVTablesMatchNaive: every odd digit -15..15 read through
// AddOddDigit from either table must add d*P (d*lambda*P for phi's
// table) as the naive double-and-add computes it, and SubFirstIf must
// subtract the base exactly when asked.
func TestGLVTablesMatchNaive(t *testing.T) {
	glvOnce.Do(glvInit)
	lambda := new(big.Int).SetUint64(glvLambda[1])
	lambda.Lsh(lambda, 64).Or(lambda, new(big.Int).SetUint64(glvLambda[0]))
	p := randG1(t)
	var pj, acc G1Jac
	pj.FromAffine(&p)
	acc.Double(&pj) // a start that is neither the identity nor a table entry
	tbl, phiTbl := G1GLVTables(&pj)
	for ti, tb := range []*G1OddTable{&tbl, &phiTbl} {
		mult := big.NewInt(1)
		if ti == 1 {
			mult = lambda
		}
		for d := int64(-15); d <= 15; d += 2 {
			var got, want, term G1Jac
			got.AddOddDigit(&acc, tb, d)
			term.ScalarMultBig(&pj, new(big.Int).Mul(big.NewInt(d), mult))
			want.Add(&acc, &term)
			if !got.Equal(&want) {
				t.Fatalf("table %d, digit %d: AddOddDigit != acc + d*base", ti, d)
			}
		}
		var sub, base G1Jac
		base.ScalarMultBig(&pj, mult)
		sub.Add(&acc, new(G1Jac).Neg(&base))
		var got0, got1 G1Jac
		got0.SubFirstIf(&acc, tb, 0)
		got1.SubFirstIf(&acc, tb, 1)
		if !got0.Equal(&acc) || !got1.Equal(&sub) {
			t.Fatalf("table %d: SubFirstIf keeps or subtracts the wrong way", ti)
		}
	}
}
