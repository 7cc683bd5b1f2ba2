package ff

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// The field kernels Fp.Mul, Fp.Add and Fp.Sub dispatch to (assembly on
// amd64, fp_amd64.s) against the Go kernels they replace: fpMontMul for
// the multiply (itself pinned to fpMontMulGeneric in
// mont_unrolled_test.go), fpAddGo and fpSubGo for the rest. On a CPU
// without ADX, or off amd64, the multiply compared is the Go one
// itself, and the test says so.

// kernelCases is every boundary residue plus n random ones.
func kernelCases(t *testing.T, n int) []Fp {
	t.Helper()
	cases := fpBoundaryResidues()
	for i := 0; i < n; i++ {
		a, err := RandFp()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, a)
	}
	return cases
}

// checkBinary runs op on (a, b) into a fresh z and with z aliasing a, b
// and, for a == b, both, and compares each against want.
func checkBinary(t *testing.T, name string, i, j int, a, b, want Fp, op func(z, a, b *Fp)) {
	t.Helper()
	var z Fp
	op(&z, &a, &b)
	if z != want {
		t.Fatalf("%s(%d, %d): kernel %x, Go %x", name, i, j, z, want)
	}
	za := a
	op(&za, &za, &b)
	if za != want {
		t.Fatalf("%s(%d, %d) with z = a: kernel %x, Go %x", name, i, j, za, want)
	}
	zb := b
	op(&zb, &a, &zb)
	if zb != want {
		t.Fatalf("%s(%d, %d) with z = b: kernel %x, Go %x", name, i, j, zb, want)
	}
	if a == b {
		zz := a
		op(&zz, &zz, &zz)
		if zz != want {
			t.Fatalf("%s(%d, %d) with z = a = b: kernel %x, Go %x", name, i, j, zz, want)
		}
	}
}

// TestFpKernelsMatchGo: on every pair of boundary residues and 200
// random ones, including every pair (a, a), the dispatched Mul, Add,
// Sub, Double and Neg equal the Go kernels, fresh and in place.
func TestFpKernelsMatchGo(t *testing.T) {
	if !fpMulADX {
		t.Log("no MULX/ADX multiply on this CPU: Fp.Mul is fpMontMul")
	}
	cases := kernelCases(t, 200)
	mul := func(z, a, b *Fp) { z.Mul(a, b) }
	add := func(z, a, b *Fp) { z.Add(a, b) }
	sub := func(z, a, b *Fp) { z.Sub(a, b) }
	for i := range cases {
		a := cases[i]
		for j := range cases {
			b := cases[j]
			var want Fp
			fpMontMul(&want, &a, &b)
			checkBinary(t, "Mul", i, j, a, b, want, mul)
			fpAddGo(&want, &a, &b)
			checkBinary(t, "Add", i, j, a, b, want, add)
			fpSubGo(&want, &a, &b)
			checkBinary(t, "Sub", i, j, a, b, want, sub)
		}
		// The unary ops: Double is Add(a, a), Neg is 0 - a.
		var want Fp
		fpAddGo(&want, &a, &a)
		for _, z := range []Fp{{}, a} {
			if z.Double(&a); z != want {
				t.Fatalf("Double(%d): kernel %x, Go %x", i, z, want)
			}
		}
		var zero Fp
		fpSubGo(&want, &zero, &a)
		for _, z := range []Fp{{}, a} {
			if z.Neg(&a); z != want {
				t.Fatalf("Neg(%d): %x, Go 0 - a %x", i, z, want)
			}
		}
	}
}

// fpPair reduces 96 bytes to two residues for the fuzz targets.
func fpPair(data []byte) (a, b Fp) {
	a = bigToFpRaw(new(big.Int).Mod(new(big.Int).SetBytes(data[:48]), fpP))
	b = bigToFpRaw(new(big.Int).Mod(new(big.Int).SetBytes(data[48:]), fpP))
	return a, b
}

// addFpPairSeeds seeds f with every pair of boundary residues and one
// random pair.
func addFpPairSeeds(f *testing.F) {
	bounds := fpBoundaryResidues()
	for i := range bounds {
		for j := range bounds {
			seed := make([]byte, 96)
			limbsToBig(bounds[i][:]).FillBytes(seed[:48])
			limbsToBig(bounds[j][:]).FillBytes(seed[48:])
			f.Add(seed)
		}
	}
	seed := make([]byte, 96)
	if _, err := rand.Read(seed); err == nil {
		f.Add(seed)
	}
}

// FuzzFpAddSub cross-checks the dispatched Add and Sub against fpAddGo
// and fpSubGo on arbitrary raw limb patterns, reduced mod p first.
func FuzzFpAddSub(f *testing.F) {
	addFpPairSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 96 {
			return
		}
		a, b := fpPair(data)
		var got, want Fp
		got.Add(&a, &b)
		fpAddGo(&want, &a, &b)
		if got != want {
			t.Fatalf("Add: kernel != Go for %x", data)
		}
		got.Sub(&a, &b)
		fpSubGo(&want, &a, &b)
		if got != want {
			t.Fatalf("Sub: kernel != Go for %x", data)
		}
	})
}
