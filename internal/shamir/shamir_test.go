package shamir

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func TestGF256Axioms(t *testing.T) {
	f := func(a, b, c byte) bool {
		// commutativity and associativity of mul
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			return false
		}
		// distributivity
		if gfMul(a, gfAdd(b, c)) != gfAdd(gfMul(a, b), gfMul(a, c)) {
			return false
		}
		// table-based mul matches the bitwise reference
		if gfMul(a, b) != mulNoTable(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGF256Inverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("inv(%d) wrong", a)
		}
	}
}

func TestGF256DivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero did not panic")
		}
	}()
	gfDiv(1, 0)
}

func TestSplitCombineRoundTrip(t *testing.T) {
	secret := []byte("a 32-byte secret key goes here!!")
	shares, err := Split(secret, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 5 {
		t.Fatalf("want 5 shares, got %d", len(shares))
	}
	// Any 3 shares reconstruct.
	got, err := Combine([]Share{shares[4], shares[0], shares[2]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("reconstruction failed")
	}
}

func TestSplitCombineProperty(t *testing.T) {
	f := func(raw [16]byte, tMod, nMod uint8) bool {
		secret := raw[:]
		t0 := int(tMod%5) + 1 // 1..5
		n := t0 + int(nMod%5) // t..t+4
		shares, err := Split(secret, t0, n)
		if err != nil {
			return false
		}
		got, err := Combine(shares[n-t0:], t0)
		if err != nil {
			return false
		}
		return bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFewerThanThresholdRevealsNothing(t *testing.T) {
	// Statistical check: with t-1 shares, every candidate first byte of the
	// secret is consistent with the observed shares, i.e. reconstruction
	// from t-1 shares plus a forged share can hit any value.
	secret := []byte{0x42}
	shares, err := Split(secret, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One share. For each candidate secret value v there exists a line
	// through (x1, y1) with f(0) = v, so one share alone constrains nothing.
	s1 := shares[0]
	hits := 0
	for v := 0; v < 256; v++ {
		// line through (0, v) and (s1.X, s1.Y[0]) -> evaluate at x=2 to get
		// a consistent companion share; combining must give v back.
		slope := gfDiv(gfAdd(byte(v), s1.Y[0]), s1.X)
		forged := Share{X: 2, Y: []byte{gfAdd(byte(v), gfMul(slope, 2))}}
		if forged.X == s1.X {
			continue
		}
		rec, err := Combine([]Share{s1, forged}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rec[0] == byte(v) {
			hits++
		}
	}
	if hits != 256 {
		t.Fatalf("only %d/256 secret values consistent with one share; leakage", hits)
	}
}

func TestCombineErrors(t *testing.T) {
	secret := []byte("s")
	shares, _ := Split(secret, 2, 3)
	if _, err := Combine(shares[:1], 2); err == nil {
		t.Fatal("combined with too few shares")
	}
	dup := []Share{shares[0], shares[0]}
	if _, err := Combine(dup, 2); err == nil {
		t.Fatal("combined duplicate shares")
	}
	bad := []Share{shares[0], {X: 0, Y: []byte{1}}}
	if _, err := Combine(bad, 2); err == nil {
		t.Fatal("combined share with x=0")
	}
	mismatch := []Share{shares[0], {X: 9, Y: []byte{1, 2}}}
	if _, err := Combine(mismatch, 2); err == nil {
		t.Fatal("combined shares of differing lengths")
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(nil, 2, 3); err == nil {
		t.Fatal("split empty secret")
	}
	if _, err := Split([]byte("x"), 0, 3); err == nil {
		t.Fatal("split with t=0")
	}
	if _, err := Split([]byte("x"), 4, 3); err == nil {
		t.Fatal("split with t>n")
	}
	if _, err := Split([]byte("x"), 2, 256); err == nil {
		t.Fatal("split with n>255")
	}
}

func TestAuthenticatedDetectsTampering(t *testing.T) {
	secret := []byte("the user's backup key")
	shares, err := SplitAuthenticated(secret, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CombineAuthenticated(shares[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("authenticated round trip failed")
	}
	// Corrupt one byte of one share: must be detected.
	shares[0].Y[0] ^= 0xff
	if _, err := CombineAuthenticated(shares[:2], 2); err == nil {
		t.Fatal("tampered share not detected")
	}
}

func TestRefreshPreservesSecretAndChangesShares(t *testing.T) {
	secret := make([]byte, 64)
	if _, err := rand.Read(secret); err != nil {
		t.Fatal(err)
	}
	shares, err := Split(secret, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := Refresh(shares, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Combine(refreshed[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("refresh changed the secret")
	}
	same := 0
	for i := range shares {
		if bytes.Equal(shares[i].Y, refreshed[i].Y) {
			same++
		}
	}
	if same == len(shares) {
		t.Fatal("refresh did not change any share")
	}
	// Mixing old and new shares must NOT reconstruct (different polynomials).
	mixed := []Share{shares[0], refreshed[1], refreshed[2]}
	rec, err := Combine(mixed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rec, secret) {
		t.Fatal("mixed-epoch shares reconstructed the secret")
	}
}

func BenchmarkSplit32B(b *testing.B) {
	secret := make([]byte, 32)
	for i := 0; i < b.N; i++ {
		if _, err := Split(secret, 3, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine32B(b *testing.B) {
	secret := make([]byte, 32)
	shares, _ := Split(secret, 3, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(shares[:3], 3); err != nil {
			b.Fatal(err)
		}
	}
}

// gfInv returns the multiplicative inverse; gfInv(0) panics.
func gfInv(a byte) byte {
	if a == 0 {
		panic("shamir: inverse of zero in GF(256)")
	}
	return gfExp[255-int(gfLog[a])]
}
