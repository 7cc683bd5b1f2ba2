package bls_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/aolog"
	"repro/internal/bls"
	"repro/internal/bls12381"
	"repro/internal/ff"
)

// Known-answer vectors for every byte a signer produces and every value
// a verifier compares: hashes to G1, signatures, proofs of possession,
// signed log heads, and raw pairing values. Persisted heads, witness
// journals and exported equivocation proofs must keep verifying across
// any change to the field kernel, the hash or the pairing engine, so
// testdata/kat.hex is captured once from a trusted commit with
//
//	UPDATE_KAT=1 go test -run TestKnownAnswerVectors ./internal/bls/
//
// and from then on every commit must reproduce it byte for byte.

const katFile = "testdata/kat.hex"

// katSecretKey is the fixed signer of every vector.
func katSecretKey(t *testing.T) *bls.SecretKey {
	t.Helper()
	sk, err := bls.SecretKeyFromBytes(bytes.Repeat([]byte{0x2a}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// fp12Bytes serializes an Fp12 as its twelve Fp coordinates, C0 before
// C1 at every level of the tower.
func fp12Bytes(f *ff.Fp12) []byte {
	var out []byte
	for _, c6 := range []*ff.Fp6{&f.C0, &f.C1} {
		for _, c2 := range []*ff.Fp2{&c6.C0, &c6.C1, &c6.C2} {
			for _, c := range []*ff.Fp{&c2.C0, &c2.C1} {
				b := c.Bytes()
				out = append(out, b[:]...)
			}
		}
	}
	return out
}

// katVectors computes every vector by name.
func katVectors(t *testing.T) map[string][]byte {
	t.Helper()
	v := make(map[string][]byte)
	kilobyte := make([]byte, 1024)
	for i := range kilobyte {
		kilobyte[i] = byte(i*7 + 3)
	}
	hashes := []struct{ msg, dst []byte }{
		{nil, bls.SignatureDST},
		{[]byte("abc"), bls.SignatureDST},
		{kilobyte, bls.SignatureDST},
		{[]byte("abc"), bls.PopDST},
		{[]byte("head 42"), []byte("REPRO-KAT-DST")},
		{bytes.Repeat([]byte{0xff}, 32), nil},
	}
	for i, h := range hashes {
		p := bls12381.HashToG1(h.msg, h.dst)
		b := p.Bytes()
		v[fmt.Sprintf("hash_to_g1/%d", i)] = b[:]
	}

	sk := katSecretKey(t)
	pk := sk.PublicKey()
	pkb := pk.Bytes()
	v["public_key"] = pkb[:]
	for i, msg := range [][]byte{nil, []byte("sign me"), kilobyte} {
		sig := sk.Sign(msg)
		if !bls.Verify(pk, msg, sig) {
			t.Fatalf("sign/%d: signature does not verify", i)
		}
		b := sig.Bytes()
		v[fmt.Sprintf("sign/%d", i)] = b[:]
	}
	pop := sk.ProvePossession()
	popb := pop.Bytes()
	v["proof_of_possession"] = popb[:]
	for i, size := range []uint64{0, 42, 1 << 20} {
		var head aolog.Digest
		for j := range head {
			head[j] = byte(j) ^ byte(size)
		}
		sh := aolog.SignHeadBLS(sk, size, head)
		if !aolog.VerifyHeadBLS(pk, &sh) {
			t.Fatalf("head_bls/%d: signed head does not verify", i)
		}
		v[fmt.Sprintf("head_bls/%d", i)] = sh.Signature
	}

	g1, g2 := bls12381.G1Generator(), bls12381.G2Generator()
	e := bls12381.Pair(&g1, &g2)
	v["pair/generators"] = fp12Bytes(&e)
	var a, b ff.Fr
	a.SetUint64(0x1234567)
	b.SetBytesWide([]byte("known-answer scalar b"))
	ap, bq := bls12381.G1ScalarBaseMult(&a), bls12381.G2ScalarBaseMult(&b)
	e = bls12381.Pair(&ap, &bq)
	v["pair/scalars"] = fp12Bytes(&e)

	fr := bls12381.HashToFr("REPRO-KAT", []byte("part one"), nil, kilobyte)
	frb := fr.Bytes()
	v["hash_to_fr"] = frb[:]
	return v
}

func TestKnownAnswerVectors(t *testing.T) {
	got := katVectors(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	if os.Getenv("UPDATE_KAT") != "" {
		var buf bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&buf, "%s %x\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(katFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(katFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d vectors to %s", len(names), katFile)
		return
	}

	f, err := os.Open(katFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hexv, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed line %q", sc.Text())
		}
		b, err := hex.DecodeString(hexv)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d vectors, this test computes %d", katFile, len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: missing from %s", name, katFile)
		}
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s: got %x, want %x", name, got[name], w)
		}
	}
}
