package blsapp

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"repro/internal/bls"
	"repro/internal/ff"
	"repro/internal/framework"
	"repro/internal/sandbox"
)

// glvLambda is x^2 - 1 for the BLS parameter x = -0xd201000000010000:
// the scalar phi acts as on G1, and the modulus of GLVSplit's division.
var glvLambda = func() *big.Int {
	x := new(big.Int).SetUint64(0xd201000000010000)
	return x.Sub(x.Mul(x, x), big.NewInt(1))
}()

// setShare replaces the state's share scalar in place.
func setShare(st *ShareState, k *ff.Fr) {
	st.mu.Lock()
	st.ks.Share = *k
	st.mu.Unlock()
}

// frFromHalves returns k1 + k2*lambda, which is below r for k1, k2 <
// lambda (lambda^2 = r - x^2 < r), so GLVSplit returns exactly (k1, k2).
func frFromHalves(k1, k2 *big.Int) ff.Fr {
	k := new(big.Int).Mul(k2, glvLambda)
	k.Add(k, k1)
	var out ff.Fr
	out.SetBig(k)
	return out
}

// randBelow returns a uniform integer in [0, n) with the given parity
// (0 even, 1 odd, -1 either).
func randBelow(t testing.TB, n *big.Int, parity int) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	if parity >= 0 && int(v.Bit(0)) != parity {
		v.Xor(v, big.NewInt(1))
		if v.Cmp(n) >= 0 {
			v.Sub(v, big.NewInt(2))
		}
	}
	return v
}

// edgeShares are the scalars a regular window loop is most likely to get
// wrong: the smallest and largest shares, halves that are zero or one
// (a digit string of all -15s under a top 1), and every parity
// combination of the two halves, which decides the corrections.
func edgeShares(t testing.TB) map[string]ff.Fr {
	t.Helper()
	r := ff.FrModulus()
	out := map[string]ff.Fr{}
	set := func(name string, v *big.Int) {
		var k ff.Fr
		k.SetBig(v)
		out[name] = k
	}
	set("1", big.NewInt(1))
	set("2", big.NewInt(2))
	set("r-1", new(big.Int).Sub(r, big.NewInt(1)))
	set("r-2", new(big.Int).Sub(r, big.NewInt(2)))
	set("lambda-1 (zero high half)", new(big.Int).Sub(glvLambda, big.NewInt(1)))
	set("lambda (zero low half)", glvLambda)
	set("lambda+1", new(big.Int).Add(glvLambda, big.NewInt(1)))
	set("2^127", new(big.Int).Lsh(big.NewInt(1), 127))
	out["random below lambda (zero high half)"] = frFromHalves(randBelow(t, glvLambda, -1), big.NewInt(0))
	for p1 := 0; p1 < 2; p1++ {
		for p2 := 0; p2 < 2; p2++ {
			name := fmt.Sprintf("halves of parity (%d, %d)", p1, p2)
			out[name] = frFromHalves(randBelow(t, glvLambda, p1), randBelow(t, glvLambda, p2))
		}
	}
	return out
}

// TestSandboxedSharesMatchNative: the sandboxed regular loop and the
// native SignShare must produce byte-identical shares (BLS signing is
// deterministic) for every edge share and 1,000 random ones, each on its
// own random message.
func TestSandboxedSharesMatchNative(t *testing.T) {
	st := NewShareState(bls.KeyShare{Index: 2})
	f, _ := newAppFrameworkState(t, st)
	check := func(name string, k ff.Fr, msg []byte) {
		t.Helper()
		setShare(st, &k)
		resp, err := f.Invoke(EncodeSignRequest(0, msg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ss, err := DecodeSignResponse(resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		native := (&bls.KeyShare{Index: 2, Share: k}).SignShare(msg)
		if ss.Index != 2 || ss.Sig.Bytes() != native.Sig.Bytes() {
			t.Fatalf("%s (k = %s, msg %x): sandboxed share differs from native", name, k.String(), msg)
		}
	}
	for name, k := range edgeShares(t) {
		check(name, k, []byte("edge share message"))
	}
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	for i := 0; i < rounds; i++ {
		k, err := ff.RandFrNonZero()
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 1+i%64)
		if _, err := rand.Read(msg); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("random share %d", i), k, msg)
	}
}

// countingHosts wraps every host function so each call appends its name
// to *calls.
func countingHosts(hosts map[string]*sandbox.HostFunc, calls *[]string) map[string]*sandbox.HostFunc {
	out := make(map[string]*sandbox.HostFunc, len(hosts))
	for name, h := range hosts {
		w := *h
		fn := h.Fn
		w.Fn = func(inst *sandbox.Instance, args []int64) ([]int64, error) {
			*calls = append(*calls, w.Name)
			return fn(inst, args)
		}
		out[name] = &w
	}
	return out
}

// TestSignHostCallSequenceIsFixed: signing must make the same host calls
// in the same order for every share, so no share bit decides whether a
// group operation runs. A double-and-add loop that adds once per set bit
// fails this on the first two shares of different weight.
func TestSignHostCallSequenceIsFixed(t *testing.T) {
	st := NewShareState(bls.KeyShare{Index: 1})
	var calls []string
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	f, err := framework.New(dev.PublicKey(), nil, countingHosts(Hosts(st), &calls))
	if err != nil {
		t.Fatal(err)
	}
	mb := ModuleBytes()
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	shares := edgeShares(t)
	for i := 0; i < 64; i++ {
		k, err := ff.RandFrNonZero()
		if err != nil {
			t.Fatal(err)
		}
		shares[fmt.Sprintf("random share %d", i)] = k
	}
	var want []string
	wantFrom := ""
	for name, k := range shares {
		setShare(st, &k)
		calls = calls[:0]
		if _, err := f.Invoke(EncodeSignRequest(0, []byte("fixed message"))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want == nil {
			want, wantFrom = slices.Clone(calls), name
			continue
		}
		if !slices.Equal(calls, want) {
			t.Fatalf("share %q made %d host calls, share %q made %d: the sequence depends on the share",
				name, len(calls), wantFrom, len(want))
		}
	}
	count := map[string]int{}
	for _, c := range want {
		count[c]++
	}
	if count[HostDouble] != 124 || count[HostAddDigit] != 64 || count[HostSubIfEven] != 2 {
		t.Fatalf("a signature makes %d doublings, %d digit additions and %d corrections, want 124, 64 and 2",
			count[HostDouble], count[HostAddDigit], count[HostSubIfEven])
	}
}
