package blsapp

import (
	"testing"

	"repro/internal/bls"
	"repro/internal/framework"
)

func newFineFramework(t *testing.T, ks *bls.KeyShare) *framework.Framework {
	t.Helper()
	dev, err := framework.NewDeveloper()
	if err != nil {
		t.Fatal(err)
	}
	f, err := framework.New(dev.PublicKey(), nil, FineHosts(NewShareState(*ks)))
	if err != nil {
		t.Fatal(err)
	}
	mb := FineModuleBytes()
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFineVariantMatchesNative is the definitive check on the fine-grained
// module: the VM-driven Jacobian formulas must produce bit-identical
// signature shares to the native implementation, across many random keys
// and messages (exercising every bit pattern of the double-and-add loop).
func TestFineVariantMatchesNative(t *testing.T) {
	for round := 0; round < 4; round++ {
		tk, shares, err := bls.ThresholdKeyGen(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		f := newFineFramework(t, &shares[round%3])
		for _, msg := range [][]byte{
			[]byte("m"),
			[]byte("a longer message with more entropy in it"),
			{0x00, 0xff, 0x7f},
		} {
			resp, err := f.Invoke(EncodeSignRequest(0, msg))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			ss, err := DecodeSignResponse(resp)
			if err != nil {
				t.Fatal(err)
			}
			native := shares[round%3].SignShare(msg)
			if ss.Sig.Bytes() != native.Sig.Bytes() {
				t.Fatalf("round %d: fine-grained share differs from native", round)
			}
			if !tk.VerifyShareSignature(msg, ss) {
				t.Fatal("fine-grained share does not verify")
			}
		}
	}
}

func TestFineVariantRejectsBadRequests(t *testing.T) {
	_, shares, _ := bls.ThresholdKeyGen(2, 3)
	f := newFineFramework(t, &shares[0])
	resp, err := f.Invoke([]byte{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSignResponse(resp); err == nil {
		t.Fatal("bad opcode produced a share")
	}
}

func TestFineAndCoarseDigestsDiffer(t *testing.T) {
	if Module().Digest() == FineModule().Digest() {
		t.Fatal("coarse and fine modules share a digest")
	}
}

func BenchmarkSignShareSandboxedFine(b *testing.B) {
	_, shares, _ := bls.ThresholdKeyGen(2, 3)
	dev, _ := framework.NewDeveloper()
	f, _ := framework.New(dev.PublicKey(), nil, FineHosts(NewShareState(shares[0])))
	mb := FineModuleBytes()
	if err := f.Install(1, mb, dev.SignUpdate(1, mb)); err != nil {
		b.Fatal(err)
	}
	req := EncodeSignRequest(0, []byte("table 3 message: a 32-byte-ish m"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Invoke(req); err != nil {
			b.Fatal(err)
		}
	}
}
