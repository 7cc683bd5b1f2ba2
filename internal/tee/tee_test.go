package tee

import (
	"crypto/ed25519"
	"crypto/rand"
	"sync"
	"testing"
)

func newTestEnclave(t *testing.T) (*Vendor, *Enclave, RootSet) {
	t.Helper()
	v, err := NewVendor(VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	m := MeasureCode([]byte("framework-v1"), []byte("devpub"))
	e, err := v.Provision("machine-0", m)
	if err != nil {
		t.Fatal(err)
	}
	return v, e, RootSet{VendorSimSGX: v.RootKey()}
}

func TestMeasurementDeterministicAndDomainSeparated(t *testing.T) {
	a := MeasureCode([]byte("code"), []byte("key"))
	b := MeasureCode([]byte("code"), []byte("key"))
	if a != b {
		t.Fatal("measurement not deterministic")
	}
	c := MeasureCode([]byte("cod"), []byte("ekey"))
	if a == c {
		t.Fatal("length-prefixing failed: boundary shift collided")
	}
	d := MeasureCode([]byte("code"))
	if a == d {
		t.Fatal("provisioning data not bound")
	}
}

func TestQuoteVerifies(t *testing.T) {
	_, e, roots := newTestEnclave(t)
	var rd [64]byte
	copy(rd[:], "nonce and log head bound here")
	q := e.GenerateQuote(rd)
	if err := VerifyQuote(roots, q); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
	if q.Measurement != e.Measurement() {
		t.Fatal("quote carries wrong measurement")
	}
	if q.ReportData != rd {
		t.Fatal("quote carries wrong report data")
	}
}

func TestQuoteTamperDetection(t *testing.T) {
	_, e, roots := newTestEnclave(t)
	var rd [64]byte
	q := e.GenerateQuote(rd)

	tampered := *q
	tampered.Measurement[0] ^= 1
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("tampered measurement accepted")
	}

	tampered = *q
	tampered.ReportData[5] ^= 1
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("tampered report data accepted")
	}

	tampered = *q
	tampered.PlatformID = "other-machine"
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("tampered platform accepted")
	}

	// A quote from a key not endorsed by the pinned root must fail.
	fakePub, fakePriv, _ := ed25519.GenerateKey(rand.Reader)
	forged := *q
	forged.AttKey = fakePub
	forged.Signature = ed25519.Sign(fakePriv, quoteMessage(&forged))
	if err := VerifyQuote(roots, &forged); err == nil {
		t.Fatal("unendorsed attestation key accepted")
	}

	if err := VerifyQuote(roots, nil); err == nil {
		t.Fatal("nil quote accepted")
	}
	if err := VerifyQuote(RootSet{}, q); err == nil {
		t.Fatal("unknown vendor accepted")
	}
}

func TestCrossVendorQuoteRejected(t *testing.T) {
	// A quote endorsed by vendor A must not verify when the verifier pins
	// a different root for vendor A (e.g. attacker-run "vendor").
	vA, _ := NewVendor(VendorSimNitro)
	vB, _ := NewVendor(VendorSimNitro) // impostor with same ID
	m := MeasureCode([]byte("fw"))
	e, _ := vB.Provision("m", m)
	var rd [64]byte
	q := e.GenerateQuote(rd)
	roots := RootSet{VendorSimNitro: vA.RootKey()}
	if err := VerifyQuote(roots, q); err == nil {
		t.Fatal("impostor vendor accepted")
	}
}

func TestMonotonicCounter(t *testing.T) {
	_, e, _ := newTestEnclave(t)
	if e.Counter() != 0 {
		t.Fatal("counter must start at zero")
	}
	var wg sync.WaitGroup
	const workers, perWorker = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e.IncrementCounter()
			}
		}()
	}
	wg.Wait()
	if e.Counter() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", e.Counter(), workers*perWorker)
	}
}

func TestSimulatedEcosystem(t *testing.T) {
	vendors, roots, err := NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	if len(vendors) != 3 || len(roots) != 3 {
		t.Fatal("ecosystem must have three vendors")
	}
	// Each vendor's enclaves verify against the shared root set.
	m := MeasureCode([]byte("fw"))
	for id, v := range vendors {
		e, err := v.Provision("host-"+string(id), m)
		if err != nil {
			t.Fatal(err)
		}
		var rd [64]byte
		if err := VerifyQuote(roots, e.GenerateQuote(rd)); err != nil {
			t.Fatalf("vendor %s quote rejected: %v", id, err)
		}
	}
}

func BenchmarkGenerateQuote(b *testing.B) {
	v, _ := NewVendor(VendorSimSGX)
	e, _ := v.Provision("bench", MeasureCode([]byte("fw")))
	var rd [64]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.GenerateQuote(rd)
	}
}

// BenchmarkVerifyQuote/cold empties the endorsement memo before every
// check (a verifier meeting the enclave for the first time: two ed25519
// verifications); /warm is every later check of the same enclave (one).
func BenchmarkVerifyQuote(b *testing.B) {
	v, _ := NewVendor(VendorSimSGX)
	e, _ := v.Provision("bench", MeasureCode([]byte("fw")))
	roots := RootSet{VendorSimSGX: v.RootKey()}
	var rd [64]byte
	q := e.GenerateQuote(rd)
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			endorsements.reset()
			for i := 0; i < b.N; i++ {
				if cold {
					endorsements.reset()
				}
				if err := VerifyQuote(roots, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
