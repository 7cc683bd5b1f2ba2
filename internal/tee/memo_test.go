package tee

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
)

// reset empties the memo, so the next check of any endorsement runs cold.
func (m *endorsementMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seen = make(map[string]struct{}, endorsementMemoSize)
}

func (m *endorsementMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.seen)
}

// errString makes a VerifyQuote outcome comparable.
func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// TestEndorsementMemoRejectsTampering: once an enclave's endorsement is
// memoized, every input that differs in a byte the check covers —
// endorsement, platform, attestation key, vendor root — still fails, and
// so does a quote signature that does not cover the quote.
func TestEndorsementMemoRejectsTampering(t *testing.T) {
	endorsements.reset()
	_, e, roots := newTestEnclave(t)
	var rd [64]byte
	q := e.GenerateQuote(rd)
	if err := VerifyQuote(roots, q); err != nil {
		t.Fatalf("honest quote rejected: %v", err)
	}
	if n := endorsements.len(); n != 1 {
		t.Fatalf("memo holds %d endorsements after one honest check, want 1", n)
	}

	tampered := *q
	tampered.Endorsement = append([]byte{}, q.Endorsement...)
	tampered.Endorsement[3] ^= 1
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("tampered endorsement accepted under a warm memo")
	}

	tampered = *q
	tampered.PlatformID = "machine-1"
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("tampered platform accepted under a warm memo")
	}

	fakePub, fakePriv, _ := ed25519.GenerateKey(rand.Reader)
	tampered = *q
	tampered.AttKey = fakePub
	tampered.Signature = ed25519.Sign(fakePriv, quoteMessage(&tampered))
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("unendorsed attestation key accepted under a warm memo")
	}

	impostor, err := NewVendor(VendorSimSGX)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(RootSet{VendorSimSGX: impostor.RootKey()}, q); err == nil {
		t.Fatal("quote accepted under another vendor root with a warm memo")
	}

	// The endorsement is memoized; the quote signature is not, since it
	// covers the report data.
	tampered = *q
	tampered.ReportData[0] ^= 1
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("quote signature over other report data accepted under a memoized endorsement")
	}
	tampered = *q
	tampered.Signature = ed25519.Sign(fakePriv, quoteMessage(q))
	if err := VerifyQuote(roots, &tampered); err == nil {
		t.Fatal("forged quote signature accepted under a memoized endorsement")
	}

	rd[0] = 1
	if err := VerifyQuote(roots, e.GenerateQuote(rd)); err != nil {
		t.Fatalf("fresh honest quote rejected: %v", err)
	}
}

// TestEndorsementMemoStoresOnlySuccesses: no failing endorsement check
// leaves an entry, so a later identical input is checked again.
func TestEndorsementMemoStoresOnlySuccesses(t *testing.T) {
	endorsements.reset()
	_, e, roots := newTestEnclave(t)
	var rd [64]byte
	q := e.GenerateQuote(rd)
	bad := *q
	bad.Endorsement = append([]byte{}, q.Endorsement...)
	bad.Endorsement[0] ^= 1
	for i := 0; i < 3; i++ {
		if err := VerifyQuote(roots, &bad); err == nil {
			t.Fatal("tampered endorsement accepted")
		}
		if n := endorsements.len(); n != 0 {
			t.Fatalf("memo holds %d entries after failed checks only, want 0", n)
		}
	}
	if err := VerifyQuote(roots, q); err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(roots, &bad); err == nil {
		t.Fatal("tampered endorsement accepted after its honest twin was memoized")
	}
	if n := endorsements.len(); n != 1 {
		t.Fatalf("memo holds %d entries, want the honest one only", n)
	}
}

// TestEndorsementMemoConcurrentEviction hammers the memo from several
// goroutines with more enclaves than it holds, so entries are evicted
// while others are read, and checks every answer against a cold run.
func TestEndorsementMemoConcurrentEviction(t *testing.T) {
	vendors, roots, err := NewSimulatedEcosystem()
	if err != nil {
		t.Fatal(err)
	}
	const enclaves = endorsementMemoSize + 16
	var quotes []*Quote
	m := MeasureCode([]byte("fw"))
	ids := AllVendorIDs()
	for i := 0; i < enclaves; i++ {
		e, err := vendors[ids[i%len(ids)]].Provision(fmt.Sprintf("host-%d", i), m)
		if err != nil {
			t.Fatal(err)
		}
		var rd [64]byte
		rd[0] = byte(i)
		q := e.GenerateQuote(rd)
		badEndorsement := *q
		badEndorsement.Endorsement = append([]byte{}, q.Endorsement...)
		badEndorsement.Endorsement[i%ed25519.SignatureSize] ^= 1
		badSignature := *q
		badSignature.ReportData[1] ^= 1
		quotes = append(quotes, q, &badEndorsement, &badSignature)
	}

	cold := make([]string, len(quotes))
	for i, q := range quotes {
		endorsements.reset()
		cold[i] = errString(VerifyQuote(roots, q))
		if want := i%3 == 0; (cold[i] == "ok") != want {
			t.Fatalf("quote %d: cold answer %q", i, cold[i])
		}
	}

	endorsements.reset()
	// Each worker walks the inputs in its own order: a stride coprime to
	// len(quotes) = 3 * 80 visits every one.
	strides := []int{1, 7, 11, 13}
	const rounds = 3
	var wg sync.WaitGroup
	for w := range strides {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range quotes {
					i := (k*strides[w] + r*17) % len(quotes)
					if got := errString(VerifyQuote(roots, quotes[i])); got != cold[i] {
						t.Errorf("worker %d quote %d: warm answer %q, cold %q", w, i, got, cold[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := endorsements.len(); n != endorsementMemoSize {
		t.Fatalf("memo holds %d endorsements after %d distinct enclaves, want its bound %d", n, enclaves, endorsementMemoSize)
	}
}
