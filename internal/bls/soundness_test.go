package bls

import (
	"math/rand"
	"testing"

	"repro/internal/bls12381"
	"repro/internal/ff"
)

// Soundness table across the four verification entry points. The
// pairing engine underneath them is differentially pinned in
// internal/bls12381; this table pins what a caller sees: over seeded
// keys and messages the honest input accepts and every single-field
// tamper rejects, on every entry point.

// triples is the common shape of a verification input: two
// (key, message, signature) rows. Tampers replace pointers, never
// mutate pointees, so a shallow clone isolates them.
type triples struct {
	pks  []*PublicKey
	msgs [][]byte
	sigs []*Signature
}

func (tr *triples) clone() triples {
	return triples{
		pks:  append([]*PublicKey(nil), tr.pks...),
		msgs: append([][]byte(nil), tr.msgs...),
		sigs: append([]*Signature(nil), tr.sigs...),
	}
}

var soundnessTampers = []struct {
	name  string
	apply func(tr *triples, other *SecretKey)
}{
	{"flipped message bit", func(tr *triples, _ *SecretKey) {
		m := append([]byte(nil), tr.msgs[0]...)
		m[len(m)/2] ^= 0x10
		tr.msgs[0] = m
	}},
	{"signature from another key", func(tr *triples, other *SecretKey) {
		tr.sigs[0] = other.Sign(tr.msgs[0])
	}},
	{"swapped keys", func(tr *triples, _ *SecretKey) {
		tr.pks[0], tr.pks[1] = tr.pks[1], tr.pks[0]
	}},
	{"negated signature", func(tr *triples, _ *SecretKey) {
		var neg Signature
		neg.p.Neg(&tr.sigs[0].p)
		tr.sigs[0] = &neg
	}},
	{"infinity signature", func(tr *triples, _ *SecretKey) {
		tr.sigs[0] = &Signature{p: bls12381.G1Affine{Infinity: true}}
	}},
	{"infinity key", func(tr *triples, _ *SecretKey) {
		tr.pks[0] = &PublicKey{p: bls12381.G2Affine{Infinity: true}}
	}},
}

func seededScalar(rng *rand.Rand) ff.Fr {
	var buf [48]byte
	rng.Read(buf[:])
	var s ff.Fr
	s.SetBytesWide(buf[:])
	if s.IsZero() {
		s.SetOne()
	}
	return s
}

func seededKey(t *testing.T, rng *rand.Rand) *SecretKey {
	t.Helper()
	s := seededScalar(rng)
	sk, err := SecretKeyFromScalar(&s)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func seededMessage(rng *rand.Rand) []byte {
	m := make([]byte, 1+rng.Intn(64))
	rng.Read(m)
	return m
}

// TestVerifySoundnessTable runs the table twice over the same seeded
// sequence: cold, with the key memo emptied before every check, so
// every key's line table is built for that call; and warm, where the
// honest check memoizes the keys and every tamper then runs against
// memoized tables.
func TestVerifySoundnessTable(t *testing.T) {
	t.Run("cold", func(t *testing.T) { verifySoundnessTable(t, false) })
	t.Run("warm", func(t *testing.T) { verifySoundnessTable(t, true) })
}

func verifySoundnessTable(t *testing.T, warm bool) {
	// ~0.1 s per iteration (twenty pairing checks); the race detector
	// multiplies that by twelve, so it and -short run a prefix of the
	// same seeded sequence.
	keyTables.reset()
	iterations := 256
	if testing.Short() || raceDetector {
		iterations = 16
	}
	rng := rand.New(rand.NewSource(15))
	for it := 0; it < iterations; it++ {
		// Independent signers on distinct messages: Verify, VerifyBatch,
		// VerifyAggregate.
		skA, skB, other := seededKey(t, rng), seededKey(t, rng), seededKey(t, rng)
		mA, mB := seededMessage(rng), append(seededMessage(rng), 0xB)
		indep := triples{
			pks:  []*PublicKey{skA.PublicKey(), skB.PublicKey()},
			msgs: [][]byte{mA, mB},
			sigs: []*Signature{skA.Sign(mA), skB.Sign(mB)},
		}
		// Two shares of a 2-of-3 threshold key on one message: Combine.
		tk, shares, err := thresholdFromPolynomial([]ff.Fr{seededScalar(rng), seededScalar(rng)}, 3)
		if err != nil {
			t.Fatal(err)
		}
		msg := seededMessage(rng)
		s1, s2 := shares[0].SignShare(msg), shares[1].SignShare(msg)
		thresh := triples{
			pks:  []*PublicKey{&tk.ShareKeys[0], &tk.ShareKeys[1]},
			msgs: [][]byte{msg, msg},
			sigs: []*Signature{&s1.Sig, &s2.Sig},
		}

		entries := []struct {
			name    string
			fixture *triples
			verify  func(tr *triples) bool
		}{
			{"Verify", &indep, func(tr *triples) bool {
				return Verify(tr.pks[0], tr.msgs[0], tr.sigs[0])
			}},
			{"VerifyBatch", &indep, func(tr *triples) bool {
				return VerifyBatch(tr.pks, tr.msgs, tr.sigs)
			}},
			{"VerifyAggregate", &indep, func(tr *triples) bool {
				agg, err := AggregateSignatures(tr.sigs...)
				return err == nil && VerifyAggregate(tr.pks, tr.msgs, agg)
			}},
			{"Combine", &thresh, func(tr *triples) bool {
				// A dealt key's group key is the one its share keys
				// interpolate to (2*pk1 - pk2 at indexes 1 and 2), so
				// tampered share keys move the group key with them.
				tampered := *tk
				tampered.ShareKeys = []PublicKey{*tr.pks[0], *tr.pks[1], tk.ShareKeys[2]}
				tampered.GroupKey = interpolateKeys(tr.pks[0], tr.pks[1])
				sig, _, err := tampered.Combine(tr.msgs[0], []SignatureShare{
					{Index: 1, Epoch: tk.Epoch, Sig: *tr.sigs[0]},
					{Index: 2, Epoch: tk.Epoch, Sig: *tr.sigs[1]},
				})
				return err == nil && sig != nil
			}},
		}
		for _, e := range entries {
			if !warm {
				keyTables.reset()
			}
			if !e.verify(e.fixture) {
				t.Fatalf("iteration %d: %s rejected the honest input", it, e.name)
			}
			if warm && e.fixture == &indep && !keyTables.contains(indep.pks[0]) {
				t.Fatalf("iteration %d: %s did not memoize the signer's table", it, e.name)
			}
			for _, tm := range soundnessTampers {
				tr := e.fixture.clone()
				tm.apply(&tr, other)
				if !warm {
					keyTables.reset()
				}
				if e.verify(&tr) {
					t.Fatalf("iteration %d: %s accepted input with %s", it, e.name, tm.name)
				}
			}
		}
	}
}

// interpolateKeys is the group key that share keys pk1 and pk2 at
// indexes 1 and 2 imply: 2*pk1 - pk2.
func interpolateKeys(pk1, pk2 *PublicKey) PublicKey {
	var two, minusOne ff.Fr
	two.SetUint64(2)
	minusOne.SetOne()
	minusOne.Neg(&minusOne)
	acc := bls12381.G2MultiScalarMult([]bls12381.G2Affine{pk1.p, pk2.p}, []ff.Fr{two, minusOne})
	return PublicKey{p: acc.Affine()}
}
