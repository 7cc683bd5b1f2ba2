package prio

import (
	"crypto/rand"
	"testing"
	"testing/quick"

	"repro/internal/ff"
)

func TestSplitAggregateRoundTrip(t *testing.T) {
	const nDomains, dim = 3, 8
	aggs := make([]*Aggregator, nDomains)
	for i := range aggs {
		a, err := NewAggregator(dim)
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = a
	}
	want := make([]uint64, dim)
	clients := [][]uint64{
		{1, 0, 0, 1, 0, 0, 0, 1},
		{0, 1, 0, 1, 0, 0, 1, 0},
		{1, 1, 1, 1, 0, 0, 0, 0},
	}
	for _, m := range clients {
		subs, err := Split(m, nDomains)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range subs {
			if err := aggs[i].Absorb(&s); err != nil {
				t.Fatal(err)
			}
		}
		for j, v := range m {
			want[j] += v
		}
	}
	shares := make([]Share, nDomains)
	for i, a := range aggs {
		shares[i] = a.Share()
	}
	got, err := Aggregate(shares)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("aggregate[%d] = %d, want %d", j, got[j], want[j])
		}
	}
}

func TestSingleShareRevealsNothingStructural(t *testing.T) {
	// A single domain's share of a deterministic measurement must be
	// (statistically) different across runs: it is a one-time pad.
	m := []uint64{1, 0, 1}
	s1, err := Split(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Split(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range s1[0].Values {
		if !s1[0].Values[j].Equal(&s2[0].Values[j]) {
			same = false
		}
	}
	if same {
		t.Fatal("first domain's shares identical across two splits; not blinded")
	}
}

func TestValidityCheckCatchesOutOfRange(t *testing.T) {
	if _, err := Split([]uint64{0, 2, 1}, 2); err == nil {
		t.Fatal("Split accepted value 2 for 0/1 type")
	}
	// A buggy client that bypasses Split: shares x=2 with x^2=4.
	subs, err := SplitUnchecked([]uint64{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []*Aggregator{mustAgg(t, 1), mustAgg(t, 1)}
	for i := range subs {
		if err := aggs[i].Absorb(&subs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Aggregate([]Share{aggs[0].Share(), aggs[1].Share()}); err == nil {
		t.Fatal("0/1 validity check missed an out-of-range submission")
	}
}

func mustAgg(t *testing.T, dim int) *Aggregator {
	t.Helper()
	a, err := NewAggregator(dim)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAggregateErrors(t *testing.T) {
	a := mustAgg(t, 2)
	if _, err := Aggregate([]Share{a.Share()}); err == nil {
		t.Fatal("single-domain aggregate accepted")
	}
	b := mustAgg(t, 3)
	if _, err := Aggregate([]Share{a.Share(), b.Share()}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Count mismatch.
	c := mustAgg(t, 2)
	subs, _ := Split([]uint64{1, 0}, 2)
	if err := c.Absorb(&subs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Aggregate([]Share{a.Share(), c.Share()}); err == nil {
		t.Fatal("count mismatch accepted")
	}
	// Absorb dimension mismatch.
	if err := a.Absorb(&Submission{Values: make([]ff.Fr, 5), Squares: make([]ff.Fr, 5)}); err == nil {
		t.Fatal("wrong-dimension submission accepted")
	}
	if _, err := NewAggregator(0); err == nil {
		t.Fatal("zero-dimension aggregator accepted")
	}
	if _, err := Split([]uint64{}, 2); err == nil {
		t.Fatal("empty measurement accepted")
	}
	if _, err := Split([]uint64{1}, 1); err == nil {
		t.Fatal("single-domain split accepted")
	}
}

func TestAggregateProperty(t *testing.T) {
	// Property: for random 0/1 matrices of clients, the aggregate equals
	// the column sums, for any domain count 2..4.
	f := func(raw []byte, nMod uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		dim := 4
		n := int(nMod%3) + 2
		aggs := make([]*Aggregator, n)
		for i := range aggs {
			a, err := NewAggregator(dim)
			if err != nil {
				return false
			}
			aggs[i] = a
		}
		want := make([]uint64, dim)
		for c := 0; c+dim <= len(raw); c += dim {
			m := make([]uint64, dim)
			for j := 0; j < dim; j++ {
				m[j] = uint64(raw[c+j] & 1)
				want[j] += m[j]
			}
			subs, err := Split(m, n)
			if err != nil {
				return false
			}
			for i := range subs {
				if err := aggs[i].Absorb(&subs[i]); err != nil {
					return false
				}
			}
		}
		shares := make([]Share, n)
		for i := range aggs {
			shares[i] = aggs[i].Share()
		}
		got, err := Aggregate(shares)
		if err != nil {
			return false
		}
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplitDim16(b *testing.B) {
	m := make([]uint64, 16)
	for i := 0; i < b.N; i++ {
		if _, err := Split(m, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAbsorbDim16(b *testing.B) {
	m := make([]uint64, 16)
	subs, _ := Split(m, 2)
	a, _ := NewAggregator(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Absorb(&subs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = rand.Read
