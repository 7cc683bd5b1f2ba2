// Package prio implements a Prio-style private aggregate statistics
// system over additive secret sharing, the motivating application the
// paper opens §2 with (Firefox telemetry, COVID-19 exposure-notification
// analytics). It is the "second application" built on the bootstrap
// framework's trust domains.
//
// Model: each client holds a vector of small non-negative integers (e.g.
// histogram increments). The client splits the vector into one additive
// share per trust domain over the prime field Fr; each domain accumulates
// the shares it receives; at the end of an epoch the domains publish
// their accumulator vectors, whose sum is the aggregate — and nothing
// else about individual clients, as long as at least one domain is
// honest.
//
// Robustness against malformed clients is modeled with an
// affine-aggregatable consistency check: clients accompany each shared
// value with shares of its square, and at aggregation the domains verify
// sum(x) == sum(x^2), which holds iff every honest submission is
// 0/1-valued. This catches faulty (honest-but-buggy) clients; it is NOT
// the Prio paper's SNIP proof and does not bind adversarial clients who
// lie consistently about both vectors — that substitution is recorded in
// DESIGN.md. The aggregation privacy property (no single domain learns
// anything about an individual submission) is the same as Prio's.
package prio

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/ff"
)

// Submission is one client's share destined for a single trust domain.
type Submission struct {
	// Values are additive shares of the client's measurement vector.
	Values []ff.Fr
	// Squares are additive shares of the element-wise squares, used for
	// the 0/1 validity check.
	Squares []ff.Fr
}

// Split shares a 0/1 measurement vector into n submissions (one per
// trust domain). It returns an error if any value is not 0 or 1.
func Split(measurement []uint64, n int) ([]Submission, error) {
	if n < 2 {
		return nil, errors.New("prio: need at least 2 trust domains")
	}
	if len(measurement) == 0 {
		return nil, errors.New("prio: empty measurement")
	}
	subs := make([]Submission, n)
	for i := range subs {
		subs[i].Values = make([]ff.Fr, len(measurement))
		subs[i].Squares = make([]ff.Fr, len(measurement))
	}
	for j, v := range measurement {
		if v > 1 {
			return nil, fmt.Errorf("prio: measurement[%d]=%d outside {0,1}", j, v)
		}
		var val, sq ff.Fr
		val.SetUint64(v)
		sq.SetUint64(v * v)
		if err := shareInto(subs, j, &val, &sq); err != nil {
			return nil, err
		}
	}
	return subs, nil
}

// SplitUnchecked shares an arbitrary small-integer vector (for workloads
// where the servers accept any magnitude, e.g. pre-validated sums).
func SplitUnchecked(measurement []uint64, n int) ([]Submission, error) {
	if n < 2 {
		return nil, errors.New("prio: need at least 2 trust domains")
	}
	if len(measurement) == 0 {
		return nil, errors.New("prio: empty measurement")
	}
	subs := make([]Submission, n)
	for i := range subs {
		subs[i].Values = make([]ff.Fr, len(measurement))
		subs[i].Squares = make([]ff.Fr, len(measurement))
	}
	for j, v := range measurement {
		var val, sq ff.Fr
		val.SetUint64(v)
		sq.Mul(&val, &val)
		if err := shareInto(subs, j, &val, &sq); err != nil {
			return nil, err
		}
	}
	return subs, nil
}

// shareInto writes additive shares of (val, sq) at index j across subs.
func shareInto(subs []Submission, j int, val, sq *ff.Fr) error {
	n := len(subs)
	var accV, accS ff.Fr
	for i := 0; i < n-1; i++ {
		rv, err := ff.RandFr()
		if err != nil {
			return fmt.Errorf("prio: sampling share: %w", err)
		}
		rs, err := ff.RandFr()
		if err != nil {
			return fmt.Errorf("prio: sampling share: %w", err)
		}
		subs[i].Values[j] = rv
		subs[i].Squares[j] = rs
		accV.Add(&accV, &rv)
		accS.Add(&accS, &rs)
	}
	subs[n-1].Values[j].Sub(val, &accV)
	subs[n-1].Squares[j].Sub(sq, &accS)
	return nil
}

// Aggregator is one trust domain's accumulator for an epoch.
type Aggregator struct {
	dim     int
	count   int
	values  []ff.Fr
	squares []ff.Fr
}

// NewAggregator creates an aggregator for measurement vectors of the
// given dimension.
func NewAggregator(dim int) (*Aggregator, error) {
	if dim <= 0 {
		return nil, errors.New("prio: dimension must be positive")
	}
	return &Aggregator{
		dim:     dim,
		values:  make([]ff.Fr, dim),
		squares: make([]ff.Fr, dim),
	}, nil
}

// Absorb accumulates one client submission.
func (a *Aggregator) Absorb(s *Submission) error {
	if len(s.Values) != a.dim || len(s.Squares) != a.dim {
		return fmt.Errorf("prio: submission dimension %d, want %d", len(s.Values), a.dim)
	}
	for j := 0; j < a.dim; j++ {
		a.values[j].Add(&a.values[j], &s.Values[j])
		a.squares[j].Add(&a.squares[j], &s.Squares[j])
	}
	a.count++
	return nil
}

// Share is an aggregator's published epoch output.
type Share struct {
	Count   int
	Values  []ff.Fr
	Squares []ff.Fr
}

// Share publishes the accumulator (what a domain reveals at epoch end;
// individual submissions are never revealed).
func (a *Aggregator) Share() Share {
	out := Share{
		Count:   a.count,
		Values:  append([]ff.Fr{}, a.values...),
		Squares: append([]ff.Fr{}, a.squares...),
	}
	return out
}

// Aggregate combines the published shares of all trust domains into the
// plaintext aggregate vector, verifying the 0/1 validity invariant:
// for 0/1 measurements, sum(x) == sum(x^2) element-wise.
func Aggregate(shares []Share) ([]uint64, error) {
	if len(shares) < 2 {
		return nil, errors.New("prio: need shares from at least 2 domains")
	}
	dim := len(shares[0].Values)
	count := shares[0].Count
	for _, s := range shares {
		if len(s.Values) != dim || len(s.Squares) != dim {
			return nil, errors.New("prio: domain shares have differing dimensions")
		}
		if s.Count != count {
			return nil, fmt.Errorf("prio: domains disagree on submission count (%d vs %d)", s.Count, count)
		}
	}
	out := make([]uint64, dim)
	maxU64 := new(big.Int).SetUint64(^uint64(0))
	for j := 0; j < dim; j++ {
		var sumV, sumS ff.Fr
		for _, s := range shares {
			sumV.Add(&sumV, &s.Values[j])
			sumS.Add(&sumS, &s.Squares[j])
		}
		if !sumV.Equal(&sumS) {
			return nil, fmt.Errorf("prio: validity check failed at index %d (some client submitted non-0/1 data)", j)
		}
		v := sumV.Big()
		if v.Cmp(maxU64) > 0 {
			return nil, fmt.Errorf("prio: aggregate at index %d overflows uint64", j)
		}
		out[j] = v.Uint64()
	}
	return out, nil
}
