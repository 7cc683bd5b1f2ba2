package obsv

// ring keeps the last len(buf) values pushed into it: the flight
// recorder's events, the tracer's finished spans, a histogram's
// exemplars and an SLO objective's samples. It does no locking — each
// owner guards its ring with its own mutex — and push never allocates.
type ring[T any] struct {
	buf []T
	n   int // values ever pushed; the ring holds the last min(n, len(buf))
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

func (r *ring[T]) push(v T) {
	r.buf[r.n%len(r.buf)] = v
	r.n++
}

// kept is how many values the ring holds.
func (r *ring[T]) kept() int { return min(r.n, len(r.buf)) }

// last returns the i-th newest value held, 1 <= i <= kept().
func (r *ring[T]) last(i int) T { return r.buf[(r.n-i)%len(r.buf)] }

// items returns the values held, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, r.kept())
	for i := range out {
		out[i] = r.last(len(out) - i)
	}
	return out
}
