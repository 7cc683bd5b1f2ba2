package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/audit"
)

// obsKey is one observed attested status reduced to the fields the
// contradiction relation compares. It holds no pointers, so a
// timeline's slices are never scanned by the garbage collector; the
// envelope itself is a log leaf and is re-read only when a proof has to
// be built.
type obsKey struct {
	logLen  int
	version uint64
	counter uint64
	head    uint32 // the domain's interned LogHead: equal ids iff bytes.Equal heads
}

// firstSeen is a distinct state of a domain and the log index of its
// first observation.
type firstSeen struct {
	key      obsKey
	logIndex int
}

// timeline is one domain's observations. conflict reads only the state
// in obsKey, which an honest domain changes only when it activates an
// update, so a new observation is compared with each distinct state
// once, not with every earlier observation.
type timeline struct {
	logIndexes []int             // every observation, in arrival order
	states     []firstSeen       // the distinct states, in order of first observation
	heads      map[string]uint32 // LogHead -> id; nil and empty share one id
}

// observe records env's status (logged at logIndex) and returns the log
// index of the earliest earlier observation it contradicts, or -1. The
// earliest conflicting observation is the first sighting of the
// earliest-seen conflicting state, so scanning the distinct states in
// order finds what a scan of every observation would. A status whose
// verdict is already known (a wrong measurement) is recorded with scan
// false, as the full-envelope loop recorded it.
func (t *timeline) observe(env *audit.AttestedStatusEnvelope, logIndex int, scan bool) int {
	st := &env.Resp.Status
	if t.heads == nil {
		t.heads = make(map[string]uint32)
	}
	id, ok := t.heads[string(st.LogHead)]
	if !ok {
		id = uint32(len(t.heads))
		t.heads[string(st.LogHead)] = id
	}
	k := obsKey{logLen: st.LogLen, version: st.Version, counter: st.Counter, head: id}
	hit, seen := -1, false
	for i := range t.states {
		s := &t.states[i]
		if s.key == k {
			seen = true // a state never conflicts with itself
		} else if scan && hit < 0 {
			if kind, _ := conflict(&s.key, &k); kind != "" {
				hit = s.logIndex
			}
		}
	}
	t.logIndexes = append(t.logIndexes, logIndex)
	if !seen {
		t.states = append(t.states, firstSeen{key: k, logIndex: logIndex})
	}
	return hit
}

// conflict decides whether two observations of one domain, a before b,
// are mutually inconsistent with honest append-only execution, and of
// which kind. swap reports that b is the older state, so a proof names
// it first. It is the one statement of the relation: the timeline scan
// applies it to interned keys and contradiction to envelopes. It is
// written to stay within the compiler's inlining budget, which keeps
// the scan at a few nanoseconds per earlier observation.
func conflict(a, b *obsKey) (kind audit.MisbehaviorKind, swap bool) {
	if a.logLen == b.logLen {
		switch {
		case a.head != b.head:
			return audit.MisbehaviorEquivocation, false
		case a.version != b.version:
			return audit.MisbehaviorRollback, false
		}
		return "", false
	}
	switch {
	case a.version == b.version,
		b.counter > a.counter && (b.logLen < a.logLen || b.version < a.version):
		return audit.MisbehaviorRollback, false
	case a.counter > b.counter && (a.logLen < b.logLen || a.version < b.version):
		return audit.MisbehaviorRollback, true
	}
	return "", false
}

// contradiction builds the misbehavior proof for two verified statuses
// from one domain, or returns nil when they are consistent.
func contradiction(a, b *audit.AttestedStatusEnvelope, name string) *audit.Misbehavior {
	sa, sb := &a.Resp.Status, &b.Resp.Status
	ka := obsKey{logLen: sa.LogLen, version: sa.Version, counter: sa.Counter}
	kb := obsKey{logLen: sb.LogLen, version: sb.Version, counter: sb.Counter}
	if !bytes.Equal(sa.LogHead, sb.LogHead) {
		kb.head = 1
	}
	kind, swap := conflict(&ka, &kb)
	if kind == "" {
		return nil
	}
	if swap {
		a, b = b, a
	}
	return &audit.Misbehavior{Kind: kind, Domain: name, StatusA: a, StatusB: b}
}

// observeLocked records env (logged at idx) in its domain's timeline and
// returns the proof it completes against an earlier observation, if
// any. The conflicting envelope is re-read from the log, so the proof is
// the one the full-envelope comparison would build. proof, when non-nil,
// is a verdict reached before the scan (a wrong measurement): it is
// returned as is. Caller holds m.mu (or owns m, during Open).
func (m *Monitor) observeLocked(env *audit.AttestedStatusEnvelope, idx int, proof *audit.Misbehavior) (*audit.Misbehavior, error) {
	name := env.Resp.Domain
	t := m.perDom[name]
	if t == nil {
		t = new(timeline)
		m.perDom[name] = t
	}
	g := t.observe(env, idx, proof == nil)
	if g < 0 {
		return proof, nil
	}
	payload, err := m.log.Entry(g)
	if err != nil {
		return nil, err
	}
	var prev audit.AttestedStatusEnvelope
	if err := json.Unmarshal(payload, &prev); err != nil {
		return nil, fmt.Errorf("monitor: observation %d undecodable: %w", g, err)
	}
	return contradiction(&prev, env, name), nil
}
