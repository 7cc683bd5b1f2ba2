package bls

import (
	"sync"

	"repro/internal/bls12381"
)

// Line tables for the G2 side of every verification equation
// (bls12381.G2Prepared: the Miller loop's walk over the twist, recorded
// once per point). Every check pairs against -G2, whose table is built
// once on first use; the caller's keys get theirs from a bounded memo,
// so a client verifying one monitor's heads, or a witness checking the
// same quorum, walks each key once instead of on every check. Per-call
// random combinations (VerifyShareSignaturesBatch's folded share key)
// are prepared on the fly and never memoized: they would only evict
// keys that recur.
//
// The memo lives here rather than in the key: preparing in SetBytes
// would add a G2 walk to every key decode, most of which are never
// verified against, and a table inside PublicKey would break its
// by-value copies (ThresholdKey.ShareKeys is a []PublicKey).

// negG2 is the line table of -G2, the fixed second argument of every
// verification equation e(sig, -G2) * e(H(msg), pk) == 1, built on
// first use.
var negG2 = sync.OnceValue(func() *bls12381.G2Prepared {
	g2 := bls12381.G2Generator()
	var neg bls12381.G2Affine
	neg.Neg(&g2)
	return bls12381.PrepareG2(&neg)
})

// keyTableMemoSize bounds the key memo: 64 tables of about 20 KB each.
const keyTableMemoSize = 64

// keyTables is the process-wide key memo.
var keyTables keyTableMemo

// keyTableMemo maps a public key's affine point to its line table,
// holding at most keyTableMemoSize of them; when full, an arbitrary
// entry makes room for the new one. The traffic it serves (one
// monitor's head key, a small fixed quorum) fits in it whole. Tables
// are immutable, so a table handed out stays valid after its eviction.
type keyTableMemo struct {
	mu     sync.Mutex
	tables map[bls12381.G2Affine]*bls12381.G2Prepared
}

// get returns q's line table, preparing and inserting it on a miss. The
// G2 walk runs outside the lock; if two callers miss on one key at
// once, the first insertion wins and both get a correct table.
func (m *keyTableMemo) get(q *bls12381.G2Affine) *bls12381.G2Prepared {
	m.mu.Lock()
	t, ok := m.tables[*q]
	m.mu.Unlock()
	if ok {
		return t
	}

	t = bls12381.PrepareG2(q)

	m.mu.Lock()
	defer m.mu.Unlock()
	if have, ok := m.tables[*q]; ok {
		return have
	}
	if m.tables == nil {
		m.tables = make(map[bls12381.G2Affine]*bls12381.G2Prepared, keyTableMemoSize)
	}
	if len(m.tables) >= keyTableMemoSize {
		for k := range m.tables {
			delete(m.tables, k)
			break
		}
	}
	m.tables[*q] = t
	return t
}
