package monitor

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/domain"
	"repro/internal/framework"
)

// linearTimeline is the scan the distinct-state timeline replaced: each
// new observation is compared with every earlier one, earliest first.
type linearTimeline struct {
	envs       []*audit.AttestedStatusEnvelope
	logIndexes []int
}

func (l *linearTimeline) observe(env *audit.AttestedStatusEnvelope, logIndex int, scan bool) int {
	hit := -1
	if scan {
		for i, prev := range l.envs {
			if contradiction(prev, env, "d") != nil {
				hit = l.logIndexes[i]
				break
			}
		}
	}
	l.envs = append(l.envs, env)
	l.logIndexes = append(l.logIndexes, logIndex)
	return hit
}

// keyStream draws n statuses of one domain from seed. adversarial mixes
// honest progressions with returns to, and forks off, states seen long
// before, so the earliest contradicted observation is rarely the newest
// state; otherwise every field is drawn from a small range.
func keyStream(seed int64, n int, adversarial bool) []framework.Status {
	rng := rand.New(rand.NewSource(seed))
	heads := [][]byte{nil, {}, bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)}
	honestHead := func(logLen int) []byte { return bytes.Repeat([]byte{byte(0x80 + logLen)}, 32) }
	var out []framework.Status
	var at framework.Status // the honest domain's current state
	for i := 0; i < n; i++ {
		var st framework.Status
		switch r := rng.Intn(8); {
		case !adversarial:
			st = framework.Status{
				Version: uint64(rng.Intn(4)), LogLen: rng.Intn(4),
				Counter: uint64(rng.Intn(6)), LogHead: heads[rng.Intn(len(heads))],
			}
		case r < 4: // the honest domain, moving on now and then
			if rng.Intn(4) == 0 {
				at.LogLen++
				at.Version++
				at.Counter++
				at.LogHead = honestHead(at.LogLen)
			}
			st = at
		case r < 6 && len(out) > 0: // an old state again
			st = out[rng.Intn(len(out))]
		case len(out) > 0: // a fork off an old state: same length, another head
			st = out[rng.Intn(len(out))]
			st.LogHead = heads[rng.Intn(len(heads))]
		}
		out = append(out, st)
	}
	return out
}

// TestTimelineMatchesLinearScan: over random and adversarial streams, the
// distinct-state timeline returns the same contradicted log index as the
// scan of every earlier observation, and records the same observations.
func TestTimelineMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		for _, adversarial := range []bool{false, true} {
			rng := rand.New(rand.NewSource(-seed))
			var got timeline
			var want linearTimeline
			for i, st := range keyStream(seed, 300, adversarial) {
				env := &audit.AttestedStatusEnvelope{Resp: domain.StatusResponse{Domain: "d", Status: st}}
				logIndex := 3*i + 7
				scan := rng.Intn(10) != 0 // some verdicts are known before the scan
				if g, w := got.observe(env, logIndex, scan), want.observe(env, logIndex, scan); g != w {
					t.Fatalf("seed %d adversarial %v, observation %d (%+v): timeline hit %d, linear scan hit %d",
						seed, adversarial, i, st, g, w)
				}
			}
			if !slices.Equal(got.logIndexes, want.logIndexes) {
				t.Fatalf("seed %d: recorded %v, want %v", seed, got.logIndexes, want.logIndexes)
			}
		}
	}
}
