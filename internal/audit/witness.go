package audit

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bls"
	"repro/internal/gossip"
)

// WitnessEndpoint is one pinned witness an audit client pollinates with.
type WitnessEndpoint struct {
	Name string
	Addr string
	Key  *bls.PublicKey
}

// WitnessSet is the client's pinned witness configuration: the accepted
// cosigner keys and the quorum a head must reach before the client acts
// on it.
type WitnessSet struct {
	Witnesses []WitnessEndpoint
	Quorum    int
}

// Keys returns the accepted cosigner keys.
func (ws *WitnessSet) Keys() []*bls.PublicKey {
	keys := make([]*bls.PublicKey, 0, len(ws.Witnesses))
	for i := range ws.Witnesses {
		keys = append(keys, ws.Witnesses[i].Key)
	}
	return keys
}

// Pollinate submits the heads this client has seen to every configured
// witness and returns each witness's response (its cosigned frontier and
// any equivocation proofs). Unreachable witnesses are skipped; an error
// is returned only when no witness answered.
func (c *Client) Pollinate(ws *WitnessSet, seen []gossip.GossipHead) ([]*gossip.HeadsResponse, error) {
	if ws == nil || len(ws.Witnesses) == 0 {
		return nil, errors.New("audit: empty witness set")
	}
	msg := &gossip.HeadsMessage{From: "audit-client", Heads: seen}
	var resps []*gossip.HeadsResponse
	var firstErr error
	for i := range ws.Witnesses {
		var resp gossip.HeadsResponse
		if err := c.call(ws.Witnesses[i].Addr, gossip.KindPollinate, msg, &resp); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("audit: pollinating %s: %w", ws.Witnesses[i].Name, err)
			}
			continue
		}
		resps = append(resps, &resp)
	}
	if len(resps) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, errors.New("audit: no witness answered")
	}
	return resps, nil
}

// AcceptWitnessedHead accepts a cosigned source head only with a quorum
// of cosignatures from the pinned witness set. The source signature and
// every counted cosignature are verified together in one bls.VerifyBatch
// multi-pairing — the per-round cost of witness-quorum auditing.
func (c *Client) AcceptWitnessedHead(ws *WitnessSet, sourcePK *bls.PublicKey, ch *gossip.CosignedHead) error {
	if ws == nil {
		return errors.New("audit: nil witness set")
	}
	return gossip.VerifyCosignedHead(sourcePK, ws.Keys(), ws.Quorum, ch)
}

// WitnessedHead is the outcome of a witness-quorum audit of one source.
type WitnessedHead struct {
	// Head is the quorum-cosigned frontier head, nil when no head reached
	// the quorum.
	Head *WitnessedHeadResult
	// Proofs are every verified equivocation proof learned during the
	// audit — from witnesses, or constructed by the client itself when
	// two witnesses returned conflicting signed heads for the source.
	Proofs []gossip.EquivocationProof
}

// WitnessedHeadResult pairs the accepted head with its cosigner count.
type WitnessedHeadResult struct {
	Cosigned  gossip.CosignedHead
	Witnesses int // distinct pinned witnesses that cosigned
}

// AuditSourceWithWitnesses is the client's full pollination path for one
// log source: submit the heads this client saw, merge every witness's
// cosigned frontier, surface equivocation proofs (including split views
// the client itself detects across witness responses), and accept the
// best frontier head only at quorum — verified in one batched pairing
// check.
func (c *Client) AuditSourceWithWitnesses(ws *WitnessSet, sourceName string, sourcePK *bls.PublicKey, seen []gossip.GossipHead) (*WitnessedHead, error) {
	if sourcePK == nil {
		return nil, errors.New("audit: nil source key")
	}
	resps, err := c.Pollinate(ws, seen)
	if err != nil {
		return nil, err
	}
	spkb := sourcePK.Bytes()
	out := &WitnessedHead{}
	proofSeen := make(map[string]bool)
	addProof := func(p *gossip.EquivocationProof) {
		// Only convictions of the audited source key matter here — a
		// proof for any other key could be self-signed spam. Dedupe
		// before the pairing-check verification: W witnesses relaying
		// the same conviction cost one verification, not W.
		if !bytes.Equal(p.SourcePK, spkb[:]) {
			return
		}
		key := p.Fingerprint()
		if proofSeen[key] {
			return
		}
		if gossip.VerifyEquivocationProof(p) != nil {
			return
		}
		proofSeen[key] = true
		out.Proofs = append(out.Proofs, *p)
	}

	// Merge frontier heads for this source across witnesses, grouped by
	// (size, root); cosignatures dedupe by witness key. Heads are matched
	// by the source's BLS key when the witness provided it (labels are
	// witness-local and may differ), falling back to the name only for
	// key-less entries.
	// Per head, cosignatures group by witness key but keep every DISTINCT
	// signature (capped): a malicious witness response listing forged
	// signatures under honest keys must not displace the genuine ones —
	// VerifyCosignedHead attributes per candidate when the batch fails.
	const maxCosigCandidatesPerKey = 4
	type candidate struct {
		gh     gossip.GossipHead
		cosigs map[string][]gossip.Cosignature
	}
	bySize := make(map[uint64][]*candidate)
	for _, resp := range resps {
		for i := range resp.Proofs {
			addProof(&resp.Proofs[i])
		}
		for i := range resp.Heads {
			gh := resp.Heads[i]
			if len(gh.SourcePK) > 0 {
				if !bytes.Equal(gh.SourcePK, spkb[:]) {
					continue
				}
			} else if gh.Source != sourceName {
				continue
			}
			var cand *candidate
			for _, existing := range bySize[gh.Head.Size] {
				if existing.gh.Head.Head == gh.Head.Head {
					cand = existing
					break
				}
			}
			if cand == nil {
				cand = &candidate{gh: gh, cosigs: make(map[string][]gossip.Cosignature)}
				bySize[gh.Head.Size] = append(bySize[gh.Head.Size], cand)
			}
			for _, co := range gh.Cosigs {
				key := hex.EncodeToString(co.Witness)
				dup := false
				for _, have := range cand.cosigs[key] {
					if bytes.Equal(have.Sig, co.Sig) {
						dup = true
						break
					}
				}
				if !dup && len(cand.cosigs[key]) < maxCosigCandidatesPerKey {
					cand.cosigs[key] = append(cand.cosigs[key], co)
				}
			}
		}
	}

	// Two witnesses vouching for different roots at one size is a split
	// view the client can prove all by itself. Every pair is tried (the
	// per-size candidate count is at most the witness count), so a
	// garbage head injected by one witness cannot mask the genuine
	// conflict between two others.
	for _, group := range bySize {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				addProof(&gossip.EquivocationProof{
					Source:   sourceName,
					SourcePK: spkb[:],
					A:        group[i].gh.Head,
					B:        group[j].gh.Head,
				})
			}
		}
	}

	// Accept the largest head that REACHES QUORUM: candidates are tried
	// best-first (larger size, then more cosignatures), and a fresher
	// head that only one witness has cosigned yet does not veto an older
	// head the full quorum stands behind.
	var cands []*candidate
	for _, group := range bySize {
		cands = append(cands, group...)
	}
	if len(cands) == 0 {
		return out, errors.New("audit: witnesses returned no frontier for source " + sourceName)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gh.Head.Size != cands[j].gh.Head.Size {
			return cands[i].gh.Head.Size > cands[j].gh.Head.Size
		}
		return len(cands[i].cosigs) > len(cands[j].cosigs)
	})
	pinned := make(map[string]bool, len(ws.Witnesses))
	for i := range ws.Witnesses {
		kb := ws.Witnesses[i].Key.Bytes()
		pinned[hex.EncodeToString(kb[:])] = true
	}
	var lastErr error
	for _, cand := range cands {
		ch := gossip.CosignedHead{
			Source:   sourceName,
			SourcePK: spkb[:],
			Head:     cand.gh.Head,
		}
		for _, cos := range cand.cosigs {
			ch.Cosigs = append(ch.Cosigs, cos...)
		}
		if err := c.AcceptWitnessedHead(ws, sourcePK, &ch); err != nil {
			lastErr = err
			continue
		}
		n := 0
		for keyHex := range cand.cosigs {
			if pinned[keyHex] {
				n++
			}
		}
		out.Head = &WitnessedHeadResult{Cosigned: ch, Witnesses: n}
		return out, nil
	}
	return out, fmt.Errorf("audit: no frontier head for %s reached the witness quorum: %w", sourceName, lastErr)
}
