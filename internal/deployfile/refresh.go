package deployfile

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/bls"
	"repro/internal/ff"
	"repro/internal/store"
)

// Pending-ceremony file: the coordinator's half of the epoch state
// machine. A refresh ceremony must be re-driven with the SAME package
// after a coordinator crash (domains that already applied it only
// acknowledge replays of the same ceremony id), so the package —
// including the secret per-share deltas — is durably recorded BEFORE
// the first domain is contacted, and deleted only after the rotated key
// has been committed to the parameters file. On restart:
//
//	pending.NewEpoch == params.Epoch+1  -> re-drive the ceremony
//	pending.NewEpoch <= params.Epoch    -> already committed; delete
//
// The deltas link consecutive epochs (delta knowledge lets an attacker
// convert epoch-e shares into epoch-e+1 shares), so the file is written
// 0600 and removed at commit.

// Refresh authority key file. Refresh frames must be signed by the
// deployment's developer (update) key; in the single-machine demo the
// daemon exports the signing seed to a 0600 file next to the parameters
// so an out-of-process coordinator (dtclient refresh) can sign the
// frames it drives. A real deployment would keep this seed wherever the
// module-release key lives — it is exactly as sensitive.

// WriteRefreshKey durably records the developer signing seed (atomic
// replace, 0600).
func WriteRefreshKey(path string, seed []byte) error {
	data := hex.EncodeToString(seed) + "\n"
	if err := store.WriteFileAtomic(path, []byte(data), 0o600); err != nil {
		return fmt.Errorf("deployfile: writing refresh key %s: %w", path, err)
	}
	return nil
}

// ReadRefreshKey loads the developer signing seed written by
// WriteRefreshKey.
func ReadRefreshKey(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deployfile: reading refresh key %s: %w", path, err)
	}
	seed, err := hex.DecodeString(strings.TrimSpace(string(data)))
	if err != nil {
		return nil, fmt.Errorf("deployfile: refresh key %s is corrupt: %w", path, err)
	}
	return seed, nil
}

// RefreshFile is the on-disk pending-ceremony format.
type RefreshFile struct {
	CeremonyID string          `json:"ceremony_id"` // hex 16 bytes
	NewEpoch   uint64          `json:"new_epoch"`
	Deltas     []string        `json:"deltas"` // hex 32-byte scalars, index order 1..N
	NewKey     *ThresholdEntry `json:"new_key"`
}

// WriteRefresh durably records a pending ceremony (atomic replace, 0600).
func WriteRefresh(path string, ref *bls.Refresh) error {
	rf := RefreshFile{
		CeremonyID: hex.EncodeToString(ref.CeremonyID[:]),
		NewEpoch:   ref.NewEpoch,
		NewKey:     ThresholdEntryFromKey(ref.NewKey),
	}
	for i := range ref.Deltas {
		db := ref.Deltas[i].Delta.Bytes()
		rf.Deltas = append(rf.Deltas, hex.EncodeToString(db[:]))
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("deployfile: encoding pending refresh: %w", err)
	}
	if err := store.WriteFileAtomic(path, append(data, '\n'), 0o600); err != nil {
		return fmt.Errorf("deployfile: writing pending refresh %s: %w", path, err)
	}
	return nil
}

// ReadRefresh loads a pending ceremony. A missing file returns
// (nil, nil): no ceremony is in flight.
func ReadRefresh(path string) (*bls.Refresh, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("deployfile: reading pending refresh %s: %w", path, err)
	}
	var rf RefreshFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("deployfile: parsing pending refresh %s: %w", path, err)
	}
	if rf.NewKey == nil {
		return nil, fmt.Errorf("deployfile: pending refresh %s has no rotated key", path)
	}
	ref := &bls.Refresh{NewEpoch: rf.NewEpoch}
	cid, err := hex.DecodeString(rf.CeremonyID)
	if err != nil || len(cid) != len(ref.CeremonyID) {
		return nil, fmt.Errorf("deployfile: pending refresh %s: bad ceremony id", path)
	}
	copy(ref.CeremonyID[:], cid)
	for i, dHex := range rf.Deltas {
		db, err := hex.DecodeString(dHex)
		if err != nil {
			return nil, fmt.Errorf("deployfile: pending refresh %s: bad delta %d: %w", path, i, err)
		}
		var d ff.Fr
		if err := d.SetBytes(db); err != nil {
			return nil, fmt.Errorf("deployfile: pending refresh %s: bad delta %d: %w", path, i, err)
		}
		ref.Deltas = append(ref.Deltas, bls.RefreshDelta{Index: uint32(i + 1), Delta: d})
	}
	ref.NewKey, err = rf.NewKey.Key()
	if err != nil {
		return nil, fmt.Errorf("deployfile: pending refresh %s: %w", path, err)
	}
	if len(ref.Deltas) != ref.NewKey.N {
		return nil, fmt.Errorf("deployfile: pending refresh %s: %d deltas for n=%d", path, len(ref.Deltas), ref.NewKey.N)
	}
	return ref, nil
}

// RemoveRefresh deletes a committed (or abandoned) pending-ceremony
// file; a missing file is not an error.
func RemoveRefresh(path string) error {
	err := os.Remove(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("deployfile: removing pending refresh %s: %w", path, err)
	}
	return nil
}
