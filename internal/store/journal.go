// Package store is the durable storage engine under the monitor and
// witness daemons: a crash-safe home for the public transparency log,
// derived monitor state, signed tree heads, and key material, so a
// restart does not discard the log or change the node's tree-head
// identity (DESIGN.md §6).
//
// Layout of a store directory:
//
//	meta.json                    shard count, format version
//	wal/wal-<seq>.log            fsync-batched write-ahead log: leaf
//	                             records and signed-head records, one
//	                             order; the last head record is the last
//	                             signed tree head (size, super-root)
//	segments/shard-NNN/seg-*.log append-only leaf segments, one family
//	                             per Merkle-log shard
//	snapshot/state.json          latest derived-state snapshot (opaque
//	                             state blob + cached leaf digests), CRC'd
//	keys/<name>.key              key material, created once, mode 0600
//	head.json                    read only: where builds before heads
//	                             rode the WAL kept the last head; used
//	                             when no WAL holds a head record
//
// A head record follows, in the WAL, every leaf record it covers, so a
// torn tail that keeps a head keeps its leaves. Opening and every
// checkpoint re-journal the last head into the fresh WAL before the old
// one is deleted. A build that predates head records refuses a WAL
// holding them ("holds record kind 3"): downgrade fails closed.
//
// Every on-disk record — WAL, segments, and the witness journal — uses
// one framing: length, kind byte, payload, CRC32-C. Readers stop at the
// first frame that is short or fails its CRC, so a crash mid-write
// (a "torn tail") loses at most the unsynced suffix and never produces
// garbage records. The write path is group-committed: concurrent
// appends land in the file in order under a mutex, and one fsync
// covers every append that preceded it, so the per-append fsync cost
// amortizes across a batch (DESIGN.md §6 measures the hot path against
// the in-memory log).
//
// OWNS: the directory layout above and every file format in it; the
// record framing and torn-tail rule; group commit and the order "WAL
// durable, then acknowledged" for leaves and heads alike; checkpointing
// and WAL rotation; the sticky poison after a failed write or fsync; the
// WAL-fsync watchdog bracket and the one disk-fault hook inside it
// (Options.DiskFault), around leaf-led and head-led fsyncs.
//
// MUST NOT DO: interpret a leaf, a snapshot's state blob, a head's
// signature or a key's bytes — they are opaque; sign or verify anything;
// serve a recovered log with a gap in it; offer a second way to stall or
// fail the disk beside Options.DiskFault.
//
// MUST NOT import: any repro/internal package except obsv.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Record framing: u32 payload length, u8 kind, payload, u32 CRC32-C
// over (kind || payload).
const (
	recordHeaderSize  = 5
	recordTrailerSize = 4
	// MaxRecordSize bounds one record so a corrupt length field cannot
	// drive a huge allocation during recovery.
	MaxRecordSize = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func recordCRC(kind byte, payload []byte) uint32 {
	c := crc32.Update(0, crcTable, []byte{kind})
	return crc32.Update(c, crcTable, payload)
}

// appendRecord encodes one framed record onto dst.
func appendRecord(dst []byte, kind byte, payload []byte) []byte {
	var hdr [recordHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	var crc [recordTrailerSize]byte
	binary.BigEndian.PutUint32(crc[:], recordCRC(kind, payload))
	return append(dst, crc[:]...)
}

// errStopScan lets a ScanRecords callback terminate the scan early
// without marking the journal corrupt.
var errStopScan = errors.New("store: stop scan")

// ScanRecords reads framed records from r, calling fn for each intact
// record, and returns the byte length of the valid prefix. A short,
// over-long, or CRC-failing frame ends the scan without error: that is
// the torn tail a crash leaves behind, and the caller truncates to the
// returned offset before appending. Errors from fn (other than the
// internal stop sentinel) abort the scan and are returned.
//
// The payload passed to fn is only valid for the duration of the call.
func ScanRecords(r io.Reader, fn func(kind byte, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var valid int64
	var hdr [recordHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return valid, nil // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n > MaxRecordSize {
			return valid, nil // corrupt length
		}
		kind := hdr[4]
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return valid, nil // torn payload
		}
		var crc [recordTrailerSize]byte
		if _, err := io.ReadFull(br, crc[:]); err != nil {
			return valid, nil // torn trailer
		}
		if binary.BigEndian.Uint32(crc[:]) != recordCRC(kind, payload) {
			return valid, nil // corrupt record
		}
		if fn != nil {
			if err := fn(kind, payload); err != nil {
				if errors.Is(err, errStopScan) {
					return valid, nil
				}
				return valid, err
			}
		}
		valid += int64(recordHeaderSize) + int64(n) + int64(recordTrailerSize)
	}
}

// scanFile scans a record file on disk, returning the valid prefix
// length and the file's total size.
func scanFile(path string, fn func(kind byte, payload []byte) error) (valid, total int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	valid, err = ScanRecords(f, fn)
	return valid, st.Size(), err
}

// Journal is a standalone framed record log with the shared torn-tail
// recovery semantics — the persistence vehicle for small event streams
// (the gossip witness journals its accepted heads, cosignatures, and
// equivocation proofs through one of these).
type Journal struct {
	f    *os.File
	path string
}

// OpenJournal replays an existing journal through fn (nil to skip),
// truncates any torn tail, and opens the file for appending.
func OpenJournal(path string, fn func(kind byte, payload []byte) error) (*Journal, error) {
	valid := int64(0)
	if _, err := os.Stat(path); err == nil {
		v, total, err := scanFile(path, fn)
		if err != nil {
			return nil, fmt.Errorf("store: replaying journal %s: %w", path, err)
		}
		valid = v
		if v != total {
			if err := os.Truncate(path, v); err != nil {
				return nil, fmt.Errorf("store: dropping torn journal tail: %w", err)
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// Append writes one framed record. Durability requires a later Sync.
func (j *Journal) Append(kind byte, payload []byte) error {
	_, err := j.f.Write(appendRecord(nil, kind, payload))
	return err
}

// Sync fsyncs everything appended so far.
func (j *Journal) Sync() error { return j.f.Sync() }

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic writes data to path via a same-directory temp file
// and rename, fsyncing the file and the directory so a crash leaves
// either the old content or the new, never a torn mix. Exported for
// other durable single-file states (e.g. a trust domain's epoch-tagged
// key share) that need the store's crash contract without a full Store.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return writeFileAtomic(path, data, perm, true)
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, fsyncing the file (and the directory when sync is set) so a
// crash leaves either the old content or the new, never a torn mix.
func writeFileAtomic(path string, data []byte, perm os.FileMode, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return syncDir(filepath.Dir(path))
	}
	return nil
}
