package tsdb

// Delta-splice helpers for the replication layer's sub-segment
// transfers (docs/REPLICATION.md §8). An append-extended segment's
// payload is its predecessor's entries region verbatim — behind a
// possibly re-sized series-count head — followed by newly appended
// entries; the manifest's append cursor marks the split. A follower
// holding the predecessor therefore only needs the bytes past its own
// entries region, splices them onto what it has, and verifies the
// assembled file against the manifest entry's full CRC before commit.
// Everything integrity-bearing lives here, next to the on-disk format,
// so the wire layer cannot weaken the contract.

import (
	"encoding/binary"
	"fmt"
	"os"

	"interdomain/internal/tsdb/blockenc"
)

// SegmentHeaderSize is the fixed byte length of a segment file header
// (docs/PERSISTENCE.md §2). Delta offsets — DeltaBase.From, the
// manifest's append cursor, a delta request's from parameter — all
// address payload bytes, counted from immediately after the header.
const SegmentHeaderSize = segmentHeaderSize

// DeltaBase is a follower's local predecessor of a delta splice: the
// entries region of a committed segment file, plus the byte offset in
// the successor's payload from which the follower must fetch
// (docs/REPLICATION.md §8).
type DeltaBase struct {
	// Entries is the local payload's series-entries region — everything
	// after the leading series-count uvarint.
	Entries []byte
	// From is the byte offset into the successor segment's payload at
	// which the bytes to fetch begin: the successor's head length plus
	// len(Entries).
	From int64
}

// OpenDeltaBase reads the local segment file at path and prepares it as
// the splice base for the successor described by sm (the new manifest
// entry, same shard and window span). The local file is verified
// self-consistently by the same parser every segment reader uses —
// magic, format version, its own header's payload length and CRC — so
// a corrupt local copy is detected here rather than poisoning an
// assembled segment. Only the successor's identity fields must match;
// everything else (whether the local bytes really are a prefix of the
// successor) is settled by AssembleDelta's full-CRC check.
func OpenDeltaBase(path string, sm SegmentMeta) (*DeltaBase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: delta base: %w", err)
	}
	h, payload, err := parseSegment(data, "delta base", path)
	if err != nil {
		return nil, err
	}
	if h.shard != sm.Shard || h.winStart != sm.WindowStart || h.winEnd != sm.WindowEnd {
		return nil, fmt.Errorf("tsdb: delta base %s: identity (shard %d, window [%d,%d)) does not match successor (shard %d, window [%d,%d))",
			path, h.shard, h.winStart, h.winEnd, sm.Shard, sm.WindowStart, sm.WindowEnd)
	}
	_, headLen, err := blockenc.PayloadHead(payload)
	if err != nil {
		return nil, fmt.Errorf("tsdb: delta base %s: %w", path, err)
	}
	entries := payload[headLen:]
	newHead := binary.AppendUvarint(nil, uint64(sm.Series))
	return &DeltaBase{
		Entries: entries,
		From:    int64(len(newHead) + len(entries)),
	}, nil
}

// AssembleDelta splices a fetched delta tail onto a local base and
// verifies the result against the successor's manifest entry: hdr must
// be the successor's exact segment header and tail its payload bytes
// from base.From on. The assembled file bytes pass the complete reader
// obligations of docs/PERSISTENCE.md §2 — identity fields, payload
// length, full-payload CRC-32C — before they are returned, so a wrong
// guess about the prefix relationship (the leader rewrote rather than
// extended, or the local copy diverged) fails loud here and the caller
// falls back to a whole-segment fetch (docs/REPLICATION.md §8). The
// returned slice is the complete segment file, ready for the
// write-tmp/fsync/rename commit dance.
//
// A nil base assembles a whole segment: tail is then the successor's
// complete payload. The follower verifies every whole-segment download
// that way, in memory, before writing a byte of it.
func AssembleDelta(sm SegmentMeta, base *DeltaBase, hdr, tail []byte) ([]byte, error) {
	if len(hdr) != segmentHeaderSize {
		return nil, fmt.Errorf("tsdb: assemble delta %s: header is %d bytes, want %d", sm.File, len(hdr), segmentHeaderSize)
	}
	var full []byte
	if base == nil {
		full = append(append(make([]byte, 0, len(hdr)+len(tail)), hdr...), tail...)
	} else {
		head := binary.AppendUvarint(nil, uint64(sm.Series))
		full = make([]byte, 0, len(hdr)+len(head)+len(base.Entries)+len(tail))
		full = append(full, hdr...)
		full = append(full, head...)
		full = append(full, base.Entries...)
		full = append(full, tail...)
	}
	if _, err := verifySegmentBytes(full, sm); err != nil {
		return nil, fmt.Errorf("tsdb: assemble delta: %w", err)
	}
	return full, nil
}
