package replication

// The delta frame format (docs/REPLICATION.md §8): GET
// /replica/v2/delta/<seg>?from=<offset> ships only the payload tail an
// append-extended segment gained over its predecessor. The delta path
// is strictly an optimization, guarded end-to-end by the manifest
// entry's full CRC-32C: any failure — a 404 from an exporter that does
// not serve it included — falls back to a whole-segment fetch.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"interdomain/internal/tsdb"
)

// deltaMagic opens every delta frame on the wire.
const deltaMagic = "ITSDBDLT"

// deltaFrameVersion is the frame layout version this package speaks.
const deltaFrameVersion = 1

// deltaFrameHeaderSize is the fixed frame prelude: magic (8), version
// (u32), from offset (u64), tail length (u64), CRC-32C (u32) — all
// big-endian, followed by the segment header and the tail bytes.
const deltaFrameHeaderSize = 8 + 4 + 8 + 8 + 4

// encodeDeltaFrame wraps a segment header and payload tail in a delta
// frame. The CRC-32C covers hdr||tail so transport corruption is
// caught before the follower attempts a splice; the spliced file's
// full-payload CRC remains the commit authority.
func encodeDeltaFrame(from int64, hdr, tail []byte) []byte {
	out := make([]byte, 0, deltaFrameHeaderSize+len(hdr)+len(tail))
	out = append(out, deltaMagic...)
	out = binary.BigEndian.AppendUint32(out, deltaFrameVersion)
	out = binary.BigEndian.AppendUint64(out, uint64(from))
	out = binary.BigEndian.AppendUint64(out, uint64(len(tail)))
	crc := crc32.Update(crc32.Checksum(hdr, etagTable), etagTable, tail)
	out = binary.BigEndian.AppendUint32(out, crc)
	out = append(out, hdr...)
	out = append(out, tail...)
	return out
}

// decodeDeltaFrame parses and integrity-checks a delta frame, returning
// the offset the leader cut at, the successor's segment header, and the
// payload tail. Any structural or checksum problem is an error — the
// caller treats it like any other failed delta attempt and falls back
// to a whole-segment fetch.
func decodeDeltaFrame(data []byte) (from int64, hdr, tail []byte, err error) {
	if len(data) < deltaFrameHeaderSize+tsdb.SegmentHeaderSize {
		return 0, nil, nil, fmt.Errorf("replication: delta frame truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != deltaMagic {
		return 0, nil, nil, fmt.Errorf("replication: delta frame bad magic %q", data[:8])
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != deltaFrameVersion {
		return 0, nil, nil, fmt.Errorf("replication: delta frame version %d, want %d", v, deltaFrameVersion)
	}
	from = int64(binary.BigEndian.Uint64(data[12:20]))
	tailLen := binary.BigEndian.Uint64(data[20:28])
	crc := binary.BigEndian.Uint32(data[28:32])
	rest := data[deltaFrameHeaderSize:]
	if uint64(len(rest)) != uint64(tsdb.SegmentHeaderSize)+tailLen {
		return 0, nil, nil, fmt.Errorf("replication: delta frame body is %d bytes, want %d", len(rest), uint64(tsdb.SegmentHeaderSize)+tailLen)
	}
	hdr, tail = rest[:tsdb.SegmentHeaderSize], rest[tsdb.SegmentHeaderSize:]
	if got := crc32.Update(crc32.Checksum(hdr, etagTable), etagTable, tail); got != crc {
		return 0, nil, nil, fmt.Errorf("replication: delta frame checksum mismatch (got %08x, want %08x)", got, crc)
	}
	return from, hdr, tail, nil
}
