package tsdb

// The manifest is the commit record of a segment directory: a snapshot
// or compaction pass becomes visible exactly when the new manifest is
// renamed over the old one. Schema, versioning and crash-safety rules
// are specified normatively in docs/PERSISTENCE.md §3; this file is the
// implementation.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// ManifestName is the manifest's file name inside a segment directory.
const ManifestName = "MANIFEST.json"

// ManifestVersion is the manifest schema version this package writes
// and reads: version 2 lists one entry per disjoint window span, where
// version 1 listed one per (shard, window). Readers reject any other
// version (docs/PERSISTENCE.md §3, "Versioning").
const ManifestVersion = 2

// SegmentMeta is one manifest entry: the identity and integrity data of
// one segment file. Every field is redundant with the segment's own
// header; RestoreDir cross-checks the two and rejects any mismatch.
type SegmentMeta struct {
	// File is the segment's file name, relative to the directory.
	File string `json:"file"`
	// WindowStart is the window's inclusive lower bound, Unix nanoseconds.
	WindowStart int64 `json:"window_start"`
	// WindowEnd is the window's exclusive upper bound, Unix nanoseconds.
	WindowEnd int64 `json:"window_end"`
	// Series is the number of series slices encoded in the segment.
	Series int `json:"series"`
	// Points is the number of points encoded in the segment.
	Points int `json:"points"`
	// CRC is the CRC-32C (Castagnoli) of the segment's payload.
	CRC uint32 `json:"crc"`
	// Level is the compaction level: 0 for segments written directly by
	// a snapshot, k+1 for a segment produced by
	// merging level-<=k inputs (docs/PERSISTENCE.md §8). Informational
	// — the window bounds, not the level, define the segment's identity.
	Level int `json:"level,omitempty"`
	// AppendCursor, when positive, records that this segment was
	// produced by append-extending its predecessor for the same window
	// span: payload bytes [0, AppendCursor) are the new series
	// count followed by the predecessor's entries region verbatim, and
	// everything from AppendCursor on is newly appended
	// (docs/REPLICATION.md §8). Zero means no such relationship is
	// promised. Purely an optimization hint for delta shipping — the
	// segment file is complete and self-contained either way.
	AppendCursor int64 `json:"append_cursor,omitempty"`
}

// Manifest describes a complete segment directory. A directory is valid
// iff its .seg files and the manifest's Segments list match exactly —
// RestoreDir treats a missing or unlisted segment file as corruption,
// never as something to skip silently.
type Manifest struct {
	// Version is the manifest schema version (ManifestVersion).
	Version int `json:"version"`
	// Generation increments on every successful SnapshotDir or CompactDir
	// into the directory; incremental snapshots require the on-disk
	// generation to equal the one the store last wrote.
	Generation uint64 `json:"generation"`
	// WindowNanos is the segment window length in nanoseconds.
	WindowNanos int64 `json:"window_nanos"`
	// StoreSeries is the number of distinct series in the snapshotted
	// store (a series split across windows counts once).
	StoreSeries int `json:"store_series"`
	// TotalPoints is the sum of Points over Segments.
	TotalPoints int `json:"total_points"`
	// Segments lists every segment file in window order; their window
	// spans are disjoint. Readers rely on both: every parsed manifest
	// has been validated.
	Segments []SegmentMeta `json:"segments"`
}

// sortSegments puts the manifest entries in canonical window order so
// repeated snapshots of identical content produce identical manifests.
func (m *Manifest) sortSegments() {
	slices.SortFunc(m.Segments, func(a, b SegmentMeta) int { return cmp.Compare(a.WindowStart, b.WindowStart) })
}

// files returns the set of file names m lists; a nil m lists none.
func (m *Manifest) files() map[string]bool {
	if m == nil {
		return nil
	}
	set := make(map[string]bool, len(m.Segments))
	for _, sm := range m.Segments {
		set[sm.File] = true
	}
	return set
}

// clone returns a copy of m that shares no mutable state with it.
func (m *Manifest) clone() *Manifest {
	c := *m
	c.Segments = slices.Clone(m.Segments)
	return &c
}

// writeManifest atomically publishes m as dir's manifest — the commit
// point of a snapshot or compaction pass (docs/PERSISTENCE.md §4). The
// published bytes are remembered as validated, so the writer's next
// pass reads them back without a parse.
func writeManifest(dir string, m *Manifest) error {
	m.sortSegments()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("tsdb: encode manifest: %w", err)
	}
	data = append(data, '\n')
	if err := publishManifest(dir, data); err != nil {
		return err
	}
	if m.validate() == nil {
		parsedManifests.put(data, crc32.Checksum(data, crcTable), m)
	}
	return nil
}

// readManifest loads and validates dir's manifest.
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("tsdb: read manifest: %w", err)
	}
	return ParseManifest(data)
}

// ParseManifest parses and validates raw manifest bytes against the
// schema of docs/PERSISTENCE.md §3: supported version, positive and
// self-consistent window bounds per entry, entries in window order with
// pairwise disjoint spans, file names that are well-formed segment names with no path
// components, no duplicate file names. The replication follower uses it to vet a
// manifest fetched over HTTP before acting on it; every on-disk read
// and CommitManifest go through the same checks, so no manifest can
// make a reader or writer touch a file outside its directory.
//
// Bytes this process already validated — parsed here before, or
// published by a snapshot writer — are not parsed again: a follower's
// commit and hot-swap after its own parse, a writer's next pass and a
// stats request all get a copy of the remembered manifest instead
// (docs/REPLICATION.md §3).
func ParseManifest(data []byte) (*Manifest, error) {
	crc := crc32.Checksum(data, crcTable)
	if m := parsedManifests.get(data, crc); m != nil {
		return m, nil
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	parsedManifests.put(data, crc, m)
	return m, nil
}

// decodeManifest is ParseManifest without the memo: decode, then
// validate.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("tsdb: parse manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate checks a decoded manifest against the schema rules
// ParseManifest documents.
func (m *Manifest) validate() error {
	switch {
	case m.Version > ManifestVersion:
		return fmt.Errorf("tsdb: manifest version %d newer than supported %d (see docs/PERSISTENCE.md)", m.Version, ManifestVersion)
	case m.Version < ManifestVersion:
		return fmt.Errorf("tsdb: manifest version %d older than supported %d: a per-shard directory this version cannot read (see docs/PERSISTENCE.md)", m.Version, ManifestVersion)
	}
	if m.WindowNanos <= 0 {
		return fmt.Errorf("tsdb: manifest window %d is not positive", m.WindowNanos)
	}
	seen := make(map[string]bool, len(m.Segments))
	for i, sm := range m.Segments {
		if !ValidSegmentName(sm.File) {
			return fmt.Errorf("tsdb: manifest entry %q is not a segment file name", sm.File)
		}
		// Every entry's window must be consistent with the directory-wide
		// window length: a positive whole number of base windows, aligned
		// to the window grid (docs/PERSISTENCE.md §3). Freshly written
		// segments span exactly one window; compaction merges adjacent
		// windows into wider spans (docs/PERSISTENCE.md §8). Per-segment
		// header checks alone would accept a manifest whose window_nanos
		// disagrees with its entries.
		if span := sm.WindowEnd - sm.WindowStart; span <= 0 || span%m.WindowNanos != 0 {
			return fmt.Errorf("tsdb: manifest entry %s: window [%d,%d) spans %d ns, not a positive multiple of the %d ns window",
				sm.File, sm.WindowStart, sm.WindowEnd, span, m.WindowNanos)
		}
		if sm.WindowStart%m.WindowNanos != 0 {
			return fmt.Errorf("tsdb: manifest entry %s: window start %d is not aligned to the %d ns window",
				sm.File, sm.WindowStart, m.WindowNanos)
		}
		if sm.AppendCursor < 0 {
			return fmt.Errorf("tsdb: manifest entry %s: negative append cursor %d", sm.File, sm.AppendCursor)
		}
		// One window span, one file: entries come in window order with
		// pairwise disjoint spans, which is what lets every reader
		// rebuild a series by appending segments in list order and
		// identify a segment across generations by its span alone. A
		// per-shard manifest lists each window once per shard and fails
		// here.
		if i > 0 {
			if prev := m.Segments[i-1]; sm.WindowStart < prev.WindowEnd {
				return fmt.Errorf("tsdb: manifest entries %s [%d,%d) and %s [%d,%d) overlap or are out of window order",
					prev.File, prev.WindowStart, prev.WindowEnd, sm.File, sm.WindowStart, sm.WindowEnd)
			}
		}
		if seen[sm.File] {
			return fmt.Errorf("tsdb: manifest lists %s twice", sm.File)
		}
		seen[sm.File] = true
	}
	return nil
}

// parsedManifests remembers the manifest bytes this process validated
// last, so the same bytes are parsed once however often they are read.
// It is process-wide because the hops it serves do not share a value —
// a follower's parse, tsdb.CommitManifest and RestoreDir — and, being
// keyed by content and handing out copies, no caller can observe
// another's use of it: a hit returns exactly what a parse would.
var parsedManifests manifestMemo

// manifestMemoSize bounds the remembered manifests. A publish round
// holds at most two alive at once — the generation just written and
// the one before it — so four leave slack without holding on to history.
const manifestMemoSize = 4

// manifestMemo is a small content-addressed memo of validated
// manifests. A lookup matches on CRC-32C and then on every byte, never
// on trust, and every manifest going in or out is a copy, so no caller
// can change what another is handed.
type manifestMemo struct {
	mu      sync.Mutex
	entries [manifestMemoSize]memoEntry
	next    int // slot the next put overwrites
}

// memoEntry is one remembered manifest and the exact bytes it came from.
type memoEntry struct {
	crc  uint32
	data []byte
	m    *Manifest
}

// get returns a copy of the manifest remembered for data, nil if none.
func (mm *manifestMemo) get(data []byte, crc uint32) *Manifest {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for i := range mm.entries {
		if e := &mm.entries[i]; e.m != nil && e.crc == crc && bytes.Equal(e.data, data) {
			return e.m.clone()
		}
	}
	return nil
}

// put remembers m as the validated form of data, evicting the oldest
// entry.
func (mm *manifestMemo) put(data []byte, crc uint32, m *Manifest) {
	e := memoEntry{crc: crc, data: bytes.Clone(data), m: m.clone()}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.entries[mm.next] = e
	mm.next = (mm.next + 1) % manifestMemoSize
}
