package tsdb

// Tests for append-extended segments and the delta-splice helpers
// (docs/REPLICATION.md §8): an incremental snapshot of a pure append
// must record an append cursor and keep the predecessor's payload as a
// verbatim prefix; any mutation that breaks the pure-append property
// (backfill, retention trims) must fall back to a full rewrite with no
// cursor; and OpenDeltaBase/AssembleDelta must reconstruct the exact
// successor bytes from a local predecessor plus the shipped tail.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"interdomain/internal/tsdb/blockenc"
)

// appendFixture builds a store with a few series in one window and
// snapshots it incrementally into a fresh dir, returning both.
func appendFixture(t *testing.T) (*DB, string) {
	t.Helper()
	db := Open()
	for i := 0; i < 40; i++ {
		ts := t0.Add(time.Duration(i) * time.Minute)
		db.Write("m", map[string]string{"link": "a"}, ts, float64(i))
		db.Write("m", map[string]string{"link": "b"}, ts, float64(i)*2)
	}
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{Incremental: true}); err != nil {
		t.Fatalf("SnapshotDir: %v", err)
	}
	return db, dir
}

// cursorEntries returns the manifest entries carrying an append cursor.
func cursorEntries(t *testing.T, dir string) []SegmentMeta {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatalf("readManifest: %v", err)
	}
	var out []SegmentMeta
	for _, sm := range m.Segments {
		if sm.AppendCursor > 0 {
			out = append(out, sm)
		}
	}
	return out
}

func TestAppendExtendRecordsCursor(t *testing.T) {
	db, dir := appendFixture(t)
	m1, err := readManifest(dir)
	if err != nil {
		t.Fatalf("readManifest: %v", err)
	}
	if got := cursorEntries(t, dir); len(got) != 0 {
		t.Fatalf("first snapshot recorded cursors: %+v", got)
	}
	var prevByFile = map[string][]byte{}
	for _, sm := range m1.Segments {
		data, err := os.ReadFile(filepath.Join(dir, sm.File))
		if err != nil {
			t.Fatal(err)
		}
		prevByFile[segKey(sm)] = data
	}

	// Pure append into the same window, plus one brand-new key.
	for i := 40; i < 55; i++ {
		ts := t0.Add(time.Duration(i) * time.Minute)
		db.Write("m", map[string]string{"link": "a"}, ts, float64(i))
	}
	db.Write("m", map[string]string{"link": "c"}, t0.Add(50*time.Minute), 7)
	if _, err := db.SnapshotDir(dir, DirOptions{Incremental: true}); err != nil {
		t.Fatalf("SnapshotDir 2: %v", err)
	}
	cur := cursorEntries(t, dir)
	if len(cur) == 0 {
		t.Fatal("incremental pure-append snapshot recorded no append cursor")
	}
	for _, sm := range cur {
		data, err := os.ReadFile(filepath.Join(dir, sm.File))
		if err != nil {
			t.Fatal(err)
		}
		prev, ok := prevByFile[segKey(sm)]
		if !ok {
			t.Fatalf("cursor segment %s has no predecessor in generation 1", sm.File)
		}
		// The predecessor's entries region must appear verbatim right
		// before the cursor.
		newPayload := data[segmentHeaderSize:]
		prevPayload := prev[segmentHeaderSize:]
		_, prevHead, err := blockenc.PayloadHead(prevPayload)
		if err != nil {
			t.Fatal(err)
		}
		prevEntries := prevPayload[prevHead:]
		if sm.AppendCursor > int64(len(newPayload)) {
			t.Fatalf("cursor %d beyond payload %d", sm.AppendCursor, len(newPayload))
		}
		prefix := newPayload[:sm.AppendCursor]
		if !bytes.HasSuffix(prefix, prevEntries) {
			t.Fatalf("segment %s: predecessor entries are not a verbatim prefix before the cursor", sm.File)
		}
		if int64(len(newPayload)) == sm.AppendCursor {
			t.Fatalf("segment %s: cursor at end of payload, nothing appended", sm.File)
		}
	}

	// Oracle: a restore of the append-extended directory agrees with the
	// live store.
	if restored := lazyOpen(t, dir, DirOptions{}); restored.Digest() != db.Digest() {
		t.Fatalf("digest mismatch: live %x restored %x", db.Digest(), restored.Digest())
	}
}

// segKey identifies a segment by identity — its window span — not by
// file name, across generations.
func segKey(sm SegmentMeta) string {
	return filepath.Join(
		time.Unix(0, sm.WindowStart).UTC().Format(time.RFC3339),
		time.Unix(0, sm.WindowEnd).UTC().Format(time.RFC3339))
}

func TestBackfillDefeatsAppendExtend(t *testing.T) {
	db, dir := appendFixture(t)
	// Insert strictly before the persisted maximum of link=a: a backfill.
	db.Write("m", map[string]string{"link": "a"}, t0.Add(90*time.Second), 99)
	if _, err := db.SnapshotDir(dir, DirOptions{Incremental: true}); err != nil {
		t.Fatalf("SnapshotDir: %v", err)
	}
	if got := cursorEntries(t, dir); len(got) != 0 {
		t.Fatalf("backfill snapshot recorded cursors: %+v", got)
	}
	if lazyOpen(t, dir, DirOptions{}).Digest() != db.Digest() {
		t.Fatal("digest mismatch after backfill rewrite")
	}
}

func TestRetainDefeatsAppendExtend(t *testing.T) {
	db, dir := appendFixture(t)
	// Trim the oldest points, then append; the trimmed window must not
	// be append-extended even though per-key counts could line up.
	if n := db.Retain(t0.Add(10*time.Minute), t0.Add(24*time.Hour)); n == 0 {
		t.Fatal("Retain removed nothing")
	}
	db.Write("m", map[string]string{"link": "a"}, t0.Add(60*time.Minute), 1)
	if _, err := db.SnapshotDir(dir, DirOptions{Incremental: true}); err != nil {
		t.Fatalf("SnapshotDir: %v", err)
	}
	if got := cursorEntries(t, dir); len(got) != 0 {
		t.Fatalf("post-trim snapshot recorded cursors: %+v", got)
	}
	if lazyOpen(t, dir, DirOptions{}).Digest() != db.Digest() {
		t.Fatal("digest mismatch after trim rewrite")
	}
}

func TestDeltaSpliceRoundTrip(t *testing.T) {
	db, dir := appendFixture(t)
	m1, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Keep a copy of generation 1 as the "follower's" local state.
	follower := t.TempDir()
	for _, sm := range m1.Segments {
		data, err := os.ReadFile(filepath.Join(dir, sm.File))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(follower, sm.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for i := 40; i < 60; i++ {
		db.Write("m", map[string]string{"link": "b"}, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	if _, err := db.SnapshotDir(dir, DirOptions{Incremental: true}); err != nil {
		t.Fatal(err)
	}
	cur := cursorEntries(t, dir)
	if len(cur) == 0 {
		t.Fatal("no cursor segments to splice")
	}
	for _, sm := range cur {
		var prevFile string
		for _, p := range m1.Segments {
			if p.WindowStart == sm.WindowStart && p.WindowEnd == sm.WindowEnd {
				prevFile = p.File
			}
		}
		if prevFile == "" {
			t.Fatalf("no predecessor for %s", sm.File)
		}
		base, err := OpenDeltaBase(filepath.Join(follower, prevFile), sm)
		if err != nil {
			t.Fatalf("OpenDeltaBase: %v", err)
		}
		if base.From != sm.AppendCursor {
			t.Fatalf("follower-computed offset %d != manifest cursor %d", base.From, sm.AppendCursor)
		}
		leaderBytes, err := os.ReadFile(filepath.Join(dir, sm.File))
		if err != nil {
			t.Fatal(err)
		}
		hdr := leaderBytes[:segmentHeaderSize]
		tail := leaderBytes[segmentHeaderSize+base.From:]
		full, err := AssembleDelta(sm, base, hdr, tail)
		if err != nil {
			t.Fatalf("AssembleDelta: %v", err)
		}
		if !bytes.Equal(full, leaderBytes) {
			t.Fatalf("assembled segment differs from leader's %s", sm.File)
		}

		// A diverged local base must fail the full-CRC check, not
		// produce a plausible segment.
		bad := &DeltaBase{Entries: append([]byte(nil), base.Entries...), From: base.From}
		bad.Entries[len(bad.Entries)/2] ^= 0x01
		if _, err := AssembleDelta(sm, bad, hdr, tail); err == nil {
			t.Fatal("AssembleDelta accepted a diverged base")
		}
	}
}

func TestOpenDeltaBaseRejects(t *testing.T) {
	_, dir := appendFixture(t)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.Segments[0]
	path := filepath.Join(dir, sm.File)

	other := sm
	other.WindowStart += int64(DefaultWindow)
	other.WindowEnd += int64(DefaultWindow)
	if _, err := OpenDeltaBase(path, other); err == nil {
		t.Fatal("OpenDeltaBase accepted a window mismatch")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	corrupt := filepath.Join(t.TempDir(), sm.File)
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDeltaBase(corrupt, sm); err == nil {
		t.Fatal("OpenDeltaBase accepted a corrupt local file")
	}
}

func TestManifestRejectsNegativeCursor(t *testing.T) {
	_, dir := appendFixture(t)
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Segments[0].AppendCursor = -1
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(raw); err == nil {
		t.Fatal("ParseManifest accepted a negative append cursor")
	}
}
