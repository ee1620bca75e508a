package tsdb

// Tests for the segment format version gate and the level-compaction
// pass (docs/PERSISTENCE.md §2, §8): the named version error for every
// version but the supported one, digest-preserving compaction, and the
// interplay of compaction with incremental snapshots, retention and
// crash leftovers.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestUnknownSegmentVersionNamedError: a future format version is
// rejected with an error wrapping ErrSegmentVersion, so callers can
// distinguish version skew from corruption programmatically.
func TestUnknownSegmentVersionNamedError(t *testing.T) {
	db := buildSegStore(time.Hour)
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	seg := segmentAt(t, dir, func(SegmentMeta) bool { return true })
	path := filepath.Join(dir, seg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[11] = byte(SegmentVersion + 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Open().RestoreDir(dir, DirOptions{})
	if !errors.Is(err, ErrSegmentVersion) {
		t.Fatalf("error does not wrap ErrSegmentVersion: %v", err)
	}
}

// TestOldSegmentVersionsRefused: the retired v1 (gob), v2 (sum-less
// block) and v3 (per-shard) versions are refused by every reader —
// RestoreDir, VerifySegmentFile (so a follower rejects
// the file before its manifest commit), CompactDir and AssembleDelta — with an error wrapping ErrSegmentVersion that names
// the file, and the generation does not move. The headers are
// hand-built from a current segment: valid magic, valid CRC, the
// version field rewritten, and for v3 the 56-byte per-shard header
// with its shard field (docs/PERSISTENCE.md §2, "Versioning"). A whole
// per-shard directory fails earlier, at its version-1 manifest, and
// SnapshotDir refuses to overwrite it (docs/PERSISTENCE.md §3, §4).
func TestOldSegmentVersionsRefused(t *testing.T) {
	window := time.Hour
	at := t0.Add(2*window + 17*time.Minute) // inside the data: its segment is the one rewritten
	readers := []struct {
		name string
		read func(dir string, sm SegmentMeta) error
	}{
		{"RestoreDir", func(dir string, _ SegmentMeta) error { return Open().RestoreDir(dir, DirOptions{}) }},
		{"VerifySegmentFile", func(dir string, sm SegmentMeta) error {
			return VerifySegmentFile(filepath.Join(dir, sm.File), sm)
		}},
		{"CompactDir", func(dir string, _ SegmentMeta) error {
			_, err := CompactDir(dir, CompactOptions{ColdBefore: maxTime})
			return err
		}},
		{"AssembleDelta", func(dir string, sm SegmentMeta) error {
			data, err := os.ReadFile(filepath.Join(dir, sm.File))
			if err != nil {
				return err
			}
			_, err = AssembleDelta(sm, nil, data[:segmentHeaderSize], data[segmentHeaderSize:])
			return err
		}},
	}
	for _, version := range []byte{1, 2, 3} {
		for _, r := range readers {
			dir := t.TempDir()
			if _, err := buildSegStore(window).SnapshotDir(dir, DirOptions{}); err != nil {
				t.Fatal(err)
			}
			m, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			var old SegmentMeta
			for _, sm := range m.Segments {
				if sm.WindowStart <= at.UnixNano() && at.UnixNano() < sm.WindowEnd {
					old = sm
					break
				}
			}
			if old.File == "" {
				t.Fatal("fixture has no segment holding the chosen instant")
			}
			path := filepath.Join(dir, old.File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[11] = version // version field, docs/PERSISTENCE.md §2 field 2
			if version == 3 {
				// The v3 header carried the owning shard after the version.
				data = slices.Concat(data[:12], []byte{0, 0, 0, 7}, data[12:])
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			err = r.read(dir, old)
			if !errors.Is(err, ErrSegmentVersion) {
				t.Fatalf("v%d via %s: error does not wrap ErrSegmentVersion: %v", version, r.name, err)
			}
			if !strings.Contains(err.Error(), old.File) {
				t.Fatalf("v%d via %s: error %q does not name %s", version, r.name, err, old.File)
			}
			// Fail-loud, not destructive: the refusing pass left the
			// committed manifest in place.
			if after, err := readManifest(dir); err != nil || after.Generation != m.Generation {
				t.Fatalf("v%d via %s: refused pass moved the manifest (%v)", version, r.name, err)
			}
		}
	}

	// A whole per-shard directory — manifest version 1, one entry per
	// (shard, window) — is refused at its manifest by every directory
	// reader and by SnapshotDir, and left exactly as it was.
	dir := t.TempDir()
	h := int64(window)
	v1 := fmt.Sprintf(`{"version":1,"generation":3,"window_nanos":%d,"store_series":2,"total_points":2,"segments":[`+
		`{"file":"seg-00-0-g3.seg","shard":0,"window_start":0,"window_end":%d,"series":1,"points":1,"crc":1},`+
		`{"file":"seg-01-0-g3.seg","shard":1,"window_start":0,"window_end":%d,"series":1,"points":1,"crc":1}]}`, h, h, h)
	files := map[string]string{ManifestName: v1, "seg-00-0-g3.seg": "v3 bytes", "seg-01-0-g3.seg": "v3 bytes"}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range append(readers[:1:1], readers[2]) {
		if err := r.read(dir, SegmentMeta{}); err == nil || !strings.Contains(err.Error(), "manifest version 1") {
			t.Fatalf("per-shard directory via %s: got %v, want a manifest version error", r.name, err)
		}
	}
	if _, err := buildSegStore(window).SnapshotDir(dir, DirOptions{}); err == nil || !strings.Contains(err.Error(), "manifest version 1") {
		t.Fatalf("SnapshotDir over a per-shard directory: got %v, want a manifest version error", err)
	}
	for name, content := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != content {
			t.Fatalf("refused pass touched %s (%v)", name, err)
		}
	}
}

// TestCompactDirEquivalence is the §8.4 oracle: compaction merges
// files but must not change content — the directory restores to the
// same digest before and after, series totals survive, and the merged
// segments carry bumped levels and multi-window spans.
func TestCompactDirEquivalence(t *testing.T) {
	window := time.Hour
	db := buildSegStore(window)
	want := db.Digest()
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	before, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	st, err := CompactDir(dir, CompactOptions{ColdBefore: maxTime, MaxWindows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Merged == 0 || st.Written == 0 || st.Merged <= st.Written {
		t.Fatalf("compaction merged nothing: %+v", st)
	}
	if st.Generation != before.Generation+1 {
		t.Fatalf("generation %d, want %d", st.Generation, before.Generation+1)
	}

	after, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Segments) >= len(before.Segments) {
		t.Fatalf("segment count did not drop: %d -> %d", len(before.Segments), len(after.Segments))
	}
	if after.TotalPoints != before.TotalPoints || after.StoreSeries != before.StoreSeries {
		t.Fatalf("compaction changed the manifest totals: %+v -> %+v", before, after)
	}
	sawMerged := false
	for _, sm := range after.Segments {
		span := sm.WindowEnd - sm.WindowStart
		if span > 3*int64(window) {
			t.Fatalf("segment %s spans %d windows, cap is 3", sm.File, span/int64(window))
		}
		if span > int64(window) {
			sawMerged = true
			if sm.Level == 0 {
				t.Fatalf("merged segment %s kept level 0", sm.File)
			}
		}
	}
	if !sawMerged {
		t.Fatal("no multi-window segment in the compacted manifest")
	}

	got := Open()
	if err := got.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatalf("RestoreDir after compaction: %v", err)
	}
	if got.Digest() != want {
		t.Fatal("compaction changed the restored digest")
	}

	// Idempotence: a second pass over fully merged spans does nothing
	// and does not bump the generation.
	again, err := CompactDir(dir, CompactOptions{ColdBefore: maxTime, MaxWindows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if again.Merged != 0 || again.Generation != st.Generation {
		t.Fatalf("second compaction was not a no-op: %+v", again)
	}
}

// TestCompactRespectsColdBoundary: windows reaching past ColdBefore
// are never merged.
func TestCompactRespectsColdBoundary(t *testing.T) {
	window := time.Hour
	db := buildSegStore(window)
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	cold := t0.Add(3 * window)
	if _, err := CompactDir(dir, CompactOptions{ColdBefore: cold}); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range m.Segments {
		if sm.WindowEnd > cold.UnixNano() && sm.WindowEnd-sm.WindowStart != int64(window) {
			t.Fatalf("hot segment %s was merged", sm.File)
		}
	}
	assertRestoresTo(t, dir, db)
}

// TestIncrementalSnapshotAfterCompact: DB.Compact keeps the store's
// bookkeeping in step, so the next incremental snapshot reuses the
// merged segments instead of demoting to a full rewrite; a write into
// a merged span, or a retention cut through one, rewrites that one
// span whole, keeping its bounds and level — compaction stays sticky
// (docs/PERSISTENCE.md §6, §8).
func TestIncrementalSnapshotAfterCompact(t *testing.T) {
	window := time.Hour
	for _, tc := range []struct {
		name  string
		touch func(db *DB)
	}{
		{"write", func(db *DB) {
			db.Write("tslp", map[string]string{"link": "l1", "vp": "vp-a", "side": "far"}, t0.Add(30*time.Minute), 123)
		}},
		{"retain", func(db *DB) {
			if db.Retain(t0.Add(2*window+17*time.Minute), maxTime) == 0 {
				t.Fatal("retention cut dropped nothing")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := buildSegStore(window)
			dir := t.TempDir()
			if _, err := db.SnapshotDir(dir, DirOptions{Incremental: true}); err != nil {
				t.Fatal(err)
			}
			st, err := db.Compact(dir, CompactOptions{ColdBefore: maxTime, MaxWindows: 3})
			if err != nil {
				t.Fatal(err)
			}
			if st.Merged == 0 {
				t.Fatalf("nothing merged: %+v", st)
			}

			idle, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			if idle.Written != 0 || idle.Reused != idle.Segments {
				t.Fatalf("idle snapshot after compaction rewrote segments: %+v", idle)
			}
			assertRestoresTo(t, dir, db)
			before, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}

			// Touch one window inside the first merged span: exactly one
			// segment (the span) is rewritten, and it keeps its merged
			// bounds and level.
			tc.touch(db)
			after, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			if after.Written != 1 || after.Reused != after.Segments-1 {
				t.Fatalf("touching a merged span should rewrite one segment: %+v", after)
			}
			m, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			span := before.Segments[0]
			if span.WindowEnd-span.WindowStart <= int64(window) || span.Level == 0 {
				t.Fatalf("first segment %+v is not a merged span", span)
			}
			got := m.Segments[0]
			if got.File == span.File || got.WindowStart != span.WindowStart || got.WindowEnd != span.WindowEnd || got.Level != span.Level {
				t.Fatalf("rewritten span %+v, want a new file over [%d,%d) at level %d", got, span.WindowStart, span.WindowEnd, span.Level)
			}
			assertRestoresTo(t, dir, db)
		})
	}
}

// TestCompactDirCrashLeftovers: a gen-qualified segment abandoned by a
// crashed compaction attempt is invisible to RestoreDir and reaped by
// the next pass (docs/PERSISTENCE.md §4).
func TestCompactDirCrashLeftovers(t *testing.T) {
	db := buildSegStore(time.Hour)
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	leftover := segmentFileName(0, m.Generation+1)
	if err := os.WriteFile(filepath.Join(dir, leftover), []byte("half a crashed compaction"), 0o644); err != nil {
		t.Fatal(err)
	}

	assertRestoresTo(t, dir, db) // leftover ignored on read

	if _, err := CompactDir(dir, CompactOptions{ColdBefore: maxTime}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
		t.Fatalf("crashed-attempt leftover survived CompactDir: %v", err)
	}
	assertRestoresTo(t, dir, db)
}
