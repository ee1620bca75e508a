package tsdb

// Tests for the segmented persistence layer. The segment file format,
// manifest schema and crash-safety rules these tests enforce are
// specified in docs/PERSISTENCE.md; each test cites the section it
// holds the implementation to.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// maxTime is an upper bound far past any test data, for Retain's
// half-open [from, to) interval.
var maxTime = t0.AddDate(100, 0, 0)

// buildSegStore fills a store with deterministic pseudo-random data
// spanning several segment windows: multiple measurements, tag sets,
// out-of-order writes and duplicate timestamps (the shapes the probing
// modules actually produce).
func buildSegStore(window time.Duration) *DB {
	db := Open()
	db.SetSegmentWindow(window)
	rng := rand.New(rand.NewSource(7))
	links := []string{"l1", "l2", "l3", "l4"}
	vps := []string{"vp-a", "vp-b"}
	for i := 0; i < 4000; i++ {
		tags := map[string]string{
			"link": links[rng.Intn(len(links))],
			"vp":   vps[rng.Intn(len(vps))],
			"side": []string{"near", "far"}[rng.Intn(2)],
		}
		at := t0.Add(time.Duration(rng.Int63n(int64(6 * window))))
		m := []string{"tslp", "loss"}[rng.Intn(2)]
		db.Write(m, tags, at, rng.Float64()*40)
		if i%97 == 0 {
			// Duplicate timestamp on the same series: order must survive
			// the per-window split (docs/PERSISTENCE.md §5).
			db.Write(m, tags, at, rng.Float64()*40)
		}
	}
	return db
}

// allSeries deep-copies every series for structural comparison.
func allSeries(db *DB) []Series {
	var out []Series
	for _, m := range db.Measurements() {
		out = append(out, db.Query(m, nil, t0.AddDate(-1, 0, 0), maxTime)...)
	}
	return out
}

// TestSnapshotDirRoundTrip proves the equivalence oracle of
// docs/PERSISTENCE.md §7: a directory snapshot restored at any worker
// count yields a store with the same canonical digest as the source.
func TestSnapshotDirRoundTrip(t *testing.T) {
	db := buildSegStore(time.Hour)
	want := db.Digest()
	wantSeries := allSeries(db)

	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		st, err := db.SnapshotDir(dir, DirOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: SnapshotDir: %v", workers, err)
		}
		// One file per window holding data, whatever the series count
		// (docs/PERSISTENCE.md §1).
		if want := windowCount(db); st.Segments != want || st.Written != want {
			t.Fatalf("workers=%d: %+v, want %d segments written, one per window", workers, st, want)
		}
		if st.Points != db.PointCount() || st.Series != db.SeriesCount() {
			t.Fatalf("workers=%d: stats %+v disagree with store (%d series, %d points)",
				workers, st, db.SeriesCount(), db.PointCount())
		}

		got := Open()
		if err := got.RestoreDir(dir, DirOptions{Workers: workers}); err != nil {
			t.Fatalf("workers=%d: RestoreDir: %v", workers, err)
		}
		if d := got.Digest(); d != want {
			t.Fatalf("workers=%d: digest mismatch: got %016x want %016x", workers, d, want)
		}
		if !reflect.DeepEqual(allSeries(got), wantSeries) {
			t.Fatalf("workers=%d: restored series differ structurally", workers)
		}
	}
}

// windowCount returns the number of distinct segment windows db's points
// fall into.
func windowCount(db *DB) int {
	wins := map[int64]bool{}
	for _, s := range allSeries(db) {
		for _, p := range s.Points {
			wins[windowStartNanos(p.Time.UnixNano(), db.window)] = true
		}
	}
	return len(wins)
}

// TestSnapshotDirIncremental exercises the dirty-window tracking: an
// unchanged store rewrites nothing, a localized write rewrites only its
// window's segment, and in-memory Retain propagates as segment
// deletions — with every intermediate directory restoring to the
// store's exact digest.
func TestSnapshotDirIncremental(t *testing.T) {
	window := time.Hour
	db := buildSegStore(window)
	dir := t.TempDir()

	first, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Reused != 0 || first.Written != first.Segments {
		t.Fatalf("first snapshot should write everything: %+v", first)
	}

	// No writes since: everything is reused, nothing rewritten.
	idle, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if idle.Written != 0 || idle.Reused != first.Segments {
		t.Fatalf("idle snapshot rewrote segments: %+v", idle)
	}
	if idle.Generation != first.Generation+1 {
		t.Fatalf("generation did not advance: %+v then %+v", first, idle)
	}

	// One write dirties exactly one window.
	db.Write("tslp", map[string]string{"link": "l1", "vp": "vp-a", "side": "far"}, t0.Add(30*time.Minute), 99)
	after, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Written != 1 || after.Reused != after.Segments-1 {
		t.Fatalf("localized write should rewrite one segment: %+v", after)
	}
	assertRestoresTo(t, dir, db)

	// Retention drops whole windows: the next incremental snapshot
	// deletes their segment files.
	cut := t0.Add(2 * window)
	db.Retain(cut, maxTime)
	retained, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if retained.Removed == 0 {
		t.Fatalf("retention should delete expired segments: %+v", retained)
	}
	assertRestoresTo(t, dir, db)
}

// multiDayStore builds a store of 64 series — spread over many
// in-memory shards — with hourly points over days default windows.
func multiDayStore(days int) (*DB, []map[string]string) {
	db := Open()
	var tags []map[string]string
	for l := 0; l < 32; l++ {
		for _, side := range []string{"far", "near"} {
			tags = append(tags, map[string]string{"link": fmt.Sprintf("l%02d", l), "side": side})
		}
	}
	for h := 0; h < days*24; h++ {
		for i, tg := range tags {
			db.Write("tslp", tg, t0.Add(time.Duration(h)*time.Hour), float64(i*h))
		}
	}
	return db, tags
}

// segFiles lists the .seg files in dir.
func segFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, n := range names {
		out[filepath.Base(n)] = true
	}
	return out
}

// TestSnapshotDirOneFilePerWindow pins the persistence unit
// (docs/PERSISTENCE.md §1): a full snapshot of an N-window store writes
// N files however many in-memory shards its series live in, and a
// round of one point per series — the TSLP probing round's shape —
// rewrites the one window it touched as exactly one new file.
func TestSnapshotDirOneFilePerWindow(t *testing.T) {
	const days = 3
	db, tags := multiDayStore(days)
	shards := map[uint32]bool{}
	for _, tg := range tags {
		shards[shardFor(Key("tslp", tg))] = true
	}
	if len(shards) < 2 {
		t.Fatalf("fixture series live in %d in-memory shard(s); the test needs several", len(shards))
	}
	dir := t.TempDir()
	full, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	before := segFiles(t, dir)
	if full.Written != days || full.Segments != days || len(before) != days {
		t.Fatalf("full snapshot of %d windows: %+v, %d files on disk", days, full, len(before))
	}

	round := make([]BatchPoint, len(tags))
	at := t0.Add(days*24*time.Hour - 30*time.Minute)
	for i, tg := range tags {
		round[i] = BatchPoint{Measurement: "tslp", Tags: tg, Time: at, Value: float64(i)}
	}
	db.WriteBatch(round)
	st, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Written != 1 || st.Reused != days-1 {
		t.Fatalf("one-point-per-series round: %+v, want 1 written and %d reused", st, days-1)
	}
	after := segFiles(t, dir)
	var added []string
	for name := range after {
		if !before[name] {
			added = append(added, name)
		}
	}
	if len(added) != 1 || len(after) != days {
		t.Fatalf("round added %v; directory holds %d files, want one new file and %d in all", added, len(after), days)
	}
	assertRestoresTo(t, dir, db)
}

// TestRestoreDirResumesIncremental covers the daemon-restart path of
// docs/PERSISTENCE.md §5: RestoreDir adopts the directory's window and
// generation, so the next incremental snapshot reuses clean segments
// instead of falling back to a full rewrite.
func TestRestoreDirResumesIncremental(t *testing.T) {
	db := buildSegStore(time.Hour)
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}

	restarted := Open()
	if err := restarted.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	restarted.Write("tslp", map[string]string{"link": "l2", "vp": "vp-b", "side": "near"}, t0.Add(10*time.Minute), 7)
	st, err := restarted.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused == 0 || st.Written == 0 || st.Written > 2 {
		t.Fatalf("restart did not resume incrementally: %+v", st)
	}
	assertRestoresTo(t, dir, restarted)
}

// assertRestoresTo fails unless restoring dir yields want's digest.
func assertRestoresTo(t *testing.T, dir string, want *DB) {
	t.Helper()
	got := Open()
	if err := got.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("directory does not restore to the source store")
	}
}

// segmentAt returns the file name of some manifest entry matching pick.
func segmentAt(t *testing.T, dir string, pick func(SegmentMeta) bool) string {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range m.Segments {
		if pick(sm) {
			return sm.File
		}
	}
	t.Fatal("no segment matches")
	return ""
}

// corruptPayloadByte flips one byte of the segment's payload,
// leaving the header (and therefore the stored checksum) intact.
func corruptPayloadByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreDirRejectsDamage holds RestoreDir to the fail-loudly
// contract of docs/PERSISTENCE.md §5: every class of damage is a
// descriptive error naming the offending file, never a silent skip.
func TestRestoreDirRejectsDamage(t *testing.T) {
	newDir := func(t *testing.T) (string, string) {
		db := buildSegStore(time.Hour)
		dir := t.TempDir()
		if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
			t.Fatal(err)
		}
		return dir, segmentAt(t, dir, func(SegmentMeta) bool { return true })
	}
	expectErr := func(t *testing.T, dir string, wantSub ...string) {
		t.Helper()
		err := Open().RestoreDir(dir, DirOptions{})
		if err == nil {
			t.Fatal("RestoreDir accepted a damaged directory")
		}
		for _, sub := range wantSub {
			if !strings.Contains(err.Error(), sub) {
				t.Fatalf("error %q does not mention %q", err, sub)
			}
		}
	}

	t.Run("bad checksum", func(t *testing.T) {
		dir, seg := newDir(t)
		corruptPayloadByte(t, filepath.Join(dir, seg))
		expectErr(t, dir, seg, "checksum")
	})
	t.Run("truncated segment", func(t *testing.T) {
		dir, seg := newDir(t)
		path := filepath.Join(dir, seg)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, seg, "truncated")
	})
	t.Run("future segment version", func(t *testing.T) {
		dir, seg := newDir(t)
		path := filepath.Join(dir, seg)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[11] = 0xfe // version field, docs/PERSISTENCE.md §2 field 2
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, seg, seg, "unsupported segment format version")
	})
	t.Run("bad magic", func(t *testing.T) {
		dir, seg := newDir(t)
		path := filepath.Join(dir, seg)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "NOTASEGM")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, seg, seg, "magic")
	})
	t.Run("missing segment", func(t *testing.T) {
		dir, seg := newDir(t)
		if err := os.Remove(filepath.Join(dir, seg)); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, seg)
	})
	t.Run("unlisted segment without a generation", func(t *testing.T) {
		dir, seg := newDir(t)
		data, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		stray := "seg-99-0.seg"
		if err := os.WriteFile(filepath.Join(dir, stray), data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, stray, "not in the manifest")
	})
	t.Run("unlisted segment of the committed generation", func(t *testing.T) {
		// Same generation as the manifest: cannot be a leftover of an
		// interrupted writer, so it is corruption, not ignorable
		// (docs/PERSISTENCE.md §4).
		dir, _ := newDir(t)
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		stray := segmentFileName(0, m.Generation)
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, stray, "not in the manifest")
	})
	t.Run("inconsistent manifest window", func(t *testing.T) {
		// window_nanos must agree with every entry's bounds even when the
		// per-segment headers are self-consistent (docs/PERSISTENCE.md §3).
		dir, _ := newDir(t)
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.WindowNanos *= 2
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, "window")
	})
	t.Run("misaligned manifest window start", func(t *testing.T) {
		dir, _ := newDir(t)
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Segments[0].WindowStart += 7
		m.Segments[0].WindowEnd += 7
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, "aligned")
	})
	t.Run("future manifest version", func(t *testing.T) {
		dir, _ := newDir(t)
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Version = ManifestVersion + 1
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, "newer than supported")
	})
	t.Run("missing manifest", func(t *testing.T) {
		dir, _ := newDir(t)
		if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
			t.Fatal(err)
		}
		expectErr(t, dir, ManifestName)
	})
}

// TestSnapshotDirCrashRecovery: temp files left by a crashed writer are
// invisible to RestoreDir and reaped by the next SnapshotDir
// (docs/PERSISTENCE.md §4).
func TestSnapshotDirCrashRecovery(t *testing.T) {
	db := buildSegStore(time.Hour)
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "seg-12345-g2.seg"+tmpSuffix)
	if err := os.WriteFile(stray, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}

	assertRestoresTo(t, dir, db) // tmp file ignored on read

	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived SnapshotDir: %v", err)
	}
}

// TestSnapshotDirLeftoverSegments: segment files renamed into place by
// a crashed snapshot attempt — generation-qualified but never claimed
// by a committed manifest — are invisible to RestoreDir and reaped by
// the next SnapshotDir, leaving the committed snapshot fully
// restorable (docs/PERSISTENCE.md §4).
func TestSnapshotDirLeftoverSegments(t *testing.T) {
	db := buildSegStore(time.Hour)
	dir := t.TempDir()
	st, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash between the segment renames and the manifest
	// publish of the next generation. Garbage content proves a leftover
	// is never even opened.
	leftover := segmentFileName(12345, st.Generation+1)
	if err := os.WriteFile(filepath.Join(dir, leftover), []byte("half a crashed snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	assertRestoresTo(t, dir, db) // leftover ignored on read

	st2, err := db.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
		t.Fatalf("crashed-attempt leftover survived SnapshotDir: %v", err)
	}
	if st2.Removed == 0 {
		t.Fatalf("reaped leftover not reported in stats: %+v", st2)
	}
	assertRestoresTo(t, dir, db)
}

// TestWriteFloorReplay models the daemon-restart deduplication path: a
// deterministic writer replayed from the beginning against a restored
// store must not double-insert the already-persisted prefix, and the
// resumed store must end up identical to an uninterrupted run.
func TestWriteFloorReplay(t *testing.T) {
	writeRange := func(db *DB, lo, hi int) {
		var batch []BatchPoint
		for i := lo; i < hi; i++ {
			tags := map[string]string{"link": []string{"l1", "l2", "l3"}[i%3]}
			at := t0.Add(time.Duration(i) * time.Minute)
			if i%2 == 0 {
				db.Write("tslp", tags, at, float64(i))
			} else {
				batch = append(batch, BatchPoint{Measurement: "tslp", Tags: tags, Time: at, Value: float64(i)})
			}
		}
		db.WriteBatch(batch)
	}

	uninterrupted := Open()
	writeRange(uninterrupted, 0, 300)

	first := Open()
	writeRange(first, 0, 200)
	dir := t.TempDir()
	if _, err := first.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}

	resumed := Open()
	if err := resumed.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.MaxTime(), t0.Add(199*time.Minute); !got.Equal(want) {
		t.Fatalf("MaxTime = %v, want %v", got, want)
	}
	resumed.SetWriteFloor(resumed.MaxTime())
	writeRange(resumed, 0, 300) // full deterministic replay

	if resumed.PointCount() != uninterrupted.PointCount() {
		t.Fatalf("replay duplicated points: %d, want %d", resumed.PointCount(), uninterrupted.PointCount())
	}
	if resumed.Digest() != uninterrupted.Digest() {
		t.Fatal("resumed store differs from an uninterrupted run")
	}
	if !Open().MaxTime().IsZero() {
		t.Fatal("MaxTime of an empty store is not zero")
	}
}

// TestSegmentWindowAlignment pins the floor semantics of the window
// computation (docs/PERSISTENCE.md §1), including pre-epoch times.
func TestSegmentWindowAlignment(t *testing.T) {
	w := time.Hour
	cases := []struct {
		at   time.Time
		want int64
	}{
		{time.Unix(0, 0), 0},
		{time.Unix(0, 1), 0},
		{time.Unix(3599, 999999999), 0},
		{time.Unix(3600, 0), int64(time.Hour)},
		{time.Unix(0, -1), -int64(time.Hour)},
		{time.Unix(-3600, 0), -int64(time.Hour)},
	}
	for _, c := range cases {
		if got := windowStartNanos(c.at.UnixNano(), w); got != c.want {
			t.Errorf("windowStartNanos(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}
