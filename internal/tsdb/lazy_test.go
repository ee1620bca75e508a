package tsdb

// Tests for the lazy block-pruned read path (docs/PERSISTENCE.md §9).
// The suite is anchored on the §7 oracle: a restored directory must be
// observationally identical to the store that wrote it — Digest, Query,
// QueryView, TimeBounds, exports and snapshots all agree, also after
// the same writes and trims — while the stats counters prove that
// pruning, decode-on-demand and hot-swap segment reuse actually
// happened. Test names deliberately carry
// "Lazy" or "Prune" so CI's storage-smoke job can select the suite
// with -run 'Lazy|Prune'.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"interdomain/internal/tsdb/blockenc"
)

// snapToDir snapshots db into a fresh temp directory and returns it.
func snapToDir(t testing.TB, db *DB, opts DirOptions) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, opts); err != nil {
		t.Fatalf("SnapshotDir: %v", err)
	}
	return dir
}

// lazyOpen restores dir into a fresh store; every restore maps its
// directory lazily.
func lazyOpen(t testing.TB, dir string, opts DirOptions) *DB {
	t.Helper()
	db := Open()
	if err := db.RestoreDir(dir, opts); err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	return db
}

// materializedOpen restores dir and decodes every series into columns:
// the column read paths over restored data.
func materializedOpen(t testing.TB, dir string) *DB {
	t.Helper()
	db := lazyOpen(t, dir, DirOptions{})
	unlock := db.lockAll(false)
	db.materializeAllLocked()
	unlock()
	return db
}

// lazyStats fetches the store's lazy counters, failing if the store is
// not lazily open.
func lazyStats(t testing.TB, db *DB) LazyStats {
	t.Helper()
	st, ok := db.LazyReadStats()
	if !ok {
		t.Fatal("LazyReadStats: store is not lazily open")
	}
	return st
}

// monoStore builds a single-series store: n minute-spaced points with
// value float64(i), so block boundaries (MaxBlockPoints) and window
// boundaries land at known offsets.
func monoStore(n int) *DB {
	db := Open()
	tags := map[string]string{"link": "l1"}
	for i := 0; i < n; i++ {
		db.Write("m", tags, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	return db
}

// viewsEqual compares view sets' data bit-exactly: reflect.DeepEqual
// would report NaN values unequal to themselves, so values compare
// through their float bits — the same identity the digest uses.
// Versions are not compared: a restored series restarts at zero, while
// its writer's counted every write.
func viewsEqual(a, b []SeriesView) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		av, bv := &a[i], &b[i]
		if av.Measurement != bv.Measurement || !reflect.DeepEqual(av.Tags, bv.Tags) ||
			!reflect.DeepEqual(av.Times, bv.Times) || len(av.Values) != len(bv.Values) {
			return false
		}
		for j := range av.Values {
			if math.Float64bits(av.Values[j]) != math.Float64bits(bv.Values[j]) {
				return false
			}
		}
	}
	return true
}

// TestLazyRestoreDigestEqual is the §7 oracle: a restore of a
// directory yields the same canonical digest and the same structural
// query results as the store that wrote it, at several worker counts,
// without the restored store ever materializing.
func TestLazyRestoreDigestEqual(t *testing.T) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(t, src, DirOptions{})
	want := src.Digest()
	wantSeries := allSeries(src)

	for _, workers := range []int{1, 4, 8} {
		lz := lazyOpen(t, dir, DirOptions{Workers: workers})
		st := lazyStats(t, lz)
		if st.Segments == 0 || st.Blocks == 0 {
			t.Fatalf("workers=%d: lazy store indexed nothing: %+v", workers, st)
		}
		if lz.SeriesCount() != src.SeriesCount() || lz.PointCount() != src.PointCount() {
			t.Fatalf("workers=%d: lazy counts %d series/%d points, want %d/%d",
				workers, lz.SeriesCount(), lz.PointCount(), src.SeriesCount(), src.PointCount())
		}
		if !lz.MaxTime().Equal(src.MaxTime()) {
			t.Fatalf("workers=%d: MaxTime %v != %v", workers, lz.MaxTime(), src.MaxTime())
		}
		if !reflect.DeepEqual(allSeries(lz), wantSeries) {
			t.Fatalf("workers=%d: lazy query results differ structurally", workers)
		}
		if d := lz.Digest(); d != want {
			t.Fatalf("workers=%d: digest mismatch: got %016x want %016x", workers, d, want)
		}
		// Digest and the queries above decode transiently: the store must
		// still be lazy afterwards.
		if _, ok := lz.LazyReadStats(); !ok {
			t.Fatalf("workers=%d: reads materialized the store", workers)
		}
		// TimeBounds from summaries must agree with the writer's columns.
		for _, m := range src.Measurements() {
			lmin, lmax, lok := lz.TimeBounds(m, nil)
			emin, emax, eok := src.TimeBounds(m, nil)
			if lok != eok || !lmin.Equal(emin) || !lmax.Equal(emax) {
				t.Fatalf("workers=%d: TimeBounds(%q) restored (%v,%v,%v) != writer (%v,%v,%v)",
					workers, m, lmin, lmax, lok, emin, emax, eok)
			}
		}
	}
}

// TestLazyQueryPrunesBlocks proves queries skip out-of-range blocks by
// summary alone: a query over one window consults every candidate
// block but decodes only the in-window ones, and a query wholly
// outside the data decodes nothing at all.
func TestLazyQueryPrunesBlocks(t *testing.T) {
	window := time.Hour
	src := buildSegStore(window)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})

	before := lazyStats(t, lz)
	got := lz.Query("tslp", nil, t0, t0.Add(window))
	want := src.Query("tslp", nil, t0, t0.Add(window))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("one-window lazy query disagrees with the writer store")
	}
	mid := lazyStats(t, lz)
	if mid.BlocksScanned <= before.BlocksScanned {
		t.Fatalf("query consulted no summaries: %+v", mid)
	}
	if mid.BlocksSkipped <= before.BlocksSkipped {
		t.Fatalf("one-window query over a six-window store skipped nothing: %+v", mid)
	}
	if mid.BlocksDecoded <= before.BlocksDecoded {
		t.Fatalf("in-range query decoded nothing: %+v", mid)
	}

	// Far outside every window: all scanned, all skipped, zero decodes.
	if out := lz.Query("tslp", nil, t0.AddDate(10, 0, 0), t0.AddDate(11, 0, 0)); out != nil {
		t.Fatalf("out-of-range query returned %d series", len(out))
	}
	after := lazyStats(t, lz)
	if after.BlocksDecoded != mid.BlocksDecoded {
		t.Fatalf("out-of-range query decoded %d blocks", after.BlocksDecoded-mid.BlocksDecoded)
	}
	if scanned, skipped := after.BlocksScanned-mid.BlocksScanned, after.BlocksSkipped-mid.BlocksSkipped; scanned == 0 || scanned != skipped {
		t.Fatalf("out-of-range query: scanned %d, skipped %d — want all scanned blocks skipped", scanned, skipped)
	}
}

// TestLazyPruneBoundaryStraddle sweeps query boundaries across exact
// block and window edges of a multi-block series: every [from, to)
// pair — including ranges that begin or end precisely on a block's
// MinT/MaxT — must return point-for-point the same Query and QueryView
// results as the store that wrote the directory. The half-open interval makes the block
// summary comparisons (maxT < from, minT >= to) easy to get wrong by
// one; this is the test that would catch it.
func TestLazyPruneBoundaryStraddle(t *testing.T) {
	// 3000 minute-spaced points, 24h default window: windows hold 1440,
	// 1440 and 120 points; at MaxBlockPoints=1024 each full window
	// splits into blocks of 1024 and 416, so offsets 1024, 1440, 2464
	// and 2880 are exact block edges.
	src := monoStore(3000)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})

	offsets := []int{0, 1, 1023, 1024, 1025, 1439, 1440, 1441, 2463, 2464, 2879, 2880, 2999, 3000}
	for i, a := range offsets {
		for _, b := range offsets[i:] {
			from, to := t0.Add(time.Duration(a)*time.Minute), t0.Add(time.Duration(b)*time.Minute)
			got, want := lz.Query("m", nil, from, to), src.Query("m", nil, from, to)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Query[%d,%d): restored and writer disagree", a, b)
			}
			gotV, wantV := lz.QueryView("m", nil, from, to), src.QueryView("m", nil, from, to)
			if !viewsEqual(gotV, wantV) {
				t.Fatalf("QueryView[%d,%d): restored and writer disagree", a, b)
			}
		}
	}
	if st := lazyStats(t, lz); st.BlocksSkipped == 0 {
		t.Fatalf("boundary sweep never pruned a block: %+v", st)
	}
}

// TestLazyPruneZeroPointWindows covers the degenerate shapes: a query
// range falling entirely into a gap between segment windows decodes
// nothing, a zero-length range returns nothing, and an empty store
// round-trips through a lazy open.
func TestLazyPruneZeroPointWindows(t *testing.T) {
	// Points only in windows 0 and 5; windows 1-4 hold no data.
	db := Open()
	tags := map[string]string{"link": "l1"}
	for i := 0; i < 50; i++ {
		db.Write("m", tags, t0.Add(time.Duration(i)*time.Minute), float64(i))
		db.Write("m", tags, t0.Add(5*24*time.Hour).Add(time.Duration(i)*time.Minute), float64(i))
	}
	dir := snapToDir(t, db, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})

	before := lazyStats(t, lz)
	gap0, gap1 := t0.Add(36*time.Hour), t0.Add(72*time.Hour)
	if out := lz.Query("m", nil, gap0, gap1); out != nil {
		t.Fatalf("gap query returned %d series", len(out))
	}
	if out := lz.QueryView("m", nil, gap0, gap1); out != nil {
		t.Fatalf("gap QueryView returned %d views", len(out))
	}
	if out := lz.Query("m", nil, gap0, gap0); out != nil {
		t.Fatal("zero-length range returned data")
	}
	after := lazyStats(t, lz)
	if after.BlocksDecoded != before.BlocksDecoded {
		t.Fatalf("gap queries decoded %d blocks", after.BlocksDecoded-before.BlocksDecoded)
	}
	if lz.Digest() != db.Digest() {
		t.Fatal("digest mismatch on gapped store")
	}

	// Empty store: zero segments, still a committed manifest.
	emptyDir := snapToDir(t, Open(), DirOptions{})
	elz := lazyOpen(t, emptyDir, DirOptions{})
	if elz.SeriesCount() != 0 || elz.PointCount() != 0 {
		t.Fatalf("empty lazy restore holds %d series/%d points", elz.SeriesCount(), elz.PointCount())
	}
	if st := lazyStats(t, elz); st.Segments != 0 || st.Blocks != 0 {
		t.Fatalf("empty lazy restore indexed segments: %+v", st)
	}
}

// tamperSummary rewrites the first block of series key in dir's first
// segment so its summary claims a minimum no point has, and refreshes
// every checksum above it, so the lie survives CRC verification at
// open.
func tamperSummary(t *testing.T, dir, key string) {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.Segments[0]
	payload, err := loadSegmentPayload(dir, sm)
	if err != nil {
		t.Fatal(err)
	}
	list, err := blockenc.DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range list {
		if Key(list[i].Measurement, list[i].Tags) == key {
			list[i].Blocks[0].Min -= 100
			found = true
		}
	}
	if !found {
		t.Fatalf("segment %s holds no entry for %q", sm.File, key)
	}
	tampered := blockenc.EncodePayload(list)

	crc := crc32.Checksum(tampered, crcTable)
	hdr := make([]byte, 0, segmentHeaderSize)
	hdr = append(hdr, SegmentMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(SegmentVersion))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(sm.WindowStart))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(sm.WindowEnd))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(sm.Series))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(sm.Points))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(tampered)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc)
	if err := os.WriteFile(filepath.Join(dir, sm.File), append(hdr, tampered...), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Segments[0].CRC = crc
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

// panicsOnSummary fails unless fn panics naming the lying summary,
// within a few seconds.
func panicsOnSummary(t *testing.T, what string, fn func()) {
	t.Helper()
	r := within(t, what, fn)
	if r == nil {
		t.Fatalf("%s over a tampered block did not panic", what)
	}
	if msg := fmt.Sprint(r); !strings.Contains(msg, "summary disagrees") {
		t.Fatalf("%s: panic does not name the summary: %q", what, msg)
	}
}

// within runs fn on its own goroutine and returns the value it panicked
// with, nil if none. It fails the test unless fn finishes within a few
// seconds: a shard lock an earlier panic left held blocks it.
func within(t *testing.T, what string, fn func()) (panicked any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5s: a shard lock outlived a panic", what)
		return nil
	}
}

// TestLazyTamperedSummaryFailsLoud encodes corruption into a block
// summary behind valid checksums. The open is structural only and
// succeeds; every operation forced to decode the block — a query,
// Digest, a write into the series, SnapshotDir — panics: fail loud,
// never mis-prune (docs/PERSISTENCE.md §9.4). The failed SnapshotDir
// leaves the directory's committed state alone.
func TestLazyTamperedSummaryFailsLoud(t *testing.T) {
	src := monoStore(200)
	dir := snapToDir(t, src, DirOptions{})
	tamperSummary(t, dir, Key("m", map[string]string{"link": "l1"}))
	manifest, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}

	lz := lazyOpen(t, dir, DirOptions{})
	gen := lz.SnapshotGeneration()
	panicsOnSummary(t, "Query", func() { lz.Query("m", nil, t0, maxTime) })
	panicsOnSummary(t, "Digest", func() { lz.Digest() })
	panicsOnSummary(t, "Write", func() { lz.Write("m", map[string]string{"link": "l1"}, t0.Add(time.Hour), 1) })
	panicsOnSummary(t, "SnapshotDir", func() { _, _ = lz.SnapshotDir(dir, DirOptions{Incremental: true}) })

	after, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, manifest) {
		t.Fatal("a SnapshotDir that panicked changed the committed manifest")
	}
	if g := lz.SnapshotGeneration(); g != gen {
		t.Fatalf("a SnapshotDir that panicked moved the store's generation %d → %d", gen, g)
	}
}

// TestLazyLyingBlockPanicReleasesLocks pins that a decode panic on a
// lying block releases the shard lock it ran under — a query's read
// lock, a batch write's or a trim's write lock. A server recovers a
// handler's panic, so a leaked lock would block the next hot-swap
// (which takes every shard lock) and every request queued behind it.
// After each panic, Close, RestoreDir and at the end a query on
// another shard must finish.
func TestLazyLyingBlockPanicReleasesLocks(t *testing.T) {
	src := monoStore(200)
	victim := map[string]string{"link": "l1"}
	other := map[string]string{"link": "l2"}
	for i := 3; shardFor(Key("m", other)) == shardFor(Key("m", victim)); i++ {
		other = map[string]string{"link": fmt.Sprintf("l%d", i)}
	}
	for i := 0; i < 50; i++ {
		src.Write("m", other, t0.Add(time.Duration(i)*time.Minute), float64(-i))
	}
	dir := snapToDir(t, src, DirOptions{})
	tamperSummary(t, dir, Key("m", victim))

	lz := lazyOpen(t, dir, DirOptions{})
	ops := []struct {
		name string
		fn   func()
	}{
		{"Query", func() { lz.Query("m", victim, t0, maxTime) }},
		{"WriteBatch", func() {
			lz.WriteBatch([]BatchPoint{{Measurement: "m", Tags: victim, Time: t0.Add(time.Hour), Value: 1}})
		}},
		{"Retain", func() { lz.Retain(t0.Add(time.Minute), maxTime) }},
	}
	for _, op := range ops {
		panicsOnSummary(t, op.name, op.fn)
		// Close takes every shard lock exclusively, as a hot-swap does.
		if r := within(t, "Close after a "+op.name+" panic", lz.Close); r != nil {
			t.Fatalf("Close panicked: %v", r)
		}
		var err error
		if r := within(t, "RestoreDir after a "+op.name+" panic", func() { err = lz.RestoreDir(dir, DirOptions{}) }); r != nil || err != nil {
			t.Fatalf("RestoreDir: panic %v, error %v", r, err)
		}
	}
	var got []Series
	if r := within(t, "query on another shard", func() { got = lz.Query("m", other, t0, maxTime) }); r != nil {
		t.Fatalf("query on another shard panicked: %v", r)
	}
	if !reflect.DeepEqual(got, src.Query("m", other, t0, maxTime)) {
		t.Fatal("the reopened store serves the other series wrongly")
	}
}

// TestLazyRestoreEmptyDirReleasesFiles pins the teardown a process that
// opens many stores relies on: restoring an empty directory over a
// lazily open store unmaps every file it held and serves nothing.
func TestLazyRestoreEmptyDirReleasesFiles(t *testing.T) {
	src := buildSegStore(time.Hour)
	lz := lazyOpen(t, snapToDir(t, src, DirOptions{}), DirOptions{})
	if st := lazyStats(t, lz); st.Segments == 0 {
		t.Fatalf("restore mapped nothing: %+v", st)
	}
	if err := lz.RestoreDir(snapToDir(t, Open(), DirOptions{}), DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := lazyStats(t, lz); st.Segments != 0 || st.Blocks != 0 {
		t.Fatalf("empty restore still holds files: %+v", st)
	}
	if lz.SeriesCount() != 0 || lz.PointCount() != 0 || allSeries(lz) != nil {
		t.Fatalf("empty restore serves %d series/%d points", lz.SeriesCount(), lz.PointCount())
	}
}

// TestLazyFailedRestoreKeepsServing pins RestoreDir's "on error the
// store is untouched" for a store held over another directory: a
// restore that fails on a corrupt segment of the new directory leaves
// the old files mapped and the old data served.
func TestLazyFailedRestoreKeepsServing(t *testing.T) {
	src := buildSegStore(time.Hour)
	lz := lazyOpen(t, snapToDir(t, src, DirOptions{}), DirOptions{})

	bad := snapToDir(t, monoStore(200), DirOptions{})
	m, err := readManifest(bad)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(bad, m.Segments[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // payload byte: the CRC check fails
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := lz.RestoreDir(bad, DirOptions{}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("restore of a corrupt directory: got %v, want a checksum error", err)
	}
	if lz.Digest() != src.Digest() || !reflect.DeepEqual(allSeries(lz), allSeries(src)) {
		t.Fatal("a failed restore changed what the store serves")
	}
	if st := lazyStats(t, lz); st.Segments == 0 {
		t.Fatalf("a failed restore released the held files: %+v", st)
	}
}

// TestLazyWriteMaterializes proves mutation transparency: writes into
// a restored store first materialize the touched series, and the end
// state is identical to performing the same writes on the store that
// wrote the directory. Untouched series stay lazy.
func TestLazyWriteMaterializes(t *testing.T) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})

	tags := map[string]string{"link": "l1", "vp": "vp-a", "side": "near"}
	batch := []BatchPoint{
		{Measurement: "loss", Tags: map[string]string{"link": "l2", "vp": "vp-b", "side": "far"}, Time: t0.Add(30 * time.Minute), Value: 7.5},
		{Measurement: "loss", Tags: map[string]string{"link": "l2", "vp": "vp-b", "side": "far"}, Time: t0.Add(90 * time.Minute), Value: 8.5},
	}
	for _, db := range []*DB{lz, src} {
		// Out-of-order insert into the middle of existing data plus a
		// batched write: both mutable paths must see raw points.
		db.Write("tslp", tags, t0.Add(45*time.Minute), 3.25)
		db.WriteBatch(batch)
	}
	if lz.Digest() != src.Digest() {
		t.Fatal("digest diverged after writes")
	}
	if !reflect.DeepEqual(allSeries(lz), allSeries(src)) {
		t.Fatal("series diverged after writes")
	}
	// Two series were written; the rest of the store must still be lazy.
	if _, ok := lz.LazyReadStats(); !ok {
		t.Fatal("a targeted write materialized the whole store")
	}
}

// TestLazySnapshotRoundTrip runs every whole-store exporter over a
// restored store: SnapshotDir and ExportLines must produce output
// identical to the writer store's, which requires the implicit full
// materialization to be correct.
func TestLazySnapshotRoundTrip(t *testing.T) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(t, src, DirOptions{Incremental: true})
	want := src.Digest()

	// ExportLines output is byte-identical to the writer's.
	lz2 := lazyOpen(t, dir, DirOptions{})
	var lzOut, srcOut bytes.Buffer
	if _, err := lz2.ExportLines(&lzOut); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ExportLines(&srcOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lzOut.Bytes(), srcOut.Bytes()) {
		t.Fatal("ExportLines of the restored store differs from the writer's")
	}
	// The export walks the columns, so the store materialized fully.
	if _, ok := lz2.LazyReadStats(); ok {
		t.Fatal("ExportLines left the store lazy")
	}

	// SnapshotDir from a lazy open: the restore adopted the directory's
	// generation, nothing is dirty, so an incremental snapshot back into
	// the same directory reuses every segment — and a snapshot into a
	// fresh directory restores to the same digest.
	lz3 := lazyOpen(t, dir, DirOptions{})
	idle, err := lz3.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if idle.Written != 0 || idle.Reused == 0 {
		t.Fatalf("idle incremental snapshot from lazy open rewrote segments: %+v", idle)
	}
	lz4 := lazyOpen(t, dir, DirOptions{})
	fresh := snapToDir(t, lz4, DirOptions{})
	if lazyOpen(t, fresh, DirOptions{}).Digest() != want {
		t.Fatal("SnapshotDir from lazy open lost data")
	}
}

// TestLazyRetainPrune covers retention on a lazy store: a no-op Retain
// is decided from summaries alone and leaves the store lazy; a real
// trim materializes only what it must and matches the writer store's.
func TestLazyRetainPrune(t *testing.T) {
	window := time.Hour
	src := buildSegStore(window)
	dir := snapToDir(t, src, DirOptions{})

	// No-op horizon: nothing decoded, nothing dropped, still lazy.
	lz := lazyOpen(t, dir, DirOptions{})
	before := lazyStats(t, lz)
	if dropped := lz.Retain(t0.AddDate(-1, 0, 0), maxTime); dropped != 0 {
		t.Fatalf("no-op Retain dropped %d points", dropped)
	}
	after := lazyStats(t, lz)
	if after.BlocksDecoded != before.BlocksDecoded {
		t.Fatalf("no-op Retain decoded %d blocks", after.BlocksDecoded-before.BlocksDecoded)
	}

	// Real trim: identical to the writer store's Retain.
	cut := t0.Add(3 * window)
	wantDropped := src.Retain(cut, maxTime)
	gotDropped := lz.Retain(cut, maxTime)
	if gotDropped != wantDropped {
		t.Fatalf("Retain dropped %d points from the restored store, %d from the writer", gotDropped, wantDropped)
	}
	if lz.Digest() != src.Digest() {
		t.Fatal("digest diverged after Retain")
	}
	if !reflect.DeepEqual(allSeries(lz), allSeries(src)) {
		t.Fatal("series diverged after Retain")
	}
}

// TestLazyBlockCacheLRU pins the decoded-block cache contract: repeat
// reads of a hot range hit without re-decoding, resident decoded bytes
// never exceed the configured budget, and overflow evicts
// (docs/PERSISTENCE.md §9.5).
func TestLazyBlockCacheLRU(t *testing.T) {
	src := monoStore(3000) // 5 blocks across 3 windows
	dir := snapToDir(t, src, DirOptions{})
	budget := int64(2) * blockenc.MaxBlockPoints * decodedBlockBytes
	lz := lazyOpen(t, dir, DirOptions{BlockCacheBytes: budget})

	// A full scan decodes more bytes than the budget holds: evictions.
	if got, want := lz.Query("m", nil, t0, maxTime), src.Query("m", nil, t0, maxTime); !reflect.DeepEqual(got, want) {
		t.Fatal("full scan differs from the writer store")
	}
	st := lazyStats(t, lz)
	if st.CacheBytes > budget {
		t.Fatalf("cache holds %d bytes, budget %d", st.CacheBytes, budget)
	}
	if st.CacheEvictions == 0 {
		t.Fatalf("scanning %d blocks through a %d-byte cache evicted nothing: %+v", st.Blocks, budget, st)
	}
	if st.DecodedBytes == 0 {
		t.Fatalf("full scan recorded no decoded bytes: %+v", st)
	}

	// A hot single-block range: decoded at most once, then pure hits.
	hot0, hot1 := t0, t0.Add(10*time.Minute)
	lz.Query("m", nil, hot0, hot1)
	warm := lazyStats(t, lz)
	for i := 0; i < 3; i++ {
		if got, want := lz.Query("m", nil, hot0, hot1), src.Query("m", nil, hot0, hot1); !reflect.DeepEqual(got, want) {
			t.Fatal("hot range differs from the writer store")
		}
	}
	again := lazyStats(t, lz)
	if again.BlocksDecoded != warm.BlocksDecoded {
		t.Fatalf("hot range re-decoded %d blocks", again.BlocksDecoded-warm.BlocksDecoded)
	}
	if again.CacheHits <= warm.CacheHits {
		t.Fatalf("hot range produced no cache hits: %+v then %+v", warm, again)
	}
}

// TestLazyWalksLeaveBlockCacheAlone pins the cache rule for
// whole-store walks (docs/PERSISTENCE.md §9.5): Digest and
// materialization read cache hits but insert nothing, so a digest
// check on a serving store cannot evict its hot set — and the digest
// itself still equals the writer store's.
func TestLazyWalksLeaveBlockCacheAlone(t *testing.T) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})

	// Warm one series' first hour: the serving hot set.
	hot := map[string]string{"link": "l1", "vp": "vp-a", "side": "near"}
	if len(lz.QueryView("tslp", hot, t0, t0.Add(time.Hour))) == 0 {
		t.Fatal("hot query matched nothing")
	}
	before := lazyStats(t, lz)
	if before.CachedBlocks == 0 {
		t.Fatalf("hot query cached nothing: %+v", before)
	}

	if lz.Digest() != src.Digest() {
		t.Fatal("restored digest differs from the writer's")
	}
	after := lazyStats(t, lz)
	if after.CachedBlocks != before.CachedBlocks || after.CacheBytes != before.CacheBytes || after.CacheEvictions != before.CacheEvictions {
		t.Fatalf("Digest changed the block cache: %+v then %+v", before, after)
	}
	if after.BlocksDecoded <= before.BlocksDecoded {
		t.Fatalf("Digest of a lazy store decoded nothing: %+v then %+v", before, after)
	}
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("Digest did not read the cached block as a hit: %+v then %+v", before, after)
	}

	// The hot block survived the walk: asking again decodes nothing.
	lz.QueryView("tslp", hot, t0, t0.Add(time.Hour))
	again := lazyStats(t, lz)
	if again.BlocksDecoded != after.BlocksDecoded || again.CacheHits <= after.CacheHits {
		t.Fatalf("hot block was not a hit after Digest: %+v then %+v", after, again)
	}

	// A write materializes its series — every block once — without
	// inserting any of them.
	lz.Write("tslp", map[string]string{"link": "l2", "vp": "vp-b", "side": "far"}, t0.Add(45*time.Minute), 1)
	wrote := lazyStats(t, lz)
	if wrote.CachedBlocks != again.CachedBlocks || wrote.CacheBytes != again.CacheBytes {
		t.Fatalf("materialization changed the block cache: %+v then %+v", again, wrote)
	}
}

// TestLazyHotSwapReusesSegments is the O(changed segments) regression
// guard: re-restoring a lazily open store from the same directory
// after an incremental snapshot maps only the rewritten segment files
// and carries every unchanged one over.
func TestLazyHotSwapReusesSegments(t *testing.T) {
	window := time.Hour
	src := buildSegStore(window)
	dir := t.TempDir()
	first, err := src.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}

	reader := lazyOpen(t, dir, DirOptions{})
	st1 := lazyStats(t, reader)
	if st1.SegmentsOpened != uint64(first.Segments) || st1.SegmentsReused != 0 {
		t.Fatalf("cold open: %+v, want %d opened / 0 reused", st1, first.Segments)
	}

	// One write dirties one window; the incremental snapshot rewrites
	// only its segment.
	src.Write("tslp", map[string]string{"link": "l1", "vp": "vp-a", "side": "near"}, t0.Add(30*time.Minute), 9.75)
	second, err := src.SnapshotDir(dir, DirOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Written != 1 {
		t.Fatalf("localized write rewrote %d segments, want 1", second.Written)
	}

	if err := reader.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	st2 := lazyStats(t, reader)
	if opened := st2.SegmentsOpened - st1.SegmentsOpened; opened != uint64(second.Written) {
		t.Fatalf("hot swap opened %d segments, want %d (the rewritten ones)", opened, second.Written)
	}
	if reused := st2.SegmentsReused - st1.SegmentsReused; reused != uint64(second.Reused) {
		t.Fatalf("hot swap reused %d segments, want %d", reused, second.Reused)
	}
	// Replaced files must be dropped: the held set matches the manifest.
	if st2.Segments != second.Segments {
		t.Fatalf("store holds %d files, manifest lists %d", st2.Segments, second.Segments)
	}
	if reader.Digest() != src.Digest() {
		t.Fatal("digest mismatch after hot swap")
	}
}

// TestLazyValueBoundQuery proves QueryViewWhere equivalence between a
// restored store and its writer across value bounds — including bounds
// that prune whole blocks and data containing NaN, which never matches
// a bound but must survive both paths bit-exactly.
func TestLazyValueBoundQuery(t *testing.T) {
	db := Open()
	tags := map[string]string{"link": "l1"}
	for i := 0; i < 2000; i++ {
		v := float64(i % 50)
		if i%37 == 0 {
			v = math.NaN()
		}
		db.Write("m", tags, t0.Add(time.Duration(i)*time.Minute), v)
	}
	dir := snapToDir(t, db, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})

	if lz.Digest() != db.Digest() {
		t.Fatal("digest mismatch with NaN data")
	}
	bounds := []*ValueBound{
		nil,
		{Min: 0, Max: 49},    // everything but NaN
		{Min: 10, Max: 20},   // mid slice of every block
		{Min: 100, Max: 200}, // matches nothing; prunes every block
		{Min: -5, Max: -1},   // matches nothing below the data
	}
	before := lazyStats(t, lz)
	for _, vb := range bounds {
		got := lz.QueryViewWhere("m", nil, t0, maxTime, vb)
		want := db.QueryViewWhere("m", nil, t0, maxTime, vb)
		if !viewsEqual(got, want) {
			t.Fatalf("QueryViewWhere(%+v): restored and writer disagree", vb)
		}
	}
	after := lazyStats(t, lz)
	if after.BlocksSkipped <= before.BlocksSkipped {
		t.Fatalf("no block was value-pruned: %+v", after)
	}
}

// BenchmarkLazyQueryPrune is the self-checking pruning benchmark CI's
// bench-smoke runs: each iteration lazily opens a six-window fixture
// and queries far outside it, asserting the query decodes at least 5x
// fewer blocks than a full decode (in fact zero), then
// queries one window, asserting it decodes at most a fifth of the
// blocks. The digest oracle runs once, untimed, at the end.
func BenchmarkLazyQueryPrune(b *testing.B) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(b, src, DirOptions{})
	want := src.Digest()

	var last *DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := Open()
		if err := db.RestoreDir(dir, DirOptions{}); err != nil {
			b.Fatal(err)
		}
		for _, m := range []string{"tslp", "loss"} {
			if out := db.Query(m, nil, t0.AddDate(10, 0, 0), t0.AddDate(11, 0, 0)); out != nil {
				b.Fatalf("out-of-range query returned %d series", len(out))
			}
		}
		st, ok := db.LazyReadStats()
		if !ok {
			b.Fatal("store is not lazily open")
		}
		// Decoding the whole directory touches every block; the pruned
		// query must decode at least 5x fewer (docs/PERSISTENCE.md §9).
		if st.Blocks == 0 || st.BlocksDecoded*5 > uint64(st.Blocks) {
			b.Fatalf("pruning decoded %d of %d blocks — less than a 5x reduction over a full decode", st.BlocksDecoded, st.Blocks)
		}
		if st.BlocksDecoded != 0 {
			b.Fatalf("out-of-range query decoded %d blocks, want 0", st.BlocksDecoded)
		}
		// A one-window query decodes its own window's blocks and no more:
		// at most a fifth of the store's.
		for _, m := range []string{"tslp", "loss"} {
			if out := db.Query(m, nil, t0, t0.Add(time.Hour)); len(out) == 0 {
				b.Fatalf("one-window %s query returned nothing", m)
			}
		}
		if st, _ = db.LazyReadStats(); st.BlocksDecoded == 0 || st.BlocksDecoded*5 > uint64(st.Blocks) {
			b.Fatalf("one-window query decoded %d of %d blocks, want at most a fifth", st.BlocksDecoded, st.Blocks)
		}
		last = db
	}
	b.StopTimer()
	if last != nil && last.Digest() != want {
		b.Fatal("digest mismatch between the restored store and its writer")
	}
}
