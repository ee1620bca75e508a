package tsdb

// Tests for the lazy block-pruned read path (docs/PERSISTENCE.md §9).
// The suite is anchored on the §9 oracle: a lazily opened directory
// must be observationally identical to an eager open — Digest, Query,
// QueryView, TimeBounds, exports and snapshots all agree — while the
// stats counters prove that pruning, decode-on-demand and hot-swap
// segment reuse actually happened. Test names deliberately carry
// "Lazy" or "Prune" so CI's storage-smoke job can select the suite
// with -run 'Lazy|Prune'.

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// lazyOpen restores dir into a fresh store in lazy mode.
func lazyOpen(t testing.TB, dir string, opts DirOptions) *DB {
	t.Helper()
	opts.Lazy = true
	db := Open()
	if err := db.RestoreDir(dir, opts); err != nil {
		t.Fatalf("RestoreDir(lazy): %v", err)
	}
	return db
}

// eagerOpen restores dir into a fresh store in the default eager mode.
func eagerOpen(t testing.TB, dir string) *DB {
	t.Helper()
	db := Open()
	if err := db.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatalf("RestoreDir(eager): %v", err)
	}
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

// viewsEqual compares view sets bit-exactly: reflect.DeepEqual would
// report NaN values unequal to themselves, so values compare through
// their float bits — the same identity the digest uses.
func viewsEqual(a, b []SeriesView) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		av, bv := &a[i], &b[i]
		if av.Measurement != bv.Measurement || !reflect.DeepEqual(av.Tags, bv.Tags) ||
			av.Version != bv.Version || !reflect.DeepEqual(av.Times, bv.Times) ||
			len(av.Values) != len(bv.Values) {
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

// TestLazyRestoreDigestEqual is the §9 oracle: a lazy open of a
// directory yields the same canonical digest and the same structural
// query results as an eager open, at several worker counts, without
// the lazy store ever materializing.
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
		// TimeBounds from summaries must agree with the eager answer.
		for _, m := range src.Measurements() {
			lmin, lmax, lok := lz.TimeBounds(m, nil)
			emin, emax, eok := src.TimeBounds(m, nil)
			if lok != eok || !lmin.Equal(emin) || !lmax.Equal(emax) {
				t.Fatalf("workers=%d: TimeBounds(%q) lazy (%v,%v,%v) != eager (%v,%v,%v)",
					workers, m, lmin, lmax, lok, emin, emax, eok)
			}
		}
	}

	// An eager open must not report lazy stats.
	if _, ok := eagerOpen(t, dir).LazyReadStats(); ok {
		t.Fatal("eager open reported lazy read stats")
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
		t.Fatal("one-window lazy query disagrees with eager store")
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
// results as the eager open. The half-open interval makes the block
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
	eg := eagerOpen(t, dir)

	offsets := []int{0, 1, 1023, 1024, 1025, 1439, 1440, 1441, 2463, 2464, 2879, 2880, 2999, 3000}
	for i, a := range offsets {
		for _, b := range offsets[i:] {
			from, to := t0.Add(time.Duration(a)*time.Minute), t0.Add(time.Duration(b)*time.Minute)
			got, want := lz.Query("m", nil, from, to), eg.Query("m", nil, from, to)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Query[%d,%d): lazy and eager disagree", a, b)
			}
			gotV, wantV := lz.QueryView("m", nil, from, to), eg.QueryView("m", nil, from, to)
			if !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("QueryView[%d,%d): lazy and eager disagree", a, b)
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

// TestLazyTamperedSummaryFailsLoud encodes corruption into a block
// summary and refreshes every checksum above it, so the lie survives
// CRC verification at open. The eager open must fail at decode; the
// lazy open succeeds structurally but the first query forced to decode
// the block must panic — fail loud, never mis-prune (docs/
// PERSISTENCE.md §9).
func TestLazyTamperedSummaryFailsLoud(t *testing.T) {
	src := monoStore(200)
	dir := snapToDir(t, src, DirOptions{})

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
	// The summary now claims a minimum no point has.
	list[0].Blocks[0].Min -= 100
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

	// Eager open decodes everything and must reject the lying summary.
	if err := Open().RestoreDir(dir, DirOptions{}); !errors.Is(err, blockenc.ErrCorrupt) {
		t.Fatalf("eager restore of tampered summary: got %v, want ErrCorrupt", err)
	}

	// Lazy open is structural only and succeeds; the decode fails loud.
	lz := lazyOpen(t, dir, DirOptions{})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("query over a tampered block did not panic")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "summary disagrees") {
				t.Fatalf("panic does not name the summary: %q", msg)
			}
		}()
		lz.Query("m", nil, t0, maxTime)
	}()
}

// TestLazyWriteMaterializes proves mutation transparency: writes into
// a lazily opened store first materialize the touched series, and the
// end state is identical to performing the same writes on an eager
// open. Untouched series stay lazy.
func TestLazyWriteMaterializes(t *testing.T) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})
	eg := eagerOpen(t, dir)

	tags := map[string]string{"link": "l1", "vp": "vp-a", "side": "near"}
	batch := []BatchPoint{
		{Measurement: "loss", Tags: map[string]string{"link": "l2", "vp": "vp-b", "side": "far"}, Time: t0.Add(30 * time.Minute), Value: 7.5},
		{Measurement: "loss", Tags: map[string]string{"link": "l2", "vp": "vp-b", "side": "far"}, Time: t0.Add(90 * time.Minute), Value: 8.5},
	}
	for _, db := range []*DB{lz, eg} {
		// Out-of-order insert into the middle of existing data plus a
		// batched write: both mutable paths must see raw points.
		db.Write("tslp", tags, t0.Add(45*time.Minute), 3.25)
		db.WriteBatch(batch)
	}
	if lz.Digest() != eg.Digest() {
		t.Fatal("digest diverged after writes")
	}
	if !reflect.DeepEqual(allSeries(lz), allSeries(eg)) {
		t.Fatal("series diverged after writes")
	}
	// Two series were written; the rest of the store must still be lazy.
	if _, ok := lz.LazyReadStats(); !ok {
		t.Fatal("a targeted write materialized the whole store")
	}
}

// TestLazySnapshotRoundTrip runs every whole-store exporter over a
// lazily opened store: SnapshotDir and ExportLines must produce output
// identical to the eager open's, which requires the implicit full
// materialization to be correct.
func TestLazySnapshotRoundTrip(t *testing.T) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(t, src, DirOptions{Incremental: true})
	want := src.Digest()

	// ExportLines output is byte-identical between open modes.
	lz2, eg := lazyOpen(t, dir, DirOptions{}), eagerOpen(t, dir)
	var lzOut, egOut bytes.Buffer
	if _, err := lz2.ExportLines(&lzOut); err != nil {
		t.Fatal(err)
	}
	if _, err := eg.ExportLines(&egOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lzOut.Bytes(), egOut.Bytes()) {
		t.Fatal("ExportLines differs between open modes")
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
	if eagerOpen(t, fresh).Digest() != want {
		t.Fatal("SnapshotDir from lazy open lost data")
	}
}

// TestLazyRetainPrune covers retention on a lazy store: a no-op Retain
// is decided from summaries alone and leaves the store lazy; a real
// trim materializes only what it must and matches the eager result.
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

	// Real trim: identical to the eager open's Retain.
	cut := t0.Add(3 * window)
	eg := eagerOpen(t, dir)
	wantDropped := eg.Retain(cut, maxTime)
	gotDropped := lz.Retain(cut, maxTime)
	if gotDropped != wantDropped {
		t.Fatalf("Retain dropped %d points lazily, %d eagerly", gotDropped, wantDropped)
	}
	if lz.Digest() != eg.Digest() {
		t.Fatal("digest diverged after Retain")
	}
	if !reflect.DeepEqual(allSeries(lz), allSeries(eg)) {
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
		t.Fatal("full scan differs from eager store")
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
			t.Fatal("hot range differs from eager store")
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
// itself still equals the eager twin's.
func TestLazyWalksLeaveBlockCacheAlone(t *testing.T) {
	src := buildSegStore(time.Hour)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})
	eg := eagerOpen(t, dir)

	// Warm one series' first hour: the serving hot set.
	hot := map[string]string{"link": "l1", "vp": "vp-a", "side": "near"}
	if len(lz.QueryView("tslp", hot, t0, t0.Add(time.Hour))) == 0 {
		t.Fatal("hot query matched nothing")
	}
	before := lazyStats(t, lz)
	if before.CachedBlocks == 0 {
		t.Fatalf("hot query cached nothing: %+v", before)
	}

	if lz.Digest() != eg.Digest() {
		t.Fatal("lazy digest differs from eager twin")
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

	if err := reader.RestoreDir(dir, DirOptions{Lazy: true}); err != nil {
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

// TestLazyValueBoundQuery proves QueryViewWhere equivalence between
// open modes across value bounds — including bounds that prune whole
// blocks and data containing NaN, which never matches a bound but must
// survive both paths bit-exactly.
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
	lz, eg := lazyOpen(t, dir, DirOptions{}), eagerOpen(t, dir)

	if lz.Digest() != eg.Digest() {
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
		want := eg.QueryViewWhere("m", nil, t0, maxTime, vb)
		if !viewsEqual(got, want) {
			t.Fatalf("QueryViewWhere(%+v): lazy and eager disagree", vb)
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
// fewer blocks than the eager open's everything (in fact zero), then
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
		if err := db.RestoreDir(dir, DirOptions{Lazy: true}); err != nil {
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
		// The eager path decodes every block at open; the pruned query
		// must decode at least 5x fewer (docs/PERSISTENCE.md §9).
		if st.Blocks == 0 || st.BlocksDecoded*5 > uint64(st.Blocks) {
			b.Fatalf("pruning decoded %d of %d blocks — less than a 5x reduction over eager", st.BlocksDecoded, st.Blocks)
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
		b.Fatal("digest mismatch between lazy and eager open")
	}
}
