package replication_test

// End-to-end tests for the leader→follower replication protocol
// (docs/REPLICATION.md): convergence is digest equality, steady state
// transfers zero segment bytes, incremental generations reuse clean
// segments, and every corruption/regression mode fails loud without
// touching the committed directory or the serving store.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// epoch anchors the test data; value is arbitrary.
var epoch = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// seed writes deterministic TSLP-shaped data for day (0-based) into
// db: several links, both sides, hourly points.
func seed(db *tsdb.DB, day int) {
	base := epoch.AddDate(0, 0, day)
	for l := 0; l < 4; l++ {
		for h := 0; h < 24; h++ {
			for _, side := range []string{"far", "near"} {
				tags := map[string]string{
					"link": fmt.Sprintf("l%d", l), "vp": "vp-a", "side": side,
				}
				db.Write("tslp", tags, base.Add(time.Duration(h)*time.Hour), float64(l*24+h))
			}
		}
	}
}

// tamper wraps an exporter and corrupts segment bodies on demand. Mode
// "" passes through, "flip" flips the last payload byte, "truncate"
// serves only the first half of the file.
type tamper struct {
	inner http.Handler
	mode  atomic.Value // string
}

func newTamper(inner http.Handler) *tamper {
	tp := &tamper{inner: inner}
	tp.mode.Store("")
	return tp
}

func (tp *tamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := tp.mode.Load().(string)
	if mode == "" || !strings.HasPrefix(r.URL.Path, replication.SegmentPathPrefix) {
		tp.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	tp.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	switch mode {
	case "flip":
		if len(body) > 0 {
			body[len(body)-1] ^= 0x01
		}
	case "truncate":
		body = body[:len(body)/2]
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// leaderFixture is one running leader: a store, its exported segment
// directory, and the tamper wrapper the corruption tests poke.
type leaderFixture struct {
	db  *tsdb.DB
	dir string
	ts  *httptest.Server
	tp  *tamper
}

// newLeader builds a leader with one day of data snapshotted at
// generation 1.
func newLeader(t *testing.T) *leaderFixture {
	t.Helper()
	lf := &leaderFixture{db: tsdb.Open(), dir: t.TempDir()}
	seed(lf.db, 0)
	if _, err := lf.db.SnapshotDir(lf.dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	lf.tp = newTamper(replication.NewExporter(lf.dir))
	lf.ts = httptest.NewServer(lf.tp)
	t.Cleanup(lf.ts.Close)
	return lf
}

// advance writes another day of data and takes an incremental
// snapshot, bumping the leader's generation.
func (lf *leaderFixture) advance(t *testing.T, day int) {
	t.Helper()
	seed(lf.db, day)
	if _, err := lf.db.SnapshotDir(lf.dir, tsdb.DirOptions{Incremental: true}); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndConvergence(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(lf.ts.URL, fdir, fdb, replication.Options{})

	// Cycle 1: full transfer, then digest equality — the convergence
	// oracle (docs/REPLICATION.md §1).
	cs, err := f.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Unchanged || cs.SegmentsFetched == 0 || cs.BytesFetched == 0 {
		t.Fatalf("first cycle did not transfer: %+v", cs)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatalf("follower digest %x != leader digest %x", fdb.Digest(), lf.db.Digest())
	}
	if got := fdb.SnapshotGeneration(); got != 1 {
		t.Fatalf("applied generation %d, want 1", got)
	}

	// Cycle 2: steady state. The conditional manifest fetch answers 304
	// and zero segment bytes move.
	cs, err = f.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Unchanged || cs.BytesFetched != 0 || cs.SegmentsFetched != 0 {
		t.Fatalf("steady-state cycle transferred: %+v", cs)
	}

	// Cycle 3: the leader advances one generation with a new day of
	// data. Only the changed/new segments cross the wire; the rest are
	// reused from the follower's disk.
	lf.advance(t, 1)
	cs, err = f.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Unchanged || cs.SegmentsFetched == 0 {
		t.Fatalf("incremental cycle did not transfer: %+v", cs)
	}
	if cs.SegmentsReused == 0 {
		t.Fatalf("incremental cycle reused nothing: %+v", cs)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatalf("after incremental cycle digests diverged: %x != %x", fdb.Digest(), lf.db.Digest())
	}

	st := f.Status()
	if st.AppliedGeneration != 2 || st.LeaderGeneration != 2 {
		t.Fatalf("status generations %+v, want 2/2", st)
	}
	if st.Cycles != 3 || st.Failures != 0 {
		t.Fatalf("status cycles %d failures %d, want 3/0", st.Cycles, st.Failures)
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	f := replication.New(lf.ts.URL, fdir, tsdb.Open(), replication.Options{})
	if _, err := f.TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A new follower over the same directory — a process restart —
	// resumes at the committed generation instead of refetching.
	fdb2 := tsdb.Open()
	if err := fdb2.RestoreDir(fdir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	f2 := replication.New(lf.ts.URL, fdir, fdb2, replication.Options{})
	if got := f2.Status().AppliedGeneration; got != 1 {
		t.Fatalf("restarted follower resumed at generation %d, want 1", got)
	}
	cs, err := f2.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Unchanged || cs.BytesFetched != 0 {
		t.Fatalf("restarted follower refetched an unchanged leader: %+v", cs)
	}
	if fdb2.Digest() != lf.db.Digest() {
		t.Fatalf("restarted follower digest %x != leader %x", fdb2.Digest(), lf.db.Digest())
	}
}

// failedCycleLeavesDirIntact runs one tail cycle that must fail, and
// asserts the follower's committed state and serving store did not
// move and no temp files leaked.
func failedCycleLeavesDirIntact(t *testing.T, f *replication.Follower, fdir string, fdb *tsdb.DB, wantErr string) {
	t.Helper()
	before := fdb.Digest()
	beforeGen := fdb.SnapshotGeneration()
	_, err := f.TailOnce(context.Background())
	if err == nil {
		t.Fatal("cycle succeeded, want failure")
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("error %q does not mention %q", err, wantErr)
	}
	if fdb.Digest() != before || fdb.SnapshotGeneration() != beforeGen {
		t.Fatal("failed cycle mutated the serving store")
	}
	if m, merr := tsdb.LoadManifest(fdir); merr == nil && m.Generation != beforeGen {
		t.Fatalf("failed cycle committed generation %d", m.Generation)
	}
	entries, _ := os.ReadDir(fdir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed cycle leaked temp file %s", e.Name())
		}
	}
	if st := f.Status(); st.LastError == "" {
		t.Fatal("failure not recorded in status")
	}
}

func TestFollowerRejectsCorruptDownload(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(lf.ts.URL, fdir, fdb, replication.Options{})

	lf.tp.mode.Store("flip")
	failedCycleLeavesDirIntact(t, f, fdir, fdb, "rejected")

	// Un-tamper: the next cycle converges — failure is retryable.
	lf.tp.mode.Store("")
	if _, err := f.TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatal("follower did not converge after tampering stopped")
	}
	if st := f.Status(); st.LastError != "" {
		t.Fatalf("success did not clear LastError: %q", st.LastError)
	}
}

func TestFollowerRejectsTruncatedDownload(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(lf.ts.URL, fdir, fdb, replication.Options{})

	lf.tp.mode.Store("truncate")
	failedCycleLeavesDirIntact(t, f, fdir, fdb, "rejected")
}

func TestFollowerRejectsGenerationRegression(t *testing.T) {
	// Two leader directories: gen 2 and gen 1. The follower converges
	// on the first, then the "leader" swaps to the stale directory —
	// a restore-from-backup scenario the follower must refuse.
	lf := newLeader(t)
	lf.advance(t, 1) // gen 2

	staleDB := tsdb.Open()
	seed(staleDB, 0)
	staleDir := t.TempDir()
	if _, err := staleDB.SnapshotDir(staleDir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}

	var handler atomic.Value
	handler.Store(http.Handler(replication.NewExporter(lf.dir)))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(ts.URL, fdir, fdb, replication.Options{})
	if _, err := f.TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fdb.SnapshotGeneration() != 2 {
		t.Fatalf("applied generation %d, want 2", fdb.SnapshotGeneration())
	}

	handler.Store(http.Handler(replication.NewExporter(staleDir)))
	failedCycleLeavesDirIntact(t, f, fdir, fdb, "regressed")
}

// TestFollowerRefusesPerShardLeader: a leader still serving a per-shard
// (format v3) directory — one entry per (shard, window), manifest
// version 1, served verbatim as an old exporter would — fails the
// follower's cycle at the manifest parse, and the generation the
// follower committed keeps serving (docs/REPLICATION.md §5).
func TestFollowerRefusesPerShardLeader(t *testing.T) {
	lf := newLeader(t)
	var perShard atomic.Value // []byte manifest served verbatim once set
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if data, ok := perShard.Load().([]byte); ok && r.URL.Path == replication.ManifestPath {
			_, _ = w.Write(data)
			return
		}
		lf.tp.ServeHTTP(w, r)
	}))
	defer ts.Close()

	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(ts.URL, fdir, fdb, replication.Options{})
	if _, err := f.TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	m, err := tsdb.LoadManifest(lf.dir)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generation + 1
	var entries []string
	for _, sm := range m.Segments {
		for shard := 0; shard < 2; shard++ {
			entries = append(entries, fmt.Sprintf(`{"file":"seg-%02d-%d-g%d.seg","shard":%d,"window_start":%d,"window_end":%d,"series":1,"points":1,"crc":1}`,
				shard, sm.WindowStart, gen, shard, sm.WindowStart, sm.WindowEnd))
		}
	}
	perShard.Store([]byte(fmt.Sprintf(`{"version":1,"generation":%d,"window_nanos":%d,"store_series":8,"total_points":%d,"segments":[%s]}`,
		gen, m.WindowNanos, len(entries), strings.Join(entries, ","))))
	failedCycleLeavesDirIntact(t, f, fdir, fdb, "manifest version 1")
	if st := f.Status(); st.AppliedGeneration != m.Generation {
		t.Fatalf("applied generation %d after a refused cycle, want %d", st.AppliedGeneration, m.Generation)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatal("the committed generation stopped serving")
	}
}

func TestFollowerRunLoop(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(lf.ts.URL, fdir, fdb, replication.Options{
		Interval: 5 * time.Millisecond,
		Logf:     t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { f.Run(ctx); close(done) }()

	deadline := time.Now().Add(5 * time.Second)
	for f.Status().AppliedGeneration < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never applied generation 1")
		}
		time.Sleep(time.Millisecond)
	}
	lf.advance(t, 1)
	for f.Status().AppliedGeneration < 2 {
		if time.Now().After(deadline) {
			t.Fatal("follower never applied generation 2")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if fdb.Digest() != lf.db.Digest() {
		t.Fatalf("run loop did not converge: %x != %x", fdb.Digest(), lf.db.Digest())
	}
}

func TestExporterManifestConditional(t *testing.T) {
	lf := newLeader(t)
	resp, err := http.Get(lf.ts.URL + replication.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest fetch: %s", resp.Status)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("manifest response carries no ETag")
	}
	if resp.Header.Get(replication.GenerationHeader) != "1" {
		t.Fatalf("generation header %q, want 1", resp.Header.Get(replication.GenerationHeader))
	}

	req, _ := http.NewRequest(http.MethodGet, lf.ts.URL+replication.ManifestPath, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional refetch: %s, want 304", resp2.Status)
	}

	// A generation bump must change the tag.
	lf.advance(t, 1)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-bump conditional fetch: %s, want 200", resp3.Status)
	}
	if resp3.Header.Get("ETag") == etag {
		t.Fatal("ETag did not change across generations")
	}
}

func TestExporterEmptyDir(t *testing.T) {
	ts := httptest.NewServer(replication.NewExporter(t.TempDir()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + replication.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty dir manifest: %s, want 503", resp.Status)
	}
}

func TestExporterRejectsBadNames(t *testing.T) {
	lf := newLeader(t)
	m, err := tsdb.LoadManifest(lf.dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want int
	}{
		{m.Segments[0].File, http.StatusOK},
		{"MANIFEST.json", http.StatusBadRequest},
		{m.Segments[0].File + ".tmp", http.StatusBadRequest},
		{"seg-0-g99.seg", http.StatusNotFound},      // well-formed but absent
		{"seg-00-0-g99.seg", http.StatusBadRequest}, // format v3's per-shard name
	}
	for _, c := range cases {
		resp, err := http.Get(lf.ts.URL + replication.SegmentPathPrefix + c.name)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET segment %q = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Path traversal cannot reach files outside the directory.
	outside := filepath.Join(filepath.Dir(lf.dir), "loot")
	if err := os.WriteFile(outside, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(lf.ts.URL + replication.SegmentPathPrefix + "..%2floot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("path traversal served a file outside the directory")
	}
}

// TestFollowerRejectsEscapingManifest: a hostile leader whose manifest
// names a file outside the replica directory, and which serves genuine
// segment bytes under that name, must fail the cycle before anything is
// written outside the directory (docs/REPLICATION.md §5).
func TestFollowerRejectsEscapingManifest(t *testing.T) {
	lf := newLeader(t)
	m, err := tsdb.LoadManifest(lf.dir)
	if err != nil {
		t.Fatal(err)
	}
	const escaped = "../escaped.seg"
	genuine := m.Segments[0].File
	m.Segments[0].File = escaped
	hostile, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	exporter := replication.NewExporter(lf.dir)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case replication.ManifestPath:
			_, _ = w.Write(hostile)
		case replication.SegmentPathPrefix + escaped:
			data, err := os.ReadFile(filepath.Join(lf.dir, genuine))
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			_, _ = w.Write(data)
		default:
			exporter.ServeHTTP(w, r)
		}
	}))
	defer ts.Close()

	root := t.TempDir()
	f := replication.New(ts.URL, filepath.Join(root, "replica"), tsdb.Open(), replication.Options{})
	if _, err := f.TailOnce(context.Background()); err == nil {
		t.Fatal("follower committed a manifest naming a file outside its directory")
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "replica" {
			t.Errorf("tail cycle wrote %s outside the replica directory", e.Name())
		}
	}
}

// TestFollowerLazyHotSwapReusesSegments is the decode-count regression
// guard for followers: the post-commit hot-swap maps exactly the
// segments the cycle fetched, carries every unchanged
// one over from the serving store, and decodes zero blocks itself —
// O(changed segments) instead of a full directory re-decode — while
// the digest oracle still proves convergence.
func TestFollowerLazyHotSwapReusesSegments(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(lf.ts.URL, fdir, fdb, replication.Options{})

	cs1, err := f.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st1, ok := fdb.LazyReadStats()
	if !ok {
		t.Fatal("follower store is not lazily open")
	}
	if st1.SegmentsOpened != uint64(cs1.SegmentsFetched) || st1.SegmentsReused != 0 {
		t.Fatalf("cold swap: lazy stats %+v, cycle %+v", st1, cs1)
	}
	if st1.BlocksDecoded != 0 {
		t.Fatalf("cold swap decoded %d blocks before any read", st1.BlocksDecoded)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatalf("follower digest %x != leader digest %x", fdb.Digest(), lf.db.Digest())
	}
	// A reader caches day 0's blocks; the digest walk above left none
	// behind (docs/PERSISTENCE.md §9.5).
	fdb.QueryView("tslp", nil, epoch, epoch.AddDate(0, 0, 1))
	afterDigest, _ := fdb.LazyReadStats()
	if afterDigest.CachedBlocks == 0 {
		t.Fatalf("day-0 read cached nothing: %+v", afterDigest)
	}

	// Leader advances one generation; only the new day's segments move,
	// and only those may be mapped by the swap.
	lf.advance(t, 1)
	cs2, err := f.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs2.SegmentsReused == 0 {
		t.Fatalf("fixture is not incremental: %+v", cs2)
	}
	st2, ok := fdb.LazyReadStats()
	if !ok {
		t.Fatal("hot swap dropped lazy mode")
	}
	if opened := st2.SegmentsOpened - st1.SegmentsOpened; opened != uint64(cs2.SegmentsFetched) {
		t.Fatalf("hot swap mapped %d segments, want the %d fetched", opened, cs2.SegmentsFetched)
	}
	if reused := st2.SegmentsReused - st1.SegmentsReused; reused != uint64(cs2.SegmentsReused) {
		t.Fatalf("hot swap reused %d held segments, want %d", reused, cs2.SegmentsReused)
	}
	// The swap itself decodes nothing — cost is mapping, not decoding.
	if st2.BlocksDecoded != afterDigest.BlocksDecoded {
		t.Fatalf("hot swap decoded %d blocks", st2.BlocksDecoded-afterDigest.BlocksDecoded)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatal("digests diverged after hot swap")
	}
	// Unchanged segments' blocks were still cached across the swap.
	final, _ := fdb.LazyReadStats()
	if final.CacheHits <= afterDigest.CacheHits {
		t.Fatalf("post-swap digest hit the cache %d times, want > %d", final.CacheHits, afterDigest.CacheHits)
	}
	if got := fdb.SnapshotGeneration(); got != 2 {
		t.Fatalf("applied generation %d, want 2", got)
	}
}
