package replication

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interdomain/internal/pipeline"
	"interdomain/internal/tsdb"
)

// DefaultInterval is the tail cadence Run uses when Options.Interval
// is zero. The TSLP signal changes at most once per 5-minute round
// (paper §3.1), so 30 seconds keeps follower staleness a small
// fraction of the signal's own period without hammering the leader.
const DefaultInterval = 30 * time.Second

// Options configures a Follower.
type Options struct {
	// Interval is the cadence of Run's tail cycles (0 means
	// DefaultInterval).
	Interval time.Duration
	// Client is the HTTP client used against the leader (nil means a
	// client with a 30-second overall timeout).
	Client *http.Client
	// Workers bounds concurrent segment downloads per cycle — and the
	// installs writing finished downloads beside them — and the parallel
	// decode of the post-commit RestoreDir (0 means one per CPU).
	Workers int
	// Logf, when set, receives one line per completed tail cycle and
	// per failure (e.g. log.Printf). Nil disables logging; Status
	// always carries the same information.
	Logf func(format string, args ...interface{})
	// Lazy makes the post-commit hot-swap open the directory in block-
	// pruned lazy mode (tsdb.DirOptions.Lazy): the swap maps only the
	// segments the cycle changed — unchanged files stay held by the
	// serving store — so a tail commit costs O(changed segments)
	// instead of a full directory re-decode (docs/PERSISTENCE.md §9).
	Lazy bool
	// CacheBytes bounds the decoded-block cache of each lazy hot-swap
	// (tsdb.DirOptions.BlockCacheBytes; 0 means the tsdb default).
	// Without it a follower restarted with a larger -block-cache-mb
	// would silently fall back to the default budget on the first
	// committed generation (docs/PERSISTENCE.md §9.5).
	CacheBytes int64
}

// CycleStats reports what one TailOnce did.
type CycleStats struct {
	// Generation is the leader manifest generation this cycle observed
	// (and, unless Unchanged or failed, committed).
	Generation uint64
	// Unchanged reports that the leader's generation already matched
	// the follower's: nothing was fetched, committed or swapped.
	Unchanged bool
	// SegmentsFetched counts segment files downloaded this cycle.
	SegmentsFetched int
	// SegmentsReused counts manifest entries satisfied byte-for-byte
	// by files already on the follower's disk.
	SegmentsReused int
	// BytesFetched is the total segment payload bytes downloaded;
	// zero for an Unchanged cycle by construction.
	BytesFetched int64
	// Removed counts local files reaped after the commit (superseded
	// segments and stray temp files).
	Removed int
	// DeltaSegments counts segments of this cycle satisfied by a delta
	// splice instead of a whole-segment download
	// (docs/REPLICATION.md §8); they are included in SegmentsFetched.
	DeltaSegments int
	// DeltaFallbacks counts delta attempts this cycle that failed and
	// fell back to a whole-segment fetch. A fallback is not an error —
	// the cycle converges either way.
	DeltaFallbacks int
}

// Status is a point-in-time snapshot of a follower's replication
// state, surfaced through /api/v1/health and /api/v1/stats
// (docs/REPLICATION.md §6).
type Status struct {
	// Leader is the leader's base URL.
	Leader string
	// LeaderGeneration is the newest manifest generation seen on the
	// leader, even if the cycle that saw it later failed.
	LeaderGeneration uint64
	// AppliedGeneration is the generation last committed locally (and
	// serving, when a DB is attached). Leader minus applied is the
	// follower's staleness in generations.
	AppliedGeneration uint64
	// LastSync is the wall-clock time of the last successful cycle
	// (zero if none succeeded yet).
	LastSync time.Time
	// LastError is the last cycle's error message, empty after a
	// success.
	LastError string
	// Cycles counts tail cycles attempted; Failures those that errored.
	Cycles, Failures uint64
	// SegmentsFetched and BytesFetched accumulate transfer totals
	// across all successful cycles.
	SegmentsFetched, BytesFetched uint64
	// DeltaSegments and DeltaFallbacks accumulate the per-cycle delta
	// counters of the same names (docs/REPLICATION.md §8).
	DeltaSegments, DeltaFallbacks uint64
}

// Follower tails a leader's segment directory into a local directory
// and (optionally) hot-swaps a serving store after each commit. Safe
// for concurrent use: Status may be called from any goroutine while
// Run tails. Cycles themselves are serialized — TailOnce holds an
// internal gate — so two overlapping callers cannot interleave
// half-written directories.
type Follower struct {
	leader string
	// leaderShown is the leader URL with any userinfo stripped — the
	// only form that may appear in logs, errors and health output
	// (docs/REPLICATION.md §8).
	leaderShown string
	dir         string
	db          *tsdb.DB
	client      *http.Client
	interval    time.Duration
	workers     int
	lazy        bool
	cacheB      int64
	logf        func(format string, args ...interface{})

	// gate serializes tail cycles and guards committed, swept and
	// pending, which only cycles touch.
	gate sync.Mutex
	// committed is the manifest of the generation the replica directory
	// last committed (loaded by New on a restart): a cycle plans from it
	// instead of from the disk (docs/REPLICATION.md §3 step 3). Nil
	// before the first commit.
	committed *tsdb.Manifest
	// swept reports that a cycle committed since New, so every file
	// committed lists has been verified by this process. Until then a
	// cycle verifies whatever it reuses from disk, as after a crash.
	swept bool
	// pending names the segment files installed by cycles that did not
	// commit: on disk, but vouched for by no committed manifest.
	pending map[string]bool
	// mu guards st and etag.
	mu   sync.Mutex
	st   Status
	etag string
}

// New returns a follower tailing leaderURL into dir, swapping db (may
// be nil for a mirror-only follower) after each committed generation.
// If dir already holds a committed manifest — a restart — the follower
// resumes from its generation instead of refetching, and the caller is
// expected to have restored db from it. Orphaned .tmp download files
// left by a fetch that crashed mid-cycle are reaped immediately: the
// post-commit reap of step 6 only runs on changed-generation cycles,
// so without this a crashed download against an idle leader would sit
// in the replica dir forever.
func New(leaderURL, dir string, db *tsdb.DB, opts Options) *Follower {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	f := &Follower{
		leader:   strings.TrimRight(leaderURL, "/"),
		dir:      dir,
		db:       db,
		client:   client,
		interval: interval,
		workers:  opts.Workers,
		lazy:     opts.Lazy,
		cacheB:   opts.CacheBytes,
		logf:     opts.Logf,
		pending:  map[string]bool{},
	}
	f.leaderShown = RedactURL(f.leader)
	f.st.Leader = f.leaderShown
	reapTempFiles(dir)
	if m, err := tsdb.LoadManifest(dir); err == nil {
		f.committed = m
		f.st.AppliedGeneration = m.Generation
		f.st.LeaderGeneration = m.Generation
	}
	return f
}

// RedactURL strips the userinfo component from a URL string, so
// credentials embedded in a leader or replica URL (https://user:pw@host)
// never reach logs, error strings or health responses. Strings that do
// not parse as URLs are returned unchanged.
func RedactURL(s string) string {
	u, err := url.Parse(s)
	if err != nil || u.User == nil {
		return s
	}
	u.User = nil
	return u.String()
}

// redact rewrites any occurrence of the raw leader URL in a message
// with its userinfo-stripped form. HTTP client errors embed the full
// request URL, so every error string that might carry credentials is
// passed through here before it is logged or stored in Status.
func (f *Follower) redact(msg string) string {
	if f.leader == f.leaderShown {
		return msg
	}
	return strings.ReplaceAll(msg, f.leader, f.leaderShown)
}

// reapTempFiles removes .tmp download leftovers from a replica dir.
// Best-effort: a .tmp file is by definition uncommitted (the rename
// into a committed name happens only after verification), so deleting
// one can never lose replicated data.
func reapTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // no dir yet — nothing to reap
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Status returns a snapshot of the follower's replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// Run tails the leader on the configured interval until ctx is
// cancelled, starting with an immediate cycle. Errors are recorded in
// Status (and logged via Options.Logf) and the loop keeps going — a
// follower outlives leader restarts and network blips.
func (f *Follower) Run(ctx context.Context) {
	t := time.NewTicker(f.interval)
	defer t.Stop()
	f.tailLogged(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.tailLogged(ctx)
		}
	}
}

// tailLogged runs one cycle and narrates it through Options.Logf.
func (f *Follower) tailLogged(ctx context.Context) {
	cs, err := f.TailOnce(ctx)
	if f.logf == nil {
		return
	}
	switch {
	case err != nil:
		f.logf("replication: tail failed: %s", f.redact(err.Error()))
	case cs.Unchanged:
		// Steady state: say nothing.
	default:
		f.logf("replication: applied generation %d (%d fetched, %d delta, %d fallback, %d reused, %d bytes)",
			cs.Generation, cs.SegmentsFetched, cs.DeltaSegments, cs.DeltaFallbacks, cs.SegmentsReused, cs.BytesFetched)
	}
}

// TailOnce runs one tail cycle: fetch the manifest; if its generation
// is new, fetch the missing segments (verifying each against its
// manifest entry), commit the manifest atomically, reap superseded
// local files, and hot-swap the attached store via RestoreDir. Any
// error leaves the local directory at its previously committed
// generation and the serving store untouched (docs/REPLICATION.md §4).
func (f *Follower) TailOnce(ctx context.Context) (CycleStats, error) {
	f.gate.Lock()
	defer f.gate.Unlock()
	cs, err := f.tail(ctx)

	f.mu.Lock()
	f.st.Cycles++
	if cs.Generation > f.st.LeaderGeneration {
		f.st.LeaderGeneration = cs.Generation
	}
	if err != nil {
		f.st.Failures++
		f.st.LastError = f.redact(err.Error())
	} else {
		f.st.LastError = ""
		f.st.LastSync = time.Now()
		if !cs.Unchanged {
			f.st.AppliedGeneration = cs.Generation
		}
		f.st.SegmentsFetched += uint64(cs.SegmentsFetched)
		f.st.BytesFetched += uint64(cs.BytesFetched)
		f.st.DeltaSegments += uint64(cs.DeltaSegments)
		f.st.DeltaFallbacks += uint64(cs.DeltaFallbacks)
	}
	f.mu.Unlock()
	return cs, err
}

// applied returns the last committed generation.
func (f *Follower) applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st.AppliedGeneration
}

// lastETag returns the manifest ETag of the last successful cycle.
func (f *Follower) lastETag() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.etag
}

// setETag records the manifest ETag after a successful cycle.
func (f *Follower) setETag(etag string) {
	f.mu.Lock()
	f.etag = etag
	f.mu.Unlock()
}

// tail is one cycle's work; TailOnce wraps it with status accounting.
func (f *Follower) tail(ctx context.Context) (CycleStats, error) {
	var cs CycleStats
	applied := f.applied()

	// 1. Fetch the manifest, conditionally: an unchanged leader costs
	// one 304 and the cycle is over.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leader+ManifestPath, nil)
	if err != nil {
		return cs, fmt.Errorf("replication: %w", err)
	}
	if etag := f.lastETag(); etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return cs, fmt.Errorf("replication: fetch manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		cs.Generation, cs.Unchanged = applied, true
		return cs, nil
	}
	if resp.StatusCode != http.StatusOK {
		return cs, fmt.Errorf("replication: fetch manifest: leader answered %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return cs, fmt.Errorf("replication: read manifest: %w", err)
	}
	m, err := tsdb.ParseManifest(data)
	if err != nil {
		return cs, fmt.Errorf("replication: leader manifest: %w", err)
	}
	cs.Generation = m.Generation

	// 2. Generation checks: equal means nothing to do; lower is a
	// regression — a leader serving an older directory than the one we
	// committed — and is refused loudly rather than rolled back
	// (docs/REPLICATION.md §5).
	if m.Generation == applied {
		cs.Unchanged = true
		f.setETag(resp.Header.Get("ETag"))
		return cs, nil
	}
	if m.Generation < applied {
		return cs, fmt.Errorf("replication: leader generation %d regressed below applied generation %d — refusing to roll back",
			m.Generation, applied)
	}

	// 3. Plan transfers from the committed manifest, not from the disk:
	// an entry it lists unchanged is reused unread — the
	// incremental-snapshot property, across the wire. Only a file no
	// committed manifest vouches for (a download of an interrupted
	// cycle), and every file in the first cycle after New, is read and
	// verified before it is reused.
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return cs, fmt.Errorf("replication: %w", err)
	}
	held := map[string]tsdb.SegmentMeta{}
	prevFiles := map[identity]string{} // committed file of each identity
	if f.committed != nil {
		for _, sm := range f.committed.Segments {
			held[sm.File] = sm
			prevFiles[segmentIdentity(sm)] = sm.File
		}
	}
	var toFetch []tsdb.SegmentMeta
	for _, sm := range m.Segments {
		if f.swept && held[sm.File] == sm {
			cs.SegmentsReused++
			continue
		}
		if (!f.swept || f.pending[sm.File]) && tsdb.VerifySegmentFile(filepath.Join(f.dir, sm.File), sm) == nil {
			cs.SegmentsReused++
			continue
		}
		toFetch = append(toFetch, sm)
	}

	// 4. Fetch the rest concurrently; every download is verified in
	// memory against its manifest entry before it is written and renamed
	// into place. An entry with an append cursor whose (shard, window
	// span) the committed generation holds is a delta-splice candidate
	// (docs/REPLICATION.md §8): it tries the splice first and falls back
	// to the whole segment on any failure — the fallback is load-bearing,
	// not an edge case: it is what makes a wrong prefix guess merely slow.
	// A verified download is written on its own goroutine while the next
	// one transfers, so a segment's create → write → fsync → rename
	// overlaps the next segment's round trip; at most as many installs
	// as downloads are in flight, and all have finished before the
	// commit or the error return.
	var counts fetchCounts
	pool := pipeline.NewPool(f.workers)
	defer pool.Close()
	var installing sync.WaitGroup
	slots := make(chan struct{}, pool.Workers())
	installErrs := make([]error, len(toFetch))
	installed := make([]bool, len(toFetch))
	jobs := make([]func() error, len(toFetch))
	for i, sm := range toFetch {
		jobs[i] = func() error {
			full, kind, err := f.fetch(ctx, sm, prevFiles[segmentIdentity(sm)], &counts)
			if err != nil {
				return err
			}
			slots <- struct{}{}
			installing.Add(1)
			go func() {
				defer installing.Done()
				installErrs[i] = f.install(sm, kind, full)
				installed[i] = installErrs[i] == nil
				<-slots
			}()
			return nil
		}
	}
	err = pool.DoErr(jobs...)
	installing.Wait()
	for i, ok := range installed {
		if ok {
			f.pending[toFetch[i].File] = true
		}
	}
	for _, ierr := range installErrs {
		if err == nil {
			err = ierr
		}
	}
	if err != nil {
		return cs, err
	}
	cs.SegmentsFetched = len(toFetch)
	cs.BytesFetched = counts.bytes.Load()
	cs.DeltaSegments = int(counts.deltas.Load())
	cs.DeltaFallbacks = int(counts.fallbacks.Load())

	// 5. Commit: rename the leader's exact manifest bytes into place.
	// Before this line the directory still restores to the previous
	// generation; after it, to the new one (docs/PERSISTENCE.md §4).
	if _, err := tsdb.CommitManifest(f.dir, data); err != nil {
		return cs, fmt.Errorf("replication: %w", err)
	}

	// 6. Reap what the commit superseded, mirroring the leader's
	// post-commit deletion: the previous generation's files the new one
	// no longer lists, and downloads of interrupted cycles it does not
	// list either. The first cycle after New cannot know what an earlier
	// process left behind, so it lists the directory instead and also
	// reaps stray temp files. Best-effort — a leftover is reaped by the
	// next first cycle.
	listed := make(map[string]bool, len(m.Segments))
	for _, sm := range m.Segments {
		listed[sm.File] = true
	}
	remove := func(name string) {
		if os.Remove(filepath.Join(f.dir, name)) == nil {
			cs.Removed++
		}
	}
	if f.swept {
		for name := range held {
			if !listed[name] {
				remove(name)
			}
		}
		for name := range f.pending {
			if !listed[name] {
				remove(name)
			}
		}
	} else if entries, err := os.ReadDir(f.dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if strings.HasSuffix(name, ".tmp") || (strings.HasSuffix(name, ".seg") && !listed[name]) {
				remove(name)
			}
		}
	}
	f.committed, f.swept = m, true
	clear(f.pending)

	// 7. Hot-swap the serving store. RestoreDir cross-checks the new
	// generation before mutating the store, so a failure here — a bug,
	// not an expected mode, since every file was just verified — leaves
	// the old data serving. In lazy mode the swap maps only the files
	// this cycle fetched, and when the generation only appended it
	// extends the held series in place and keeps the store epoch
	// (docs/PERSISTENCE.md §9.3).
	if f.db != nil {
		if err := f.db.RestoreDir(f.dir, tsdb.DirOptions{Workers: f.workers, Lazy: f.lazy, BlockCacheBytes: f.cacheB}); err != nil {
			return cs, fmt.Errorf("replication: restore committed generation %d: %w", m.Generation, err)
		}
	}
	f.setETag(resp.Header.Get("ETag"))
	return cs, nil
}

// identity keys a manifest entry by what survives generations: shard
// and window span. Two entries with equal identity describe the same
// logical data at different generations.
type identity struct {
	shard      int
	start, end int64
}

func segmentIdentity(sm tsdb.SegmentMeta) identity {
	return identity{sm.Shard, sm.WindowStart, sm.WindowEnd}
}

// fetchCounts accumulates one cycle's transfer counters across its
// concurrent fetches.
type fetchCounts struct {
	bytes, deltas, fallbacks atomic.Int64
}

// fetch downloads one manifest entry and verifies it in memory: as a
// delta splice onto prevFile, the committed file of the same (shard,
// window span), when the entry carries an append cursor
// (docs/REPLICATION.md §8), and whole otherwise or when the splice
// fails. It returns the verified file bytes and how they were obtained
// ("spliced", "fetched").
func (f *Follower) fetch(ctx context.Context, sm tsdb.SegmentMeta, prevFile string, c *fetchCounts) ([]byte, string, error) {
	if prevFile != "" && sm.AppendCursor > 0 && prevFile != sm.File {
		full, n, err := f.fetchDelta(ctx, sm, prevFile)
		c.bytes.Add(n)
		if err == nil {
			c.deltas.Add(1)
			return full, "spliced", nil
		}
		c.fallbacks.Add(1)
		if f.logf != nil {
			f.logf("replication: delta fetch %s failed (%s), falling back to whole segment", sm.File, f.redact(err.Error()))
		}
	}
	full, n, err := f.fetchSegment(ctx, sm)
	c.bytes.Add(n)
	return full, "fetched", err
}

// fetchDelta satisfies one manifest entry by splicing a shipped payload
// tail onto the local predecessor file (docs/REPLICATION.md §8): open
// and self-verify the local base, request the tail from the offset the
// base dictates, then assemble and CRC-verify the full segment in
// memory. It returns the verified file bytes and the bytes read off the
// wire; any error makes the caller fall back to fetchSegment.
func (f *Follower) fetchDelta(ctx context.Context, sm tsdb.SegmentMeta, prevFile string) ([]byte, int64, error) {
	base, err := tsdb.OpenDeltaBase(filepath.Join(f.dir, prevFile), sm)
	if err != nil {
		return nil, 0, err
	}
	u := f.leader + DeltaPathPrefix + sm.File + "?from=" + strconv.FormatInt(base.From, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("replication: delta %s: leader answered %s", sm.File, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	n := int64(len(data))
	if err != nil {
		return nil, n, err
	}
	from, hdr, tail, err := decodeDeltaFrame(data)
	if err != nil {
		return nil, n, err
	}
	if from != base.From {
		return nil, n, fmt.Errorf("replication: delta %s: leader cut at %d, asked for %d", sm.File, from, base.From)
	}
	full, err := tsdb.AssembleDelta(sm, base, hdr, tail)
	return full, n, err
}

// fetchSegment downloads one segment and verifies it against its
// manifest entry (header fields + CRC-32C) from the bytes in hand. It
// returns the verified file bytes and the bytes read off the wire.
func (f *Follower) fetchSegment(ctx context.Context, sm tsdb.SegmentMeta) ([]byte, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leader+SegmentPathPrefix+sm.File, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("replication: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("replication: fetch segment %s: %w", sm.File, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("replication: fetch segment %s: leader answered %s", sm.File, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	n := int64(len(data))
	if err != nil {
		return nil, n, fmt.Errorf("replication: fetch segment %s: %w", sm.File, err)
	}
	hdr, payload := data, []byte(nil)
	if len(data) >= tsdb.SegmentHeaderSize {
		hdr, payload = data[:tsdb.SegmentHeaderSize], data[tsdb.SegmentHeaderSize:]
	}
	full, err := tsdb.AssembleDelta(sm, nil, hdr, payload)
	if err != nil {
		return nil, n, fmt.Errorf("replication: fetched segment rejected: %w", err)
	}
	return full, n, nil
}

// install writes one verified segment file to a temp file, fsyncs it
// and renames it into place; kind ("fetched", "spliced") names the
// source in errors. The bytes were verified against the manifest entry
// before they got here and are written once, never read back. Any
// failure deletes the temp file — nothing carries a committed name
// before it is complete and durable.
func (f *Follower) install(sm tsdb.SegmentMeta, kind string, full []byte) error {
	tmp := filepath.Join(f.dir, sm.File+".tmp")
	file, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	_, err = file.Write(full)
	if err == nil {
		// Durable before the rename, like the leader's own segment
		// writes (docs/PERSISTENCE.md §4).
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("replication: write %s segment %s: %w", kind, sm.File, err)
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, sm.File)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("replication: %w", err)
	}
	return nil
}
