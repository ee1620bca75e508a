package replication_test

// Replication against compaction (docs/PERSISTENCE.md §8): a
// compacted leader directory — merged multi-window segments —
// replicates through the unchanged wire
// protocol, and orphaned .tmp download files are reaped at follower
// startup rather than accumulating forever.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// TestFollowerConvergesOnCompactedLeader: the leader compacts its
// directory between cycles; the follower fetches the merged segments
// through the same manifest/segment endpoints and converges
// digest-equal — the wire protocol never learns about spans or levels
// (docs/REPLICATION.md, wire-format note).
func TestFollowerConvergesOnCompactedLeader(t *testing.T) {
	lf := newLeader(t)
	lf.db.SetSegmentWindow(24 * time.Hour)
	for day := 1; day < 6; day++ {
		lf.advance(t, day)
	}

	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(lf.ts.URL, fdir, fdb, replication.Options{})
	if _, err := f.TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatal("follower diverged before compaction")
	}

	// Compact the leader in place: fewer, wider, level-1 segments, same
	// content, bumped generation.
	cs, err := lf.db.Compact(lf.dir, tsdb.CompactOptions{
		ColdBefore: epoch.AddDate(0, 0, 10),
		MaxWindows: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Merged == 0 {
		t.Fatalf("leader compaction merged nothing: %+v", cs)
	}

	tail, err := f.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tail.Unchanged || tail.SegmentsFetched == 0 {
		t.Fatalf("follower did not fetch the merged segments: %+v", tail)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatal("follower diverged after leader compaction")
	}
	if got := fdb.SnapshotGeneration(); got != cs.Generation {
		t.Fatalf("follower applied generation %d, want %d", got, cs.Generation)
	}
	info, err := tsdb.ReadDirInfo(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxLevel == 0 {
		t.Fatalf("no compacted segment reached the follower: %+v", info)
	}
}

// TestFollowerStartupReapsTempFiles: .tmp files left by a fetch that
// crashed mid-download are removed when the follower is constructed —
// the post-commit reap only runs on changed-generation cycles, so
// against an idle leader they would otherwise live forever.
func TestFollowerStartupReapsTempFiles(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	fdb := tsdb.Open()
	if _, err := replication.New(lf.ts.URL, fdir, fdb, replication.Options{}).TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-fetch: an orphaned download temp file.
	orphan := filepath.Join(fdir, "seg-0-g99.seg.tmp")
	if err := os.WriteFile(orphan, []byte("half a download"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: construction alone reaps the orphan, before any cycle.
	restarted := tsdb.Open()
	if err := restarted.RestoreDir(fdir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	f := replication.New(lf.ts.URL, fdir, restarted, replication.Options{})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned .tmp survived follower startup: %v", err)
	}

	// The idle steady state stays clean and correct.
	cs, err := f.TailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Unchanged {
		t.Fatalf("restart against an idle leader refetched: %+v", cs)
	}
	if restarted.Digest() != lf.db.Digest() {
		t.Fatal("restarted follower diverged")
	}
}
