package tsdb_test

// Crash-point enumeration of the segment-directory commit path
// (docs/PERSISTENCE.md §4). Every writer — SnapshotDir in each of its
// modes, DB.Compact, and a replication follower's TailOnce — runs once
// through the fault seam to count its file-system operations, then once
// per operation with that operation failed. In kill mode every later
// operation fails too, as if the process had died there; in error mode
// only that one fails while the file system stays alive. Each time the
// directory must restore to exactly the old generation before the manifest rename and the new one from the rename
// on, and the next writer — the same process, or a restarted one after
// a kill — must converge on a directory holding exactly its manifest's
// files.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// errInjected is the fault the seam injects.
var errInjected = errors.New("injected file-system fault")

// seam records the commit-path operations under one directory, as
// "op name" with the directory itself named ".", and fails the chosen
// one.
type seam struct {
	dir  string
	fail int  // 1-based index of the operation to fail; 0 fails none
	kill bool // fail every operation from fail on
	mu   sync.Mutex
	ops  []string
}

func (s *seam) hook(op, path string) error {
	name := "."
	switch {
	case path == s.dir:
	case strings.HasPrefix(path, s.dir+string(filepath.Separator)):
		name = filepath.Base(path)
	default:
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = append(s.ops, op+" "+name)
	if n := len(s.ops); s.fail > 0 && (n == s.fail || s.kill && n > s.fail) {
		return errInjected
	}
	return nil
}

// runThrough runs w's pass with s as the fault seam.
func runThrough(s *seam, w *writer) error {
	defer tsdb.SetFSHook(s.hook)()
	return w.run()
}

// writer is one writer under test, set up over a directory that holds
// the old committed generation (or nothing, for a first write).
type writer struct {
	dir string
	// run is one pass of the writer; error mode runs it again to
	// converge.
	run func() error
	// want is the digest the directory holds after a successful pass.
	want func() uint64
	// served is a follower's serving store; nil for a leader, whose
	// store is the source.
	served *tsdb.DB
	// cycle is a follower's last tail cycle.
	cycle *replication.CycleStats
	// restart builds a fresh process over dir, as after a kill.
	restart func(t *testing.T) *writer
}

// base anchors the fixtures; step is the probing round's cadence.
var base = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

const step = 10 * time.Minute

// probe writes one point per series for every round in [from, to):
// three links, both sides.
func probe(db *tsdb.DB, from, to time.Time) {
	for at := from; at.Before(to); at = at.Add(step) {
		for l := 0; l < 3; l++ {
			for _, side := range []string{"far", "near"} {
				tags := map[string]string{"link": fmt.Sprintf("l%d", l), "side": side}
				db.Write("tslp", tags, at, float64(at.Minute()+l))
			}
		}
	}
}

// leaderStore returns a store with hourly segment windows holding span
// of probing rounds.
func leaderStore(span time.Duration) *tsdb.DB {
	db := tsdb.Open()
	db.SetSegmentWindow(time.Hour)
	probe(db, base, base.Add(span))
	return db
}

// snapshot returns a pass that snapshots a store into dir.
func snapshot(incremental bool) func(*tsdb.DB, string) error {
	return func(db *tsdb.DB, dir string) error {
		_, err := db.SnapshotDir(dir, tsdb.DirOptions{Workers: 1, Incremental: incremental})
		return err
	}
}

// compact merges every window older than three hours.
func compact(db *tsdb.DB, dir string) error {
	_, err := db.Compact(dir, tsdb.CompactOptions{ColdBefore: base.Add(3 * time.Hour), MaxWindows: 3, Workers: 1})
	return err
}

// hasManifest reports whether dir holds a committed manifest.
func hasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, tsdb.ManifestName))
	return err == nil
}

// reopen returns a store restored from dir — empty when dir has no
// manifest yet — the way a restarted process opens its data.
func reopen(t *testing.T, dir string) *tsdb.DB {
	t.Helper()
	db := tsdb.Open()
	t.Cleanup(db.Close)
	if hasManifest(dir) {
		if err := db.RestoreDir(dir, tsdb.DirOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// leaderWriter is a store writing into dir with pass.
func leaderWriter(db *tsdb.DB, dir string, pass func(*tsdb.DB, string) error) *writer {
	return &writer{
		dir:  dir,
		run:  func() error { return pass(db, dir) },
		want: db.Digest,
		restart: func(t *testing.T) *writer {
			return leaderWriter(reopen(t, dir), dir, pass)
		},
	}
}

// leaderScenario builds a store of span, snapshots it into a fresh
// directory unless first is set, applies mutate, and hands pass the
// result.
func leaderScenario(span time.Duration, first bool, mutate func(*tsdb.DB), pass func(*tsdb.DB, string) error) func(t *testing.T) *writer {
	return func(t *testing.T) *writer {
		db, dir := leaderStore(span), t.TempDir()
		if !first {
			if err := snapshot(true)(db, dir); err != nil {
				t.Fatal(err)
			}
		}
		if mutate != nil {
			mutate(db)
		}
		return leaderWriter(db, dir, pass)
	}
}

// followerOptions tail with one worker, so operations come in a fixed
// order.
var followerOptions = replication.Options{Workers: 1}

// followerWriter is a follower of the leader at url tailing into dir and
// serving fdb.
func followerWriter(url, dir string, leader, fdb *tsdb.DB) *writer {
	f := replication.New(url, dir, fdb, followerOptions)
	w := &writer{dir: dir, want: leader.Digest, served: fdb, cycle: new(replication.CycleStats)}
	w.run = func() (err error) {
		*w.cycle, err = f.TailOnce(context.Background())
		return err
	}
	w.restart = func(t *testing.T) *writer {
		return followerWriter(url, dir, leader, reopen(t, dir))
	}
	return w
}

// followerScenario serves a leader store of span, snapshotted, to a
// follower that has synced it unless first is set; then advance moves
// the leader to its next generation.
func followerScenario(span time.Duration, first bool, advance func(*tsdb.DB, string) error) func(t *testing.T) *writer {
	return func(t *testing.T) *writer {
		leader, ldir := leaderStore(span), t.TempDir()
		if err := snapshot(true)(leader, ldir); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(replication.NewExporter(ldir))
		t.Cleanup(ts.Close)
		fdb := tsdb.Open()
		t.Cleanup(fdb.Close)
		w := followerWriter(ts.URL, t.TempDir(), leader, fdb)
		if !first {
			if err := w.run(); err != nil {
				t.Fatal(err)
			}
		}
		if advance != nil {
			if err := advance(leader, ldir); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
}

// appendRound is the churn workload's round: one point per series into
// the newest window, snapshotted incrementally.
func appendRound(db *tsdb.DB, dir string) error {
	_, last, _ := db.TimeBounds("tslp", nil)
	probe(db, last.Add(step), last.Add(2*step))
	return snapshot(true)(db, dir)
}

// grow adds a new window and backfills an old one.
func grow(db *tsdb.DB) {
	probe(db, base.Add(3*time.Hour), base.Add(4*time.Hour))
	db.Write("tslp", map[string]string{"link": "l0", "side": "far"}, base.Add(5*time.Minute), 1)
}

// crashScenario names a writer and how to set it up.
type crashScenario struct {
	name  string
	setup func(t *testing.T) *writer
}

// crashScenarios lists every writer the enumeration covers.
var crashScenarios = []crashScenario{
	{"snapshot-fresh", leaderScenario(3*time.Hour, true, nil, snapshot(false))},
	{"snapshot-full", leaderScenario(3*time.Hour, false, grow, snapshot(false))},
	{"snapshot-incremental", leaderScenario(3*time.Hour, false, grow, snapshot(true))},
	{"snapshot-append-extend", leaderScenario(150*time.Minute, false, func(db *tsdb.DB) {
		probe(db, base.Add(150*time.Minute), base.Add(160*time.Minute))
	}, snapshot(true))},
	{"snapshot-after-retain", leaderScenario(3*time.Hour, false, func(db *tsdb.DB) {
		db.Retain(base.Add(70*time.Minute), base.AddDate(1, 0, 0))
	}, snapshot(true))},
	{"compact", leaderScenario(4*time.Hour, false, nil, compact)},
	{"follower-initial", followerScenario(3*time.Hour, true, nil)},
	{"follower-delta", followerScenario(150*time.Minute, false, appendRound)},
	{"follower-after-compact", followerScenario(4*time.Hour, false, compact)},
}

// committed restores dir and returns its digest and generation;
// without a manifest the restore must fail as not found, and committed
// returns zeros.
func committed(t *testing.T, dir string) (digest, gen uint64) {
	t.Helper()
	db := tsdb.Open()
	defer db.Close()
	err := db.RestoreDir(dir, tsdb.DirOptions{Workers: 1})
	switch {
	case !hasManifest(dir):
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("directory without a manifest: restore gave %v", err)
		}
	case err != nil:
		t.Fatalf("restore: %v", err)
	default:
		digest, gen = db.Digest(), db.SnapshotGeneration()
	}
	return digest, gen
}

// exactFiles fails unless dir holds exactly its manifest and the files
// the manifest lists.
func exactFiles(t *testing.T, dir string) {
	t.Helper()
	m, err := tsdb.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{tsdb.ManifestName}
	for _, sm := range m.Segments {
		want = append(want, sm.File)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, manifest lists %v", got, want)
	}
}

// enumerate fails every operation of every scenario's writer in turn.
func enumerate(t *testing.T, kill bool) {
	for _, sc := range crashScenarios {
		t.Run(sc.name, func(t *testing.T) {
			w := sc.setup(t)
			oldDigest, oldGen := committed(t, w.dir)
			count := &seam{dir: w.dir}
			if err := runThrough(count, w); err != nil {
				t.Fatal(err)
			}
			newDigest, newGen := committed(t, w.dir)
			if newDigest != w.want() || newGen <= oldGen {
				t.Fatalf("fault-free pass committed (%x, g%d), want (%x, > g%d)", newDigest, newGen, w.want(), oldGen)
			}
			ops := count.ops
			// The operation that renames the manifest into place is the
			// commit point: failing it or anything before it keeps the
			// old generation.
			commit := slices.Index(ops, "rename "+tsdb.ManifestName+".tmp") + 1
			if commit == 0 {
				t.Fatalf("no manifest rename among %v", ops)
			}

			for k := 1; k <= len(ops); k++ {
				at := fmt.Sprintf("fail op %d/%d (%s)", k, len(ops), ops[k-1])
				w := sc.setup(t)
				var served uint64
				if w.served != nil {
					served = w.served.Digest()
				}
				s := &seam{dir: w.dir, fail: k, kill: kill}
				if err := runThrough(s, w); !errors.Is(err, errInjected) {
					t.Fatalf("%s: writer returned %v, want the injected fault", at, err)
				}
				if !slices.Equal(s.ops[:k], ops[:k]) {
					t.Fatalf("%s: operations %v diverged from the fault-free pass %v", at, s.ops[:k], ops[:k])
				}
				if !kill {
					if tmps, _ := filepath.Glob(filepath.Join(w.dir, "*.tmp")); len(tmps) > 0 {
						t.Fatalf("%s: temp files left behind: %v", at, tmps)
					}
				}
				wantDigest, wantGen := oldDigest, oldGen
				if k > commit {
					wantDigest, wantGen = newDigest, newGen
				}
				if d, g := committed(t, w.dir); d != wantDigest || g != wantGen {
					t.Fatalf("%s: directory restores to (%x, g%d), want (%x, g%d)", at, d, g, wantDigest, wantGen)
				}
				if w.served != nil && w.served.Digest() != served {
					t.Fatalf("%s: the failed pass moved the serving store", at)
				}

				next := w
				if kill {
					next = w.restart(t)
				}
				if err := next.run(); err != nil {
					t.Fatalf("%s: next pass: %v", at, err)
				}
				if d, _ := committed(t, w.dir); d != next.want() {
					t.Fatalf("%s: next pass left a directory restoring to %x, want %x", at, d, next.want())
				}
				if next.served != nil && next.served.Digest() != next.want() {
					t.Fatalf("%s: next pass serves %x, want %x", at, next.served.Digest(), next.want())
				}
				exactFiles(t, w.dir)
			}
		})
	}
}

// TestCommitPathKillPoints stops every writer at each of its
// file-system operations as a crash would: nothing after it happens.
func TestCommitPathKillPoints(t *testing.T) { enumerate(t, true) }

// TestCommitPathFailedOps fails each operation once and lets the writer
// carry on: it must return the error, leave no temp file, and converge
// on its next call.
func TestCommitPathFailedOps(t *testing.T) { enumerate(t, false) }

// TestCommitPathChurnRound pins the operations of the churn workload's
// round — one point per series into the newest window — on the leader
// and on a follower: per file create, write, fsync, close, rename; per
// commit two directory fsyncs around the manifest's; then the removes.
// A stray fsync, listing or write here is paid every round.
func TestCommitPathChurnRound(t *testing.T) {
	durable := func(name string) []string {
		return []string{"create " + name + ".tmp", "write " + name + ".tmp", "sync " + name + ".tmp", "close " + name + ".tmp", "rename " + name + ".tmp"}
	}
	win := base.Add(2 * time.Hour).UnixNano()
	seg := func(gen int) string { return fmt.Sprintf("seg-%d-g%d.seg", win, gen) }
	round := slices.Concat(
		durable(seg(2)),
		[]string{"syncdir ."}, durable(tsdb.ManifestName), []string{"syncdir ."},
		[]string{"remove " + seg(1)},
	)
	for _, tc := range []struct {
		scenario string
		want     []string
	}{
		{"snapshot-append-extend", slices.Concat([]string{"mkdir .", "readdir ."}, round)},
		{"follower-delta", round},
	} {
		i := slices.IndexFunc(crashScenarios, func(sc crashScenario) bool { return sc.name == tc.scenario })
		w := crashScenarios[i].setup(t)
		var epoch uint64
		if w.served != nil {
			epoch = w.served.Epoch()
		}
		s := &seam{dir: w.dir}
		if err := runThrough(s, w); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.ops, tc.want) {
			t.Fatalf("%s: operations\n%s\nwant\n%s", tc.scenario, strings.Join(s.ops, "\n"), strings.Join(tc.want, "\n"))
		}
		// The follower's round is the steady state the ops describe: one
		// delta splice, swapped in place.
		if w.served != nil && (w.cycle.DeltaSegments != 1 || w.served.Epoch() != epoch) {
			t.Fatalf("%s: cycle %+v moved the epoch %d -> %d; want one delta swapped in place", tc.scenario, *w.cycle, epoch, w.served.Epoch())
		}
	}
}
