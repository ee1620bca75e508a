package replication_test

// Differential tests of the follower's in-place apply (docs/REPLICATION.md
// §3, docs/PERSISTENCE.md §9.3): a lazy follower swapped by appending
// to its held series must serve exactly what a fresh eager restore of
// its directory serves, keep the store epoch only when the generation
// really was an append, move a series' ViewStamp only when its points
// moved, and keep an incremental detector on its views both exact and
// incremental.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/netsim"
	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// faults wraps an exporter and injects the transfer failures a tail
// cycle must survive: mode "corrupt-delta" flips the last byte of every
// delta frame, "fail-after-one" answers 500 to every segment or delta
// request after the first.
type faults struct {
	inner   http.Handler
	mode    atomic.Value // string
	fetches atomic.Int64
}

func (fh *faults) set(mode string) {
	fh.fetches.Store(0)
	fh.mode.Store(mode)
}

func (fh *faults) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := fh.mode.Load().(string)
	fetch := strings.HasPrefix(r.URL.Path, replication.SegmentPathPrefix) || strings.HasPrefix(r.URL.Path, replication.DeltaPathPrefix)
	switch {
	case mode == "fail-after-one" && fetch && fh.fetches.Add(1) > 1:
		http.Error(w, "injected failure", http.StatusInternalServerError)
	case mode == "corrupt-delta" && strings.HasPrefix(r.URL.Path, replication.DeltaPathPrefix):
		rec := httptest.NewRecorder()
		fh.inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if len(body) > 0 {
			body[len(body)-1] ^= 0x01
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	default:
		fh.inner.ServeHTTP(w, r)
	}
}

// identityKey is a manifest entry's (shard, window span).
func identityKey(sm tsdb.SegmentMeta) [3]int64 {
	return [3]int64{int64(sm.Shard), sm.WindowStart, sm.WindowEnd}
}

// appendOnly restates the in-place rule over two manifests: every entry
// of next is an unchanged entry of prev, a cursor-carrying successor of
// exactly one, or a window after every window prev holds in its shard,
// and every entry of prev is accounted for.
func appendOnly(prev, next *tsdb.Manifest) bool {
	held := map[string]tsdb.SegmentMeta{}
	byIdentity := map[[3]int64]string{}
	lastEnd := map[int]int64{}
	for _, sm := range prev.Segments {
		held[sm.File] = sm
		byIdentity[identityKey(sm)] = sm.File
		if end, ok := lastEnd[sm.Shard]; !ok || sm.WindowEnd > end {
			lastEnd[sm.Shard] = sm.WindowEnd
		}
	}
	used := map[string]bool{}
	for _, sm := range next.Segments {
		if h, ok := held[sm.File]; ok {
			if h != sm || used[sm.File] {
				return false
			}
			used[sm.File] = true
			continue
		}
		if p, ok := byIdentity[identityKey(sm)]; ok {
			if sm.AppendCursor <= 0 || used[p] {
				return false
			}
			used[p] = true
			continue
		}
		if end, ok := lastEnd[sm.Shard]; ok && sm.WindowStart < end {
			return false
		}
	}
	return len(used) == len(prev.Segments)
}

// seriesState is what one series looked like on the follower: its
// ViewStamp and a rendering of its points.
type seriesState struct {
	stamp  uint64
	points string
}

// everything is a time range holding every point the tests write.
var everything = [2]time.Time{time.Unix(0, 0), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)}

// snapshotSeries records every series' state.
func snapshotSeries(db *tsdb.DB) map[string]seriesState {
	out := map[string]seriesState{}
	for _, v := range db.QueryView("tslp", nil, everything[0], everything[1]) {
		out[tsdb.Key(v.Measurement, v.Tags)] = seriesState{
			stamp:  db.ViewStamp(v.Measurement, v.Tags),
			points: fmt.Sprint(v.Times, v.Values),
		}
	}
	return out
}

// sameViews reports whether two view sets hold the same series with the
// same points, versions aside.
func sameViews(a, b []tsdb.SeriesView) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Measurement != b[i].Measurement || !reflect.DeepEqual(a[i].Tags, b[i].Tags) ||
			!reflect.DeepEqual(a[i].Times, b[i].Times) || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if math.Float64bits(a[i].Values[j]) != math.Float64bits(b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

// TestFollowerInPlaceSwapMatchesRestore drives a leader through random
// cycles of appends, new series, new windows, out-of-order backfill,
// retention, compaction, a corrupt delta and a failed fetch, tails a
// lazy follower after each, and holds the follower to a fresh eager
// restore of its own directory and to batch detection.
func TestFollowerInPlaceSwapMatchesRestore(t *testing.T) {
	const cadence = 10 * time.Minute
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	cfg := analysis.AutocorrConfig{WindowDays: 4, BinsPerDay: 24, ThresholdMs: 7, MinPeakDays: 2, SufficientFrac: 0.5, MinDayCoverage: 0.3}
	bin := 24 * time.Hour / time.Duration(cfg.BinsPerDay)
	bins := cfg.WindowDays * cfg.BinsPerDay
	end := start.Add(time.Duration(bins) * bin)

	rng := netsim.NewRNG(30)
	leader := tsdb.Open()
	leader.SetSegmentWindow(time.Hour)
	dir := t.TempDir()
	links := []string{"l0", "l1", "l2"}
	tags := func(link, side string) map[string]string {
		return map[string]string{"link": link, "side": side, "vp": "vp-a"}
	}
	value := func(side string, at time.Time) float64 {
		v := 40 + 5*rng.Float64()
		if h := at.Hour(); side == "far" && h >= 18 && h < 22 {
			v += 30
		}
		return v
	}
	next := start
	appendSteps := func(k int) {
		for ; k > 0; k-- {
			for _, l := range links {
				for _, side := range []string{"far", "near"} {
					leader.Write("tslp", tags(l, side), next, value(side, next))
				}
			}
			next = next.Add(cadence)
		}
	}
	snapshot := func() {
		t.Helper()
		if _, err := leader.SnapshotDir(dir, tsdb.DirOptions{Incremental: true}); err != nil {
			t.Fatal(err)
		}
	}
	appendSteps(18)
	snapshot()

	fh := &faults{inner: replication.NewExporter(dir)}
	fh.set("")
	ts := httptest.NewServer(fh)
	defer ts.Close()
	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(ts.URL, fdir, fdb, replication.Options{Lazy: true, Workers: 1})
	if _, err := f.TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	incs := map[string]*analysis.Incremental{}
	// detect advances every link's accumulator on the follower's views,
	// checks it against batch Autocorrelation over the same views, and
	// reports the links whose advance was a full recompute.
	detect := func() map[string]bool {
		t.Helper()
		full := map[string]bool{}
		for _, l := range links {
			inc, ok := incs[l]
			if !ok {
				inc = analysis.NewIncremental(start, cfg)
				incs[l] = inc
			}
			far := fdb.QueryView("tslp", map[string]string{"link": l, "side": "far"}, start, end)
			near := fdb.QueryView("tslp", map[string]string{"link": l, "side": "near"}, start, end)
			got, info := inc.Advance(fdb.Epoch(), far, near)
			fb, nb := analysis.NewBinSeries(start, bin, bins), analysis.NewBinSeries(start, bin, bins)
			for _, v := range far {
				for i, ns := range v.Times {
					fb.ObserveNanos(ns, v.Values[i])
				}
			}
			for _, v := range near {
				for i, ns := range v.Times {
					nb.ObserveNanos(ns, v.Values[i])
				}
			}
			want, err := analysis.Autocorrelation(fb, nb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *want); g != w {
				t.Fatalf("link %s: incremental result diverged from batch (full=%v)\n got %s\nwant %s", l, info.Full, g, w)
			}
			full[l] = info.Full
		}
		return full
	}
	detect()

	var inPlace, rebuilt, incremental, lateInPlace int
	seen := map[string]int{}
	for cycle := 0; cycle < 200; cycle++ {
		action := "none"
		switch p := rng.Float64(); {
		case p < 0.40:
			action = "append"
			appendSteps(1 + rng.Intn(3))
		case p < 0.47:
			action = "new-series"
			links = append(links, fmt.Sprintf("l%d", len(links)))
			appendSteps(1)
		case p < 0.57:
			action = "backfill"
			hours := int(next.Sub(start) / time.Hour)
			at := start.Add(time.Duration(rng.Intn(hours-1))*time.Hour + cadence/2)
			leader.Write("tslp", tags(links[rng.Intn(len(links))], "far"), at, value("far", at))
		case p < 0.64:
			action = "retain"
			first, _, _ := leader.TimeBounds("tslp", nil)
			if next.Sub(first) < 4*time.Hour {
				action = "none"
				break
			}
			cut := first.Add(time.Hour + cadence)
			leader.Retain(cut, everything[1])
			if _, _, err := tsdb.RetainDir(dir, cut); err != nil {
				t.Fatal(err)
			}
		case p < 0.71:
			action = "compact"
			if _, err := leader.Compact(dir, tsdb.CompactOptions{ColdBefore: next.Add(-2 * time.Hour), MaxWindows: 3}); err != nil {
				t.Fatal(err)
			}
		case p < 0.78:
			action = "corrupt-delta"
			appendSteps(1 + rng.Intn(2))
			fh.set(action)
		case p < 0.85:
			action = "failed-fetch"
			appendSteps(1)
			fh.set("fail-after-one")
		case p < 0.92:
			// A point after a series' last one in an older window: the
			// leader append-extends that window, so the follower splices
			// blocks into the middle of the series' refs.
			action = "late-point"
			hours := int(next.Sub(start) / time.Hour)
			at := start.Add(time.Duration(rng.Intn(hours-1))*time.Hour + 5*cadence + time.Duration(1+rng.Intn(9))*time.Minute)
			leader.Write("tslp", tags(links[rng.Intn(len(links))], "near"), at, value("near", at))
		}
		switch action {
		case "append", "new-series", "backfill", "retain", "corrupt-delta", "failed-fetch", "late-point":
			// After RetainDir the store's snapshot bookkeeping no longer
			// matches the directory, so its snapshot is a full rewrite.
			snapshot()
		}
		seen[action]++

		prevM, err := tsdb.LoadManifest(fdir)
		if err != nil {
			t.Fatal(err)
		}
		epochBefore, genBefore, digestBefore := fdb.Epoch(), fdb.SnapshotGeneration(), fdb.Digest()
		before := snapshotSeries(fdb)
		if action == "failed-fetch" {
			if _, err := f.TailOnce(context.Background()); err == nil {
				t.Fatalf("cycle %d: tail succeeded against a failing leader", cycle)
			}
			if fdb.Epoch() != epochBefore || fdb.SnapshotGeneration() != genBefore || fdb.Digest() != digestBefore {
				t.Fatalf("cycle %d: a failed cycle moved the serving store", cycle)
			}
			fh.set("")
		}

		cs, err := f.TailOnce(context.Background())
		fh.set("")
		if err != nil {
			t.Fatalf("cycle %d (%s): %v", cycle, action, err)
		}
		if action == "corrupt-delta" && cs.DeltaSegments != 0 {
			t.Fatalf("cycle %d: %d corrupt deltas were spliced", cycle, cs.DeltaSegments)
		}
		if fdb.Digest() != leader.Digest() {
			t.Fatalf("cycle %d (%s): follower digest diverged from the leader", cycle, action)
		}
		ref := tsdb.Open()
		if err := ref.RestoreDir(fdir, tsdb.DirOptions{}); err != nil {
			t.Fatal(err)
		}
		if !sameViews(fdb.QueryView("tslp", nil, everything[0], everything[1]), ref.QueryView("tslp", nil, everything[0], everything[1])) {
			t.Fatalf("cycle %d (%s): follower views differ from an eager restore of its directory", cycle, action)
		}

		newM, err := tsdb.LoadManifest(fdir)
		if err != nil {
			t.Fatal(err)
		}
		wantKept := appendOnly(prevM, newM)
		switch action {
		case "append", "new-series", "corrupt-delta", "failed-fetch":
			if !wantKept {
				t.Fatalf("cycle %d (%s): an append generation is not append-only", cycle, action)
			}
		case "backfill", "retain":
			if wantKept {
				t.Fatalf("cycle %d (%s): a rewrite passed for an append", cycle, action)
			}
		}
		kept := fdb.Epoch() == epochBefore
		if kept != wantKept {
			t.Fatalf("cycle %d (%s): epoch kept = %v, want %v", cycle, action, kept, wantKept)
		}
		after := snapshotSeries(fdb)
		for key, st := range after {
			old, had := before[key]
			moved := !had || st.stamp != old.stamp
			if changed := !had || st.points != old.points; kept && moved != changed {
				t.Fatalf("cycle %d (%s): series %s stamp moved=%v, points changed=%v", cycle, action, key, moved, changed)
			}
			if !kept && !moved {
				t.Fatalf("cycle %d (%s): series %s stamp survived an epoch move", cycle, action, key)
			}
		}

		hadAccumulator := map[string]bool{}
		for l := range incs {
			hadAccumulator[l] = true
		}
		for l, full := range detect() {
			if !full {
				incremental++
			}
			if full && kept && hadAccumulator[l] && (action == "append" || action == "new-series" || action == "corrupt-delta") {
				t.Fatalf("cycle %d (%s): link %s fell back to a full recompute across an in-place swap", cycle, action, l)
			}
		}
		switch {
		case cs.Unchanged:
		case kept:
			inPlace++
			if action == "late-point" {
				lateInPlace++
			}
		default:
			rebuilt++
		}
	}
	for _, action := range []string{"append", "new-series", "backfill", "retain", "compact", "corrupt-delta", "failed-fetch", "late-point"} {
		if seen[action] == 0 {
			t.Errorf("schedule never ran %s", action)
		}
	}
	if lateInPlace == 0 {
		t.Error("no late point was applied in place")
	}
	if inPlace == 0 || rebuilt == 0 || incremental == 0 {
		t.Fatalf("schedule did not exercise both swaps: %d in place, %d rebuilt, %d incremental advances", inPlace, rebuilt, incremental)
	}
	t.Logf("%d in-place swaps, %d rebuilds, %d incremental advances; actions %v", inPlace, rebuilt, incremental, seen)
}

// TestFollowerCloseReleasesMappings runs 50 in-place tails and checks
// after each that the follower store maps exactly the files its
// committed manifest lists — superseded files are unmapped, none leak —
// then that DB.Close releases them all.
func TestFollowerCloseReleasesMappings(t *testing.T) {
	lf := newLeader(t)
	fdir := t.TempDir()
	fdb := tsdb.Open()
	f := replication.New(lf.ts.URL, fdir, fdb, replication.Options{Lazy: true})
	if _, err := f.TailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	epochAfterSync := fdb.Epoch()
	tags := map[string]string{"link": "l0", "vp": "vp-a", "side": "far"}
	for i := 0; i < 50; i++ {
		lf.db.Write("tslp", tags, epoch.Add(24*time.Hour+time.Duration(i)*time.Minute), float64(i))
		if _, err := lf.db.SnapshotDir(lf.dir, tsdb.DirOptions{Incremental: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.TailOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		m, err := tsdb.LoadManifest(fdir)
		if err != nil {
			t.Fatal(err)
		}
		st, ok := fdb.LazyReadStats()
		if !ok {
			t.Fatalf("tail %d: follower store is not lazily open", i)
		}
		if st.Segments != len(m.Segments) {
			t.Fatalf("tail %d: store holds %d files, manifest lists %d", i, st.Segments, len(m.Segments))
		}
	}
	if fdb.Epoch() != epochAfterSync {
		t.Fatal("append-only tails moved the store epoch")
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatal("follower diverged from the leader")
	}

	fdb.Close()
	if _, ok := fdb.LazyReadStats(); ok {
		t.Fatal("closed store still reports lazy read stats")
	}
	if fdb.PointCount() != 0 || len(fdb.QueryView("tslp", nil, everything[0], everything[1])) != 0 {
		t.Fatal("closed store still serves points")
	}
	// A closed store restores like a fresh one.
	if err := fdb.RestoreDir(fdir, tsdb.DirOptions{Lazy: true}); err != nil {
		t.Fatal(err)
	}
	if fdb.Digest() != lf.db.Digest() {
		t.Fatal("reopened store diverged from the leader")
	}
	fdb.Close()
}
