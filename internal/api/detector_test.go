package api

// Tests for the shared bin columns behind /api/v1/congestion
// (docs/DETECTION.md §3-§4): many windows over one link read one
// column, and every body they serve must be the one a fresh server —
// whose new column folds exactly that window — computes over the same
// store.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

// congestionBody serves one congestion request and returns its body.
func congestionBody(t *testing.T, srv *Server, vp string, from time.Time, days int) string {
	t.Helper()
	q := url.Values{"link": {"L"}, "from": {from.UTC().Format(time.RFC3339)}, "days": {fmt.Sprint(days)}}
	if vp != "" {
		q.Set("vp", vp)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/congestion?"+q.Encode(), nil))
	body, _ := io.ReadAll(rec.Result().Body)
	if rec.Code != http.StatusOK {
		t.Fatalf("congestion %s from %s days %d: status %d: %s", vp, from, days, rec.Code, body)
	}
	return string(body)
}

// congestionWindow is one (vp, from, days) request shape.
type congestionWindow struct {
	vp   string
	from time.Time
	days int
}

// randomWindow draws a window: a whole day between -5 and 25, shifted
// by one of three grid phases (0 and -3 h share a column; +7 min has
// its own), 1 to 60 days long, over one vantage point or all of them.
func randomWindow(rng *netsim.RNG) congestionWindow {
	phases := []time.Duration{0, 7 * time.Minute, -3 * time.Hour}
	return congestionWindow{
		vp:   []string{"v", ""}[rng.Intn(2)],
		from: netsim.Day(rng.Intn(31) - 5).Add(phases[rng.Intn(len(phases))]),
		days: 1 + rng.Intn(60),
	}
}

// TestCongestionOverlappingWindowsMatchFresh is the shared-column
// equivalence guarantee: a long-lived server answering many windows per
// link — random starts, lengths and grid phases, so columns are grown,
// shared and re-folded — serves after every step of a random schedule
// of in-window appends, out-of-order backfills, out-of-window writes,
// retention trims and snapshot/restore cycles the
// byte-identical body a fresh server computes for each window alone.
func TestCongestionOverlappingWindowsMatchFresh(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := netsim.NewRNG(seed)
			db := tsdb.Open()
			live := New(db)
			defer live.Close()
			write := func(vp, side string, at time.Time) {
				v := 40 + 5*rng.Float64()
				switch h := at.Hour(); {
				case side == "far" && h >= 18 && h < 22:
					v += 30
				case side == "near" && h == 20 && at.YearDay()%3 == 0:
					v += 30 // near-side exclusion (docs/DETECTION.md §2)
				}
				db.Write("tslp", map[string]string{"vp": vp, "link": "L", "side": side}, at, v)
			}
			slot := func(i int) time.Time { return netsim.Epoch.Add(time.Duration(i) * 20 * time.Minute) }
			cursor := 0 // next 20-minute slot to append
			for ; cursor < 10*72; cursor++ {
				for _, vp := range []string{"v", "w"} {
					write(vp, "far", slot(cursor))
					write(vp, "near", slot(cursor))
				}
			}
			// The first windows sit in the middle of the data, so the
			// random ones after them grow their columns both ways.
			windows := []congestionWindow{{"v", netsim.Day(6), 2}, {"", netsim.Day(6).Add(7 * time.Minute), 2}}
			for len(windows) < 8 {
				windows = append(windows, randomWindow(rng))
			}
			for step := 0; step < 24; step++ {
				switch p := rng.Float64(); {
				case p < 0.45: // in-window appends
					for n := 1 + rng.Intn(20); n > 0; n, cursor = n-1, cursor+1 {
						for _, vp := range []string{"v", "w"} {
							write(vp, "far", slot(cursor))
							write(vp, "near", slot(cursor))
						}
					}
				case p < 0.60: // out-of-order backfill
					write("v", "far", slot(rng.Intn(cursor)).Add(time.Minute))
				case p < 0.70: // out-of-window write
					write("w", "near", netsim.Day(200+rng.Intn(100)))
				case p < 0.80: // retention trim of the head
					db.Retain(netsim.Epoch.Add(time.Duration(rng.Intn(72))*time.Hour), netsim.Day(400))
				default: // snapshot, then restore
					dir := t.TempDir()
					if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
						t.Fatal(err)
					}
					if err := db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				windows = append(windows, randomWindow(rng)) // a new window joins every step
				for _, w := range windows {
					got := congestionBody(t, live, w.vp, w.from, w.days)
					fresh := New(db)
					want := congestionBody(t, fresh, w.vp, w.from, w.days)
					fresh.Close()
					if got != want {
						t.Fatalf("step %d, window %+v: body diverged from a fresh server\nlive:  %s\nfresh: %s", step, w, got, want)
					}
				}
			}
			if d := live.detectorStats(); d.FullRecomputes == d.Folds || d.Unchanged == 0 {
				t.Fatalf("schedule did not exercise the incremental paths: %+v", d)
			}
		})
	}
}

// TestCongestionWindowsConcurrent drives many windows over one column
// from several goroutines while a writer appends to the link (run it
// under -race): every request succeeds, and once the writer is done
// every window serves what a fresh server computes.
func TestCongestionWindowsConcurrent(t *testing.T) {
	db := tsdb.Open()
	srv := New(db)
	defer srv.Close()
	write := func(i int) {
		at := netsim.Epoch.Add(time.Duration(i) * 15 * time.Minute)
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, 20+float64(i%7))
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "near"}, at, 5+float64(i%3))
	}
	for i := 0; i < 8*96; i++ {
		write(i)
	}
	var windows [4][]congestionWindow
	rng := netsim.NewRNG(9)
	for g := range windows {
		for i := 0; i < 12; i++ {
			windows[g] = append(windows[g], randomWindow(rng))
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 8 * 96; i < 10*96; i++ {
			write(i)
		}
	}()
	for g := range windows {
		wg.Add(1)
		go func(ws []congestionWindow) {
			defer wg.Done()
			for _, w := range ws {
				q := url.Values{"link": {"L"}, "vp": {w.vp}, "from": {w.from.Format(time.RFC3339)}, "days": {fmt.Sprint(w.days)}}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/congestion?"+q.Encode(), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("window %+v: status %d", w, rec.Code)
				}
			}
		}(windows[g])
	}
	wg.Wait()
	fresh := New(db)
	defer fresh.Close()
	for _, ws := range windows {
		for _, w := range ws {
			if got, want := congestionBody(t, srv, w.vp, w.from, w.days), congestionBody(t, fresh, w.vp, w.from, w.days); got != want {
				t.Fatalf("window %+v: body diverged from a fresh server\nlive:  %s\nfresh: %s", w, got, want)
			}
		}
	}
}

// TestCongestionWindowsShareColumn pins what sharing buys on a lazily
// restored store: once one window has folded a link, a second window
// inside it decodes no block and folds no point, and windows far from
// the data — year 1, year 2100 — grow the column's bins no further than
// the data span.
func TestCongestionWindowsShareColumn(t *testing.T) {
	src := tsdb.Open()
	rng := netsim.NewRNG(3)
	for i := 0; i < 20*96; i++ {
		at := netsim.Epoch.Add(time.Duration(i) * 15 * time.Minute)
		src.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, 20+rng.Float64())
		src.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "near"}, at, 5+rng.Float64())
	}
	dir := t.TempDir()
	if _, err := src.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	db := tsdb.Open()
	if err := db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	defer srv.Close()

	decoded := func() uint64 {
		ls, ok := db.LazyReadStats()
		if !ok {
			t.Fatal("store is not lazy")
		}
		return ls.BlocksDecoded
	}
	congestionBody(t, srv, "v", netsim.Day(2), 10)
	d1, b1 := srv.detectorStats(), decoded()
	if d1.PointsFolded == 0 || b1 == 0 {
		t.Fatalf("first window folded %d points, decoded %d blocks", d1.PointsFolded, b1)
	}
	got := congestionBody(t, srv, "v", netsim.Day(4), 5)
	d2, b2 := srv.detectorStats(), decoded()
	if d2.Folds != 2 || d2.PointsFolded != d1.PointsFolded || b2 != b1 {
		t.Fatalf("second window inside the first: folds %d, points folded %d -> %d, blocks decoded %d -> %d",
			d2.Folds, d1.PointsFolded, d2.PointsFolded, b1, b2)
	}
	fresh := New(db)
	defer fresh.Close()
	if want := congestionBody(t, fresh, "v", netsim.Day(4), 5); got != want {
		t.Fatalf("shared-column body diverged from a fresh server\nshared: %s\nfresh:  %s", got, want)
	}

	width := analysis.DefaultAutocorr().BinWidth()
	// colBins returns the bins of the column a window from from reads.
	colBins := func(s *Server, from time.Time) int {
		key := colKey{link: "L", vp: "v", width: int64(width), phase: analysis.GridPhase(from, width)}
		el, ok := s.cols.entries[key]
		if !ok {
			t.Fatalf("no column for a window from %s", from)
		}
		return el.Value.(*lruEntry[colKey, *analysis.BinColumn]).val.Bytes() / 16
	}
	minT, maxT, _ := db.TimeBounds("tslp", linkFilter("L", "", "v"))
	span := int(maxT.Sub(minT)/width) + 1
	far := []time.Time{time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)}
	for _, from := range far {
		// On a fresh server the far window alone allocates nothing.
		alone := New(db)
		congestionBody(t, alone, "v", from, 50)
		if n := colBins(alone, from); n != 0 {
			t.Errorf("window from %s alone allocated %d bins", from.Format("2006-01-02"), n)
		}
		alone.Close()
		congestionBody(t, srv, "v", from, 50)
		for _, f := range []time.Time{netsim.Day(2), from} {
			if n := colBins(srv, f); n > span {
				t.Errorf("after the window from %s a column holds %d bins, the data spans %d", from.Format("2006-01-02"), n, span)
			}
		}
	}
	if got != congestionBody(t, srv, "v", netsim.Day(4), 5) {
		t.Fatal("far windows changed a window over the data")
	}
}

// TestLRUEvictsByCost: entries are dropped least recently used first
// once their costs exceed the budget, never the one just touched, each
// handed to the drop hook once, and a stale setCost (for a value the
// key no longer holds) is ignored.
func TestLRUEvictsByCost(t *testing.T) {
	var dropped []*int
	r := newLRU[string](10, func(v *int) { dropped = append(dropped, v) })
	vals := map[string]*int{}
	get := func(k string, cost int) *int {
		return r.get(k, cost, func() *int { v := new(int); vals[k] = v; return v })
	}
	get("a", 4)
	get("b", 4)
	get("a", 0) // a is now the most recently used
	get("c", 4) // 12 > 10: b goes
	if _, ok := r.entries["b"]; ok || r.len() != 2 || len(dropped) != 1 || dropped[0] != vals["b"] {
		t.Fatalf("b not evicted: %d entries, %d dropped", r.len(), len(dropped))
	}
	r.setCost("c", vals["b"], 100) // stale: c does not hold b's value
	if r.total != 8 {
		t.Fatalf("stale setCost moved the total to %d", r.total)
	}
	r.setCost("c", vals["c"], 50) // over budget alone: a goes, c stays
	if _, ok := r.entries["a"]; ok || r.len() != 1 || r.total != 50 || len(dropped) != 2 || dropped[1] != vals["a"] {
		t.Fatalf("after re-costing c: %d entries, total %d, %d dropped", r.len(), r.total, len(dropped))
	}
}

// TestColumnRegistryBoundedForAbsentData: columns for links that do not
// exist, or for windows far from the data, hold no bins, yet each is
// charged its fixed cost — so arbitrary query strings cannot grow the
// registry past its byte budget.
func TestColumnRegistryBoundedForAbsentData(t *testing.T) {
	db := tsdb.Open()
	for i := 0; i < 2*96; i++ {
		at := netsim.Epoch.Add(time.Duration(i) * 15 * time.Minute)
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, 20)
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "near"}, at, 5)
	}
	srv := New(db)
	defer srv.Close()
	const keep = 8
	budget := keep * columnCost(colKey{link: "absent-000", vp: "v"}, 0)
	srv.cols = newLRU[colKey, *analysis.BinColumn](budget, nil)
	get := func(link string, from time.Time) {
		q := url.Values{"link": {link}, "vp": {"v"}, "from": {from.Format(time.RFC3339)}, "days": {"3"}}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/congestion?"+q.Encode(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("link %s from %s: status %d", link, from, rec.Code)
		}
	}
	for i := 0; i < 40; i++ {
		get(fmt.Sprintf("absent-%03d", i), netsim.Day(0))
		// A second-resolution phase far from the data: a new column each.
		get("L", time.Date(2100, 1, 1, 0, 0, i, 0, time.UTC))
	}
	if n, total := srv.cols.len(), srv.cols.total; n > keep || total > budget {
		t.Fatalf("%d columns costing %d after 80 empty ones; budget %d (%d columns)", n, total, budget, keep)
	}
}

// TestEvictedWindowLeavesColumn: once the registry evicts a historical
// window's accumulator, the next store move cuts the shared column back
// to the windows still open, so later refreshes stop reading the
// history — and the hot window's body stays a fresh server's.
func TestEvictedWindowLeavesColumn(t *testing.T) {
	db := tsdb.Open()
	write := func(i int) {
		at := netsim.Epoch.Add(time.Duration(i) * 15 * time.Minute)
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, 20+float64(i%7))
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "near"}, at, 5+float64(i%3))
	}
	for i := 0; i < 18*96; i++ {
		write(i)
	}
	srv := New(db)
	defer srv.Close()
	srv.det = newLRU[detKey](1, closeDetState) // room for one window
	width := analysis.DefaultAutocorr().BinWidth()
	bins := func() int {
		el := srv.cols.entries[colKey{link: "L", vp: "v", width: int64(width), phase: 0}]
		return el.Value.(*lruEntry[colKey, *analysis.BinColumn]).val.Bytes() / 16
	}

	congestionBody(t, srv, "v", netsim.Day(0), 5)
	congestionBody(t, srv, "v", netsim.Day(14), 5) // evicts the historical window
	if n := bins(); n < 17*96 {
		t.Fatalf("column holds %d bins before the store moved, want the whole history", n)
	}
	write(18 * 96)
	got := congestionBody(t, srv, "v", netsim.Day(14), 5)
	if n := bins(); n > 5*96 {
		t.Fatalf("column holds %d bins after the store moved, want at most the open window's %d", n, 5*96)
	}
	fresh := New(db)
	defer fresh.Close()
	if want := congestionBody(t, fresh, "v", netsim.Day(14), 5); got != want {
		t.Fatalf("body diverged from a fresh server\nlive:  %s\nfresh: %s", got, want)
	}
}
