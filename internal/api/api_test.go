package api_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

func newServer(t *testing.T) (*httptest.Server, *tsdb.DB) {
	ts, db, _ := newServerAPI(t)
	return ts, db
}

func newServerAPI(t *testing.T) (*httptest.Server, *tsdb.DB, *api.Server) {
	t.Helper()
	db := tsdb.Open()
	srv := api.New(db)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, db, srv
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _ := newServer(t)
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz returned %d", code)
	}
}

func TestMeasurementsAndTags(t *testing.T) {
	ts, db := newServer(t)
	db.Write("tslp", map[string]string{"vp": "a", "side": "far"}, netsim.Epoch, 1)
	db.Write("loss_rate", map[string]string{"vp": "b"}, netsim.Epoch, 2)

	var ms struct {
		Measurements []string `json:"measurements"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/measurements", &ms); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(ms.Measurements) != 2 {
		t.Fatalf("measurements %v", ms.Measurements)
	}

	var tags struct {
		Values []string `json:"values"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/tags?m=tslp&tag=vp", &tags); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(tags.Values) != 1 || tags.Values[0] != "a" {
		t.Fatalf("tag values %v", tags.Values)
	}
	if code := getJSON(t, ts.URL+"/api/v1/tags?m=tslp", nil); code != 400 {
		t.Fatalf("missing tag param should 400, got %d", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, db := newServer(t)
	for i := 0; i < 10; i++ {
		db.Write("tslp", map[string]string{"vp": "a", "side": "far"}, netsim.Epoch.Add(time.Duration(i)*time.Minute), float64(i))
		db.Write("tslp", map[string]string{"vp": "b", "side": "far"}, netsim.Epoch.Add(time.Duration(i)*time.Minute), float64(-i))
	}
	from := netsim.Epoch.Format(time.RFC3339)
	to := netsim.Epoch.Add(5 * time.Minute).Format(time.RFC3339)
	var out struct {
		Series []api.QuerySeries `json:"series"`
	}
	url := fmt.Sprintf("%s/api/v1/query?m=tslp&from=%s&to=%s&vp=a", ts.URL, from, to)
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Series) != 1 {
		t.Fatalf("series %d, want 1 (vp filter)", len(out.Series))
	}
	if len(out.Series[0].Values) != 5 {
		t.Fatalf("points %d, want 5 (range)", len(out.Series[0].Values))
	}
	if code := getJSON(t, ts.URL+"/api/v1/query?m=tslp&from=bad&to=bad", nil); code != 400 {
		t.Fatalf("bad time should 400, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/query?from=x&to=y", nil); code != 400 {
		t.Fatalf("missing m should 400, got %d", code)
	}
}

func TestDashboard(t *testing.T) {
	ts, db := newServer(t)
	// One day of 15-minute TSLP data with an evening plateau.
	rng := netsim.NewRNG(7)
	for b := 0; b < 96; b++ {
		at := netsim.Epoch.Add(time.Duration(b) * 15 * time.Minute)
		far := 20 + rng.Float64()
		if b >= 80 && b < 92 {
			far += 30
		}
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, far)
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "near"}, at, 5+rng.Float64())
	}
	url := ts.URL + "/dashboard?link=L&vp=v&from=" + netsim.Epoch.Format(time.RFC3339) + "&days=1"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{"<svg", "polyline", "#c0392b", "rect"} {
		if !contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// Index page lists the link.
	resp, err = http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !contains(body, "L") {
		t.Fatal("index missing link")
	}
	// Missing data -> 404.
	resp, _ = http.Get(ts.URL + "/dashboard?link=nope&from=" + netsim.Epoch.Format(time.RFC3339))
	readAll(t, resp)
	if resp.StatusCode != 404 {
		t.Fatalf("missing link status %d", resp.StatusCode)
	}
	// Bad params -> 400.
	resp, _ = http.Get(ts.URL + "/dashboard?link=L&from=bad")
	readAll(t, resp)
	if resp.StatusCode != 400 {
		t.Fatalf("bad from status %d", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b []byte
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b = append(b, buf[:n]...)
		if err != nil {
			break
		}
	}
	return string(b)
}

func contains(s, sub string) bool { return len(s) >= len(sub) && strings.Contains(s, sub) }

func TestCongestionEndpoint(t *testing.T) {
	ts, db := newServer(t)
	// Synthesize 50 days of far/near TSLP with a daily evening plateau.
	rng := netsim.NewRNG(5)
	for d := 0; d < 50; d++ {
		for b := 0; b < 96; b++ {
			at := netsim.Day(d).Add(time.Duration(b) * 15 * time.Minute)
			far := 20 + rng.Float64()
			if b >= 80 && b < 90 {
				far += 30
			}
			db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, far)
			db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "near"}, at, 5+rng.Float64())
		}
	}
	url := fmt.Sprintf("%s/api/v1/congestion?link=L&vp=v&from=%s&days=50",
		ts.URL, netsim.Epoch.Format(time.RFC3339))
	var out api.CongestionResponse
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !out.Recurring {
		t.Fatalf("recurring congestion not detected: %+v", out.Reject)
	}
	if len(out.Days) != 50 {
		t.Fatalf("days %d", len(out.Days))
	}
	congested := 0
	for _, d := range out.Days {
		if d.Congested {
			congested++
		}
	}
	if congested < 45 {
		t.Fatalf("only %d/50 days congested", congested)
	}
	if code := getJSON(t, ts.URL+"/api/v1/congestion?from=bad", nil); code != 400 {
		t.Fatalf("missing link should 400, got %d", code)
	}
}

// seedCongestion writes `days` days of far/near TSLP for link L from vp v
// with a daily evening plateau, so the autocorrelation detector fires.
func seedCongestion(db *tsdb.DB, days int) {
	rng := netsim.NewRNG(5)
	for d := 0; d < days; d++ {
		for b := 0; b < 96; b++ {
			at := netsim.Day(d).Add(time.Duration(b) * 15 * time.Minute)
			far := 20 + rng.Float64()
			if b >= 80 && b < 90 {
				far += 30
			}
			db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, far)
			db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "near"}, at, 5+rng.Float64())
		}
	}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readAll(t, resp)
}

// TestCongestionCacheServesAndInvalidates checks the three cache
// properties the serving tier promises: repeat requests against an
// unchanged store are byte-identical and run the detector once; a write
// to a contributing series invalidates the entry (no stale serve); a
// write to an unrelated series does not.
func TestCongestionCacheServesAndInvalidates(t *testing.T) {
	ts, db, srv := newServerAPI(t)
	seedCongestion(db, 50)
	url := fmt.Sprintf("%s/api/v1/congestion?link=L&vp=v&from=%s&days=50",
		ts.URL, netsim.Epoch.Format(time.RFC3339))

	code, body1 := getBody(t, url)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body1)
	}
	code, body2 := getBody(t, url)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if body1 != body2 {
		t.Fatal("cached response not byte-identical to uncached")
	}
	if got := srv.CongestionComputes(); got != 1 {
		t.Fatalf("computes = %d after repeat request, want 1", got)
	}
	if st := srv.CacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}

	// A write to an unrelated link must not invalidate the entry.
	db.Write("tslp", map[string]string{"vp": "v", "link": "other", "side": "far"}, netsim.Day(1), 99)
	if _, body := getBody(t, url); body != body1 {
		t.Fatal("unrelated write changed the response")
	}
	if got := srv.CongestionComputes(); got != 1 {
		t.Fatalf("computes = %d after unrelated write, want 1", got)
	}

	// New points for the cached link: the next response must reflect
	// them, not a stale cache entry. Flood day 10 with a plateau-sized
	// floor so its minimum filter output (and classification) changes.
	for b := 0; b < 96; b++ {
		at := netsim.Day(10).Add(time.Duration(b) * 15 * time.Minute)
		db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, at, 0.001)
	}
	code, body3 := getBody(t, url)
	if code != 200 {
		t.Fatalf("status %d after write", code)
	}
	if body3 == body1 {
		t.Fatal("stale cached response served after writes to the link")
	}
	if got := srv.CongestionComputes(); got != 2 {
		t.Fatalf("computes = %d after invalidating write, want 2", got)
	}

	// PurgeCache drops every entry: the same request recomputes.
	srv.PurgeCache()
	if _, body := getBody(t, url); body != body3 {
		t.Fatal("recompute after purge changed the response")
	}
	if got := srv.CongestionComputes(); got != 3 {
		t.Fatalf("computes = %d after purge, want 3", got)
	}
}

// TestCongestionCoalescing proves (under -race) that concurrent
// identical requests coalesce onto a single detector run and all see the
// same bytes.
func TestCongestionCoalescing(t *testing.T) {
	ts, db, srv := newServerAPI(t)
	seedCongestion(db, 50)
	url := fmt.Sprintf("%s/api/v1/congestion?link=L&vp=v&from=%s&days=50",
		ts.URL, netsim.Epoch.Format(time.RFC3339))

	const clients = 16
	bodies := make([]string, clients)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != 200 {
				t.Errorf("status %d", resp.StatusCode)
			}
			bodies[i] = readAll(t, resp)
		}(i)
	}
	start.Done()
	done.Wait()

	if got := srv.CongestionComputes(); got != 1 {
		t.Fatalf("detector ran %d times for %d concurrent identical requests, want 1", got, clients)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, db := newServer(t)
	seedCongestion(db, 50)
	url := fmt.Sprintf("%s/api/v1/congestion?link=L&vp=v&from=%s&days=50",
		ts.URL, netsim.Epoch.Format(time.RFC3339))
	for i := 0; i < 2; i++ {
		if code, _ := getBody(t, url); code != 200 {
			t.Fatalf("status %d", code)
		}
	}
	var out api.StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &out); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if out.CongestionComputes != 1 {
		t.Fatalf("congestion_computes = %d, want 1", out.CongestionComputes)
	}
	if out.Cache.Hits == 0 || out.Cache.Misses == 0 {
		t.Fatalf("cache counters not populated: %+v", out.Cache)
	}
	if out.StoreVersion == 0 {
		t.Fatal("store_version = 0 after writes")
	}
	em, ok := out.Endpoints["congestion"]
	if !ok || em.Count != 2 {
		t.Fatalf("endpoint metrics for congestion: %+v (ok=%v)", em, ok)
	}
	total := uint64(0)
	for _, b := range em.LatencyMs {
		total += b.Count
	}
	if total != em.Count {
		t.Fatalf("histogram counts %d != request count %d", total, em.Count)
	}
}

// TestQueryCacheInvalidation checks the /api/v1/query read path: repeat
// requests are byte-identical, and a write inside the queried series
// shows up on the next request.
func TestQueryCacheInvalidation(t *testing.T) {
	ts, db := newServer(t)
	for i := 0; i < 10; i++ {
		db.Write("tslp", map[string]string{"vp": "a", "side": "far"}, netsim.Epoch.Add(time.Duration(i)*time.Minute), float64(i))
	}
	url := fmt.Sprintf("%s/api/v1/query?m=tslp&from=%s&to=%s&vp=a", ts.URL,
		netsim.Epoch.Format(time.RFC3339),
		netsim.Epoch.Add(time.Hour).Format(time.RFC3339))

	_, body1 := getBody(t, url)
	if _, body2 := getBody(t, url); body2 != body1 {
		t.Fatal("cached query response differs")
	}
	db.Write("tslp", map[string]string{"vp": "a", "side": "far"}, netsim.Epoch.Add(30*time.Minute), 123.5)
	_, body3 := getBody(t, url)
	if body3 == body1 {
		t.Fatal("stale query served after write")
	}
	if !contains(body3, "123.5") {
		t.Fatal("new point missing from response")
	}
}

func TestDashboardIndexStatus(t *testing.T) {
	ts, db := newServer(t)
	seedCongestion(db, 2)
	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !contains(body, "coverage") || !contains(body, "episode") {
		t.Fatalf("index missing per-link status: %s", body)
	}
}

// TestQueryValueBoundAndLazyStats covers the vmin/vmax query
// parameters and the lazy_read stats block: the bound filters points
// without being mistaken for a tag filter, bound and unbound queries
// cache under distinct identities, malformed bounds 400, and a restored
// store surfaces its prune counters on /api/v1/stats (absent on a store
// that was only written).
func TestQueryValueBoundAndLazyStats(t *testing.T) {
	ts, db := newServer(t)
	for i := 0; i < 10; i++ {
		db.Write("tslp", map[string]string{"vp": "a", "side": "far"}, netsim.Epoch.Add(time.Duration(i)*time.Minute), float64(i))
	}

	// Written store: no lazy_read block.
	var st api.StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.LazyRead != nil {
		t.Fatal("written store reported lazy_read stats")
	}

	// Reopen the serving store from its own snapshot.
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}

	from := netsim.Epoch.Format(time.RFC3339)
	to := netsim.Epoch.Add(time.Hour).Format(time.RFC3339)
	var out struct {
		Series []api.QuerySeries `json:"series"`
	}
	base := fmt.Sprintf("%s/api/v1/query?m=tslp&from=%s&to=%s&vp=a", ts.URL, from, to)
	if code := getJSON(t, base, &out); code != 200 {
		t.Fatalf("unbounded status %d", code)
	}
	if len(out.Series) != 1 || len(out.Series[0].Values) != 10 {
		t.Fatalf("unbounded query returned %+v", out.Series)
	}

	// Bounded: only values in [3, 6]. Must not collide with the cached
	// unbounded result, and vmin/vmax must not act as tag filters.
	out.Series = nil
	if code := getJSON(t, base+"&vmin=3&vmax=6", &out); code != 200 {
		t.Fatalf("bounded status %d", code)
	}
	if len(out.Series) != 1 || len(out.Series[0].Values) != 4 {
		t.Fatalf("bounded query returned %+v", out.Series)
	}
	for _, v := range out.Series[0].Values {
		if v < 3 || v > 6 {
			t.Fatalf("value %g escaped the bound", v)
		}
	}
	// One-sided bound defaults the other end to infinity.
	out.Series = nil
	if code := getJSON(t, base+"&vmin=8", &out); code != 200 {
		t.Fatalf("one-sided status %d", code)
	}
	if len(out.Series) != 1 || len(out.Series[0].Values) != 2 {
		t.Fatalf("vmin=8 returned %+v", out.Series)
	}
	// A bound matching nothing returns an empty page, not an error.
	out.Series = nil
	if code := getJSON(t, base+"&vmin=100&vmax=200", &out); code != 200 {
		t.Fatalf("empty-bound status %d", code)
	}
	if len(out.Series) != 0 {
		t.Fatalf("impossible bound matched %+v", out.Series)
	}

	for _, bad := range []string{"&vmin=abc", "&vmax=NaN", "&vmin=5&vmax=2"} {
		if code := getJSON(t, base+bad, nil); code != 400 {
			t.Fatalf("%s should 400, got %d", bad, code)
		}
	}

	// The lazy store now reports its read-path counters, and the
	// value-pruned query above skipped blocks by summary.
	st = api.StatsResponse{}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.LazyRead == nil {
		t.Fatal("lazy store reported no lazy_read stats")
	}
	if st.LazyRead.Segments == 0 || st.LazyRead.Blocks == 0 {
		t.Fatalf("lazy_read empty: %+v", st.LazyRead)
	}
	if st.LazyRead.BlocksScanned == 0 || st.LazyRead.BlocksSkipped == 0 {
		t.Fatalf("queries left no prune trace: %+v", st.LazyRead)
	}
}
