package api_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/tsdb"
)

// BenchmarkColdQueryBody is one read-cache miss of the repository
// benchmark's cold-scan raw query — three days of one link's far and
// near series at a five-minute cadence, 1,728 points, 72 KB of JSON —
// through ServeHTTP into a recorder, the read cache purged before each
// request. The store is written, never restored, so B/op and
// allocs/op are the view build plus the body encode and nothing of
// block decode.
func BenchmarkColdQueryBody(b *testing.B) {
	db := tsdb.Open()
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	x := uint64(1)
	for _, side := range []string{"far", "near"} {
		tags := map[string]string{"link": "L00", "side": side, "vp": "vp-a"}
		for i := 0; i < 5*288; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			db.Write("tslp", tags, start.Add(time.Duration(i)*5*time.Minute), 21.5+float64(x>>11)/(1<<53))
		}
	}
	s := api.New(db)
	defer s.Close()
	req := httptest.NewRequest(http.MethodGet,
		"/api/v1/query?m=tslp&link=L00&from=2016-03-02T00:00:00Z&to=2016-03-05T00:00:00Z", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PurgeCache()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() < 30000 {
			b.Fatalf("status %d, %d body bytes", rec.Code, rec.Body.Len())
		}
	}
}

// BenchmarkCongestionWindows is the cold-scan congestion miss: each
// op asks for a distinct (from, days) window over one lazily restored
// link — 40 days of far and near samples at a five-minute cadence —
// with the read cache purged, so every op is one detector run. Windows
// share the link's bin column, so after the first op a run copies bins
// instead of decoding blocks and folding points; points/op reports the
// folds that remain.
func BenchmarkCongestionWindows(b *testing.B) {
	src := tsdb.Open()
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	x := uint64(1)
	for _, side := range []string{"far", "near"} {
		tags := map[string]string{"link": "L00", "side": side, "vp": "vp-a"}
		for i := 0; i < 40*288; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			src.Write("tslp", tags, start.Add(time.Duration(i)*5*time.Minute), 21.5+float64(x>>11)/(1<<53))
		}
	}
	dir := b.TempDir()
	if _, err := src.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		b.Fatal(err)
	}
	db := tsdb.Open()
	if err := db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
		b.Fatal(err)
	}
	s := api.New(db)
	defer s.Close()
	folded := func() uint64 {
		var st api.StatsResponse
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		return st.Detector.PointsFolded
	}
	before := folded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PurgeCache()
		from := start.AddDate(0, 0, i%20)
		days := 8 + (i*7)%33
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/api/v1/congestion?link=L00&from=%s&days=%d", from.Format(time.RFC3339), days), nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(folded()-before)/float64(b.N), "points/op")
}

// BenchmarkFrontCachedHit is one routed read-cache hit: a front over
// two replicas on loopback listeners, both serving one store, answering
// the same ~10 KB raw query every op. Both replicas' caches are warm
// before the timer starts, so B/op and allocs/op are the front's
// routing, its upstream HTTP hop and the replica's cached-body write.
func BenchmarkFrontCachedHit(b *testing.B) {
	db := tsdb.Open()
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	x := uint64(1)
	for i := 0; i < 240; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		db.Write("tslp", map[string]string{"link": "L00", "side": "far", "vp": "vp-a"},
			start.Add(time.Duration(i)*5*time.Minute), 21.5+float64(x>>11)/(1<<53))
	}
	var urls []string
	for i := 0; i < 2; i++ {
		s := api.New(db)
		defer s.Close()
		ts := httptest.NewServer(s)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	f, err := api.NewFront(urls, api.FrontOptions{HedgeAfter: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	f.PollNow(context.Background())
	req := httptest.NewRequest(http.MethodGet,
		"/api/v1/query?m=tslp&link=L00&from=2016-03-01T00:00:00Z&to=2016-03-02T00:00:00Z", nil)
	serve := func() int {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Len()
	}
	for i := 0; i < 4; i++ {
		if n := serve(); n < 8<<10 || n > 12<<10 {
			b.Fatalf("%d body bytes, want about 10 KB", n)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
