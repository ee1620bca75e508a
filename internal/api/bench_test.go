package api_test

import (
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
// request. The store is eager, so B/op and allocs/op are the view
// build plus the body encode and nothing of block decode.
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
