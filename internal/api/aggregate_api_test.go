package api_test

// Tests for the aggregate mode of /api/v1/query (docs/SERVING.md §7):
// response shape and NaN-as-null encoding, agreement with the raw
// query data, ETag/If-None-Match behavior under its own cache kind,
// pagination, and — over a lazily opened directory — that an
// aligned aggregate is served without decoding a block
// (docs/PERSISTENCE.md §10).

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

// aggResponse mirrors api.AggregateResponse for decoding; null buckets
// decode into nil pointers.
type aggResponse struct {
	Series []struct {
		Tags   map[string]string `json:"tags"`
		Starts []time.Time       `json:"starts"`
		Count  []int             `json:"count"`
		Min    []*float64        `json:"min"`
		Max    []*float64        `json:"max"`
		Sum    []*float64        `json:"sum"`
		Mean   []*float64        `json:"mean"`
	} `json:"series"`
	Agg       []string `json:"agg"`
	Step      string   `json:"step"`
	Total     int      `json:"total"`
	Limit     int      `json:"limit"`
	Offset    int      `json:"offset"`
	Truncated bool     `json:"truncated"`
}

// seedAgg writes two hours of minute data: hour 0 holds 0..59, hour 1
// holds a NaN at minute 30, and hour 2 is empty within a 3h range.
func seedAgg(db *tsdb.DB) {
	tags := map[string]string{"link": "L", "side": "far"}
	for i := 0; i < 60; i++ {
		db.Write("tslp", tags, netsim.Epoch.Add(time.Duration(i)*time.Minute), float64(i))
		v := float64(i)
		if i == 30 {
			v = math.NaN()
		}
		db.Write("tslp", tags, netsim.Epoch.Add(time.Hour).Add(time.Duration(i)*time.Minute), v)
	}
}

func TestQueryAggregateShape(t *testing.T) {
	ts, db := newServer(t)
	seedAgg(db)
	url := fmt.Sprintf("%s/api/v1/query?m=tslp&agg=count,min,max,sum,mean&step=1h&from=%s&to=%s",
		ts.URL,
		netsim.Epoch.Format(time.RFC3339),
		netsim.Epoch.Add(3*time.Hour).Format(time.RFC3339))

	var ar aggResponse
	if code := getJSON(t, url, &ar); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(ar.Series) != 1 || ar.Total != 1 || ar.Truncated {
		t.Fatalf("series page: %+v", ar)
	}
	if ar.Step != "1h0m0s" || len(ar.Agg) != 5 {
		t.Fatalf("echo: step %q agg %v", ar.Step, ar.Agg)
	}
	s := ar.Series[0]
	if len(s.Starts) != 3 || !s.Starts[1].Equal(netsim.Epoch.Add(time.Hour)) {
		t.Fatalf("starts: %v", s.Starts)
	}
	// Hour 0: clean integers, exact sums.
	if s.Count[0] != 60 || *s.Min[0] != 0 || *s.Max[0] != 59 || *s.Sum[0] != 1770 || *s.Mean[0] != 29.5 {
		t.Fatalf("hour 0: count=%d min=%v max=%v sum=%v mean=%v",
			s.Count[0], s.Min[0], s.Max[0], s.Sum[0], s.Mean[0])
	}
	// Hour 1: the NaN point counts, stays out of min/max, poisons
	// sum/mean to null.
	if s.Count[1] != 60 || *s.Min[1] != 0 || *s.Max[1] != 59 || s.Sum[1] != nil || s.Mean[1] != nil {
		t.Fatalf("hour 1: count=%d sum=%v mean=%v", s.Count[1], s.Sum[1], s.Mean[1])
	}
	// Hour 2: empty — count 0, everything else null.
	if s.Count[2] != 0 || s.Min[2] != nil || s.Max[2] != nil || s.Sum[2] != nil || s.Mean[2] != nil {
		t.Fatalf("hour 2: %+v", s)
	}

	// Unrequested columns are omitted entirely.
	var min aggResponse
	minURL := fmt.Sprintf("%s/api/v1/query?m=tslp&agg=min&step=1h&from=%s&to=%s",
		ts.URL,
		netsim.Epoch.Format(time.RFC3339),
		netsim.Epoch.Add(3*time.Hour).Format(time.RFC3339))
	if code := getJSON(t, minURL, &min); code != 200 {
		t.Fatalf("min-only status %d", code)
	}
	ms := min.Series[0]
	if ms.Min == nil || ms.Count != nil || ms.Sum != nil || ms.Mean != nil || ms.Max != nil {
		t.Fatalf("min-only columns: %+v", ms)
	}
	if got, want := min.Agg, []string{"min"}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("min-only echo: %v", got)
	}
}

// TestQueryAggregateETag: aggregate responses carry their own strong
// ETag; a conditional repeat is a 304; a contributing write
// invalidates; and different function sets or steps never share a tag.
func TestQueryAggregateETag(t *testing.T) {
	ts, db := newServer(t)
	seedAgg(db)
	base := fmt.Sprintf("%s/api/v1/query?m=tslp&from=%s&to=%s",
		ts.URL,
		netsim.Epoch.Format(time.RFC3339),
		netsim.Epoch.Add(3*time.Hour).Format(time.RFC3339))

	status, etag, _ := condGet(t, base+"&agg=min&step=1h", "")
	if status != 200 || etag == "" {
		t.Fatalf("first GET: status %d etag %q", status, etag)
	}
	if status, _, _ := condGet(t, base+"&agg=min&step=1h", etag); status != 304 {
		t.Fatalf("conditional GET status %d, want 304", status)
	}
	_, etagMax, _ := condGet(t, base+"&agg=max&step=1h", "")
	_, etagStep, _ := condGet(t, base+"&agg=min&step=30m", "")
	_, etagRaw, _ := condGet(t, base, "")
	if etagMax == etag || etagStep == etag || etagRaw == etag {
		t.Fatalf("identities collide: min/1h=%q max=%q 30m=%q raw=%q", etag, etagMax, etagStep, etagRaw)
	}
	db.Write("tslp", map[string]string{"link": "L", "side": "far"}, netsim.Epoch.Add(5*time.Minute), 99)
	if status, _, _ := condGet(t, base+"&agg=min&step=1h", etag); status != 200 {
		t.Fatal("stale aggregate ETag still matched after a write")
	}
}

func TestQueryAggregatePagination(t *testing.T) {
	ts, db := newServer(t)
	for i := 0; i < 5; i++ {
		db.Write("tslp", map[string]string{"link": fmt.Sprintf("l%d", i)}, netsim.Epoch, float64(i))
	}
	base := fmt.Sprintf("%s/api/v1/query?m=tslp&agg=count&step=1h&from=%s&to=%s",
		ts.URL,
		netsim.Epoch.Format(time.RFC3339),
		netsim.Epoch.Add(time.Hour).Format(time.RFC3339))

	var page aggResponse
	if code := getJSON(t, base+"&limit=3", &page); code != 200 {
		t.Fatal("page 1 failed")
	}
	if len(page.Series) != 3 || page.Total != 5 || !page.Truncated {
		t.Fatalf("page 1: %d series total %d truncated %v", len(page.Series), page.Total, page.Truncated)
	}
	if code := getJSON(t, base+"&limit=3&offset=3", &page); code != 200 {
		t.Fatal("page 2 failed")
	}
	if len(page.Series) != 2 || page.Truncated {
		t.Fatalf("page 2: %d series truncated %v", len(page.Series), page.Truncated)
	}
	// Empty page still marshals series as [].
	_, body := getBody(t, base+"&offset=50")
	if !contains(body, `"series":[]`) {
		t.Fatalf("empty page: %s", body)
	}
}

// TestQueryAggregateLazyPushdown serves the endpoint from a lazily
// opened directory: an aligned one-hour-step aggregate must be
// answered without decoding a single block, and the stats endpoint
// must show the summary-only buckets (docs/PERSISTENCE.md §10).
func TestQueryAggregateLazyPushdown(t *testing.T) {
	src := tsdb.Open()
	src.SetSegmentWindow(time.Hour)
	for i := 0; i < 48*60; i++ {
		src.Write("tslp", map[string]string{"link": "L", "side": "far"},
			netsim.Epoch.Add(time.Duration(i)*time.Minute), float64(i))
	}
	dir := t.TempDir()
	if _, err := src.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	db := tsdb.Open()
	if err := db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := api.New(db)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	url := fmt.Sprintf("%s/api/v1/query?m=tslp&agg=count,min,max,sum,mean&step=1h&from=%s&to=%s",
		ts.URL,
		netsim.Epoch.Format(time.RFC3339),
		netsim.Epoch.Add(48*time.Hour).Format(time.RFC3339))
	var ar aggResponse
	if code := getJSON(t, url, &ar); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(ar.Series) != 1 || len(ar.Series[0].Starts) != 48 {
		t.Fatalf("page: %d series", len(ar.Series))
	}
	if *ar.Series[0].Sum[0] != 1770 {
		t.Fatalf("first bucket sum %v, want 1770", *ar.Series[0].Sum[0])
	}

	var st api.StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != 200 {
		t.Fatal("stats failed")
	}
	if st.LazyRead == nil {
		t.Fatal("stats omitted lazy_read on a lazy store")
	}
	if st.LazyRead.BlocksDecoded != 0 || st.LazyRead.DecodedBytes != 0 {
		t.Fatalf("aligned aggregate decoded blocks: %+v", st.LazyRead)
	}
	if st.LazyRead.SummaryOnlyBuckets != 48 {
		t.Fatalf("summary_only_buckets = %d, want 48", st.LazyRead.SummaryOnlyBuckets)
	}
}
