package api_test

// Tests for the HTTP contract of docs/SERVING.md §7-§8: the structured
// error envelope with stable codes, strong ETags with If-None-Match
// (including that a 304 runs no detector), bounded query responses
// with pagination metadata, and the /api/v1/health readiness endpoint.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

// envelope mirrors api.ErrorEnvelope for decoding.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// getEnvelope fetches url and decodes the error envelope.
func getEnvelope(t *testing.T, url string) (int, envelope) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("GET %s: response is not an error envelope: %v", url, err)
	}
	return resp.StatusCode, env
}

// TestErrorEnvelope drives every endpoint's failure modes and checks
// each answers the single envelope shape with the right stable code.
func TestErrorEnvelope(t *testing.T) {
	ts, db := newServer(t)
	db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, netsim.Epoch, 1)
	from := netsim.Epoch.Format(time.RFC3339)
	to := netsim.Epoch.Add(2 * time.Hour).Format(time.RFC3339)

	cases := []struct {
		name   string
		path   string
		status int
		code   string
	}{
		{"tags missing params", "/api/v1/tags?m=tslp", 400, "bad_request"},
		{"query missing m", "/api/v1/query", 400, "bad_request"},
		{"query bad from", "/api/v1/query?m=tslp&from=yesterday&to=" + from, 400, "bad_request"},
		{"query bad to", "/api/v1/query?m=tslp&from=" + from + "&to=nope", 400, "bad_request"},
		{"query bad limit", "/api/v1/query?m=tslp&from=" + from + "&to=" + from + "&limit=x", 400, "bad_request"},
		{"query negative limit", "/api/v1/query?m=tslp&from=" + from + "&to=" + from + "&limit=-1", 400, "bad_request"},
		{"query negative offset", "/api/v1/query?m=tslp&from=" + from + "&to=" + from + "&offset=-2", 400, "bad_request"},
		{"agg without step", "/api/v1/query?m=tslp&agg=min&from=" + from + "&to=" + to, 400, "bad_request"},
		{"step without agg", "/api/v1/query?m=tslp&step=1h&from=" + from + "&to=" + to, 400, "bad_request"},
		{"agg unknown fn", "/api/v1/query?m=tslp&agg=median&step=1h&from=" + from + "&to=" + to, 400, "bad_request"},
		{"agg empty fn", "/api/v1/query?m=tslp&agg=min,&step=1h&from=" + from + "&to=" + to, 400, "bad_request"},
		{"agg bad step", "/api/v1/query?m=tslp&agg=min&step=soon&from=" + from + "&to=" + to, 400, "bad_request"},
		{"agg zero step", "/api/v1/query?m=tslp&agg=min&step=0s&from=" + from + "&to=" + to, 400, "bad_request"},
		{"agg negative step", "/api/v1/query?m=tslp&agg=min&step=-5m&from=" + from + "&to=" + to, 400, "bad_request"},
		{"agg non-multiple range", "/api/v1/query?m=tslp&agg=min&step=7m&from=" + from + "&to=" + to, 400, "bad_request"},
		{"agg with value bound", "/api/v1/query?m=tslp&agg=min&step=1h&vmin=1&from=" + from + "&to=" + to, 400, "bad_request"},
		{"congestion missing link", "/api/v1/congestion?from=" + from, 400, "bad_request"},
		{"congestion bad from", "/api/v1/congestion?link=L&from=never", 400, "bad_request"},
		{"congestion bad days", "/api/v1/congestion?link=L&from=" + from + "&days=-3", 400, "bad_request"},
		{"congestion days over ceiling", "/api/v1/congestion?link=ghost&from=" + from + "&days=200000", 400, "bad_request"},
		{"dashboard bad from", "/dashboard?link=L&from=huh", 400, "bad_request"},
		{"dashboard bad days", "/dashboard?link=L&from=" + from + "&days=900", 400, "bad_request"},
		{"dashboard no data", "/dashboard?link=ghost&from=" + from, 404, "not_found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, env := getEnvelope(t, ts.URL+c.path)
			if status != c.status {
				t.Fatalf("status %d, want %d", status, c.status)
			}
			if env.Error.Code != c.code {
				t.Fatalf("code %q, want %q", env.Error.Code, c.code)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}

	// A rejected request never reaches the detector registry: an
	// oversized window must not allocate an accumulator.
	var st api.StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Detector.Accumulators != 0 {
		t.Fatalf("detector_incremental.accumulators = %d after rejected requests, want 0", st.Detector.Accumulators)
	}
}

// condGet fetches url with an optional If-None-Match and returns the
// status, the ETag and the body.
func condGet(t *testing.T, url, inm string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

// TestCongestionETagRoundTrip is the acceptance check of
// docs/SERVING.md §7: a repeat request with If-None-Match against an
// unchanged store costs a 304 and zero detector runs, and a store
// write both invalidates the tag and serves fresh bytes.
func TestCongestionETagRoundTrip(t *testing.T) {
	ts, db, srv := newServerAPI(t)
	seedCongestion(db, 50)
	url := fmt.Sprintf("%s/api/v1/congestion?link=L&vp=v&from=%s&days=50",
		ts.URL, netsim.Epoch.Format(time.RFC3339))

	status, etag, _ := condGet(t, url, "")
	if status != 200 || etag == "" {
		t.Fatalf("first GET: status %d etag %q", status, etag)
	}
	if got := srv.CongestionComputes(); got != 1 {
		t.Fatalf("computes after first GET = %d, want 1", got)
	}

	// Conditional repeat: 304, empty body, and — the point — the
	// detector did not run again.
	status, etag304, body304 := condGet(t, url, etag)
	if status != 304 {
		t.Fatalf("conditional GET: status %d, want 304", status)
	}
	if body304 != "" {
		t.Fatalf("304 carried a body: %q", body304)
	}
	if etag304 != etag {
		t.Fatalf("304 ETag %q != %q", etag304, etag)
	}
	if got := srv.CongestionComputes(); got != 1 {
		t.Fatalf("computes after 304 = %d, want 1 (detector ran on a conditional hit)", got)
	}

	// A write to a contributing series moves the ViewStamp: the old tag
	// no longer matches, the response is recomputed and retagged.
	db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, netsim.Day(1), 70)
	status, etag2, body2 := condGet(t, url, etag)
	if status != 200 {
		t.Fatalf("post-write conditional GET: status %d, want 200", status)
	}
	if etag2 == etag {
		t.Fatal("ETag unchanged after an invalidating write")
	}
	if body2 == "" {
		t.Fatal("post-write 200 carried no body")
	}
	// The stamp moved, so the detector ran again — recomputation, not a
	// stale serve (the bytes may legitimately come out identical).
	if got := srv.CongestionComputes(); got != 2 {
		t.Fatalf("computes after invalidating write = %d, want 2", got)
	}
}

func TestQueryETagRoundTrip(t *testing.T) {
	ts, db := newServer(t)
	db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, netsim.Epoch, 1)
	url := fmt.Sprintf("%s/api/v1/query?m=tslp&from=%s&to=%s",
		ts.URL,
		netsim.Epoch.Add(-time.Hour).Format(time.RFC3339),
		netsim.Epoch.Add(time.Hour).Format(time.RFC3339))

	status, etag, _ := condGet(t, url, "")
	if status != 200 || etag == "" {
		t.Fatalf("first GET: status %d etag %q", status, etag)
	}
	if status, _, _ := condGet(t, url, etag); status != 304 {
		t.Fatalf("conditional GET status %d, want 304", status)
	}
	// A weak-prefixed or multi-tag header still matches.
	if status, _, _ := condGet(t, url, `"zzz", W/`+etag); status != 304 {
		t.Fatalf("multi-tag conditional GET status %d, want 304", status)
	}
	db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, netsim.Epoch.Add(time.Minute), 2)
	if status, _, _ := condGet(t, url, etag); status != 200 {
		t.Fatal("stale ETag still matched after a write")
	}
}

func TestDashboardIndexETag(t *testing.T) {
	ts, db := newServer(t)
	db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"}, netsim.Epoch, 1)

	status, etag, body := condGet(t, ts.URL+"/dashboard", "")
	if status != 200 || etag == "" {
		t.Fatalf("index GET: status %d etag %q", status, etag)
	}
	if !contains(body, "L") {
		t.Fatal("index missing the seeded link")
	}
	if status, _, _ := condGet(t, ts.URL+"/dashboard", etag); status != 304 {
		t.Fatalf("conditional index GET status %d, want 304", status)
	}
	db.Write("tslp", map[string]string{"vp": "v", "link": "M", "side": "far"}, netsim.Epoch, 1)
	status, etag2, body2 := condGet(t, ts.URL+"/dashboard", etag)
	if status != 200 || etag2 == etag {
		t.Fatalf("post-write index GET: status %d etag %q (old %q)", status, etag2, etag)
	}
	if !contains(body2, "M") {
		t.Fatal("post-write index missing the new link")
	}
}

// queryResponse mirrors api.QueryResponse for decoding.
type queryResponse struct {
	Series    []json.RawMessage `json:"series"`
	Total     int               `json:"total"`
	Limit     int               `json:"limit"`
	Offset    int               `json:"offset"`
	Truncated bool              `json:"truncated"`
}

func TestQueryPagination(t *testing.T) {
	ts, db := newServer(t)
	const nSeries = 6
	for i := 0; i < nSeries; i++ {
		db.Write("tslp", map[string]string{"link": fmt.Sprintf("l%d", i), "side": "far"}, netsim.Epoch, float64(i))
	}
	base := fmt.Sprintf("%s/api/v1/query?m=tslp&from=%s&to=%s",
		ts.URL,
		netsim.Epoch.Add(-time.Hour).Format(time.RFC3339),
		netsim.Epoch.Add(time.Hour).Format(time.RFC3339))

	get := func(extra string) queryResponse {
		t.Helper()
		var qr queryResponse
		if code := getJSON(t, base+extra, &qr); code != 200 {
			t.Fatalf("GET %s: status %d", extra, code)
		}
		return qr
	}

	cases := []struct {
		name      string
		extra     string
		series    int
		total     int
		limit     int
		offset    int
		truncated bool
	}{
		{"default limit", "", nSeries, nSeries, api.DefaultQueryLimit, 0, false},
		{"first page", "&limit=4", 4, nSeries, 4, 0, true},
		{"second page", "&limit=4&offset=4", 2, nSeries, 4, 4, false},
		{"offset past end", "&limit=4&offset=100", 0, nSeries, 4, 100, false},
		{"limit zero is metadata-only", "&limit=0", 0, nSeries, 0, 0, true},
		{"limit clamped", fmt.Sprintf("&limit=%d", api.MaxQueryLimit*10), nSeries, nSeries, api.MaxQueryLimit, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			qr := get(c.extra)
			if len(qr.Series) != c.series || qr.Total != c.total ||
				qr.Limit != c.limit || qr.Offset != c.offset || qr.Truncated != c.truncated {
				t.Fatalf("got series=%d total=%d limit=%d offset=%d truncated=%v, want %d/%d/%d/%d/%v",
					len(qr.Series), qr.Total, qr.Limit, qr.Offset, qr.Truncated,
					c.series, c.total, c.limit, c.offset, c.truncated)
			}
		})
	}

	// Series must be [] (never null) even when empty, so clients can
	// range over it unconditionally.
	_, body := getBody(t, base+"&limit=4&offset=100")
	if !contains(body, `"series":[]`) {
		t.Fatalf("empty page does not marshal series as []: %s", body)
	}
	// The two pages partition the full set: no series repeats.
	p1, p2 := get("&limit=4"), get("&limit=4&offset=4")
	seen := map[string]bool{}
	for _, raw := range append(p1.Series, p2.Series...) {
		if seen[string(raw)] {
			t.Fatalf("series repeated across pages: %s", raw)
		}
		seen[string(raw)] = true
	}
	if len(seen) != nSeries {
		t.Fatalf("pages cover %d series, want %d", len(seen), nSeries)
	}
}

func TestHealthStandalone(t *testing.T) {
	ts, db := newServer(t)
	db.Write("tslp", map[string]string{"link": "L", "side": "far"}, netsim.Epoch, 1)

	var hr struct {
		Status       string          `json:"status"`
		StoreVersion uint64          `json:"store_version"`
		Generation   uint64          `json:"generation"`
		Series       int             `json:"series"`
		Points       int             `json:"points"`
		Replication  json.RawMessage `json:"replication"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/health", &hr); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if hr.Status != "ok" || hr.Series != 1 || hr.Points != 1 {
		t.Fatalf("health %+v", hr)
	}
	if hr.Replication != nil {
		t.Fatalf("standalone server reports replication: %s", hr.Replication)
	}
}

// TestHealthFollower drives the follower-facing health contract: 503
// with status "starting" and an unavailable error detail before any
// snapshot is applied, 200 with the lag fields after.
func TestHealthFollower(t *testing.T) {
	db := tsdb.Open()
	var rh api.ReplicationHealth
	srv := api.New(db, api.WithReplication(func() api.ReplicationHealth { return rh }))
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	rh = api.ReplicationHealth{Leader: "http://leader", LastSyncAgeSeconds: -1}
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var cold struct {
		Status string `json:"status"`
		Error  struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cold); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold follower health status %d, want 503", resp.StatusCode)
	}
	if cold.Status != "starting" || cold.Error.Code != "unavailable" {
		t.Fatalf("cold follower health %+v", cold)
	}

	rh = api.ReplicationHealth{
		Leader: "http://leader", LeaderGeneration: 3, AppliedGeneration: 2,
		LagGenerations: 1, LastSyncAgeSeconds: 0.5,
	}
	var warm struct {
		Status      string                 `json:"status"`
		Replication *api.ReplicationHealth `json:"replication"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/health", &warm); code != 200 {
		t.Fatalf("warm follower health status %d", code)
	}
	if warm.Status != "ok" || warm.Replication == nil ||
		warm.Replication.LagGenerations != 1 || warm.Replication.AppliedGeneration != 2 {
		t.Fatalf("warm follower health %+v", warm)
	}

	// Stats carries the same replication block.
	var st struct {
		Replication *api.ReplicationHealth `json:"replication"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != 200 {
		t.Fatal("stats failed")
	}
	if st.Replication == nil || st.Replication.LeaderGeneration != 3 {
		t.Fatalf("stats replication %+v", st.Replication)
	}
}
