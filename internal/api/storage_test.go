package api_test

// /api/v1/stats and /api/v1/health storage reporting: a server built
// with WithStorageDir exposes its segment directory's on-disk state
// (bytes, segment count, format versions; docs/SERVING.md §4), and one
// built without it omits the field entirely.

import (
	"net/http/httptest"
	"testing"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

// newHTTP wraps a hand-built Server in an httptest listener.
func newHTTP(t *testing.T, srv *api.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// snapshotDir seeds a store and snapshots it to a fresh directory,
// returning the directory for WithStorageDir.
func snapshotDir(t *testing.T, db *tsdb.DB) string {
	t.Helper()
	for h := 0; h < 48; h++ {
		at := netsim.Epoch.Add(time.Duration(h) * time.Hour)
		db.Write("tslp", map[string]string{"vp": "a", "side": "far"}, at, float64(h))
		db.Write("tslp", map[string]string{"vp": "a", "side": "near"}, at, float64(h)/2)
	}
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStatsAndHealthReportStorage(t *testing.T) {
	db := tsdb.Open()
	dir := snapshotDir(t, db)
	srv := api.New(db, api.WithStorageDir(dir))
	t.Cleanup(srv.Close)
	ts := newHTTP(t, srv)

	var stats api.StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	st := stats.Storage
	if st == nil {
		t.Fatal("stats omitted storage despite WithStorageDir")
	}
	if st.Segments == 0 || st.Bytes == 0 || st.Points == 0 {
		t.Fatalf("storage not populated: %+v", st)
	}

	var health api.HealthResponse
	if code := getJSON(t, ts.URL+"/api/v1/health", &health); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if health.Storage == nil || health.Storage.Generation != st.Generation {
		t.Fatalf("health storage = %+v, want generation %d", health.Storage, st.Generation)
	}
}

func TestStorageOmittedWithoutDir(t *testing.T) {
	ts, db := newServer(t)
	db.Write("tslp", map[string]string{"vp": "a"}, netsim.Epoch, 1)

	var stats api.StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Storage != nil {
		t.Fatalf("storage reported without WithStorageDir: %+v", stats.Storage)
	}
	var raw map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/stats", &raw); code != 200 {
		t.Fatal("second stats request failed")
	}
	if _, ok := raw["storage"]; ok {
		t.Fatal("storage key serialized despite being unset (want omitempty)")
	}
}

// TestStorageSurvivesUnreadableDir: the stats/health endpoints must
// keep answering when the directory is mid-commit or gone — the field
// is dropped, not turned into a 500.
func TestStorageSurvivesUnreadableDir(t *testing.T) {
	db := tsdb.Open()
	db.Write("tslp", map[string]string{"vp": "a"}, netsim.Epoch, 1)
	srv := api.New(db, api.WithStorageDir(t.TempDir())) // no manifest ever written
	t.Cleanup(srv.Close)
	ts := newHTTP(t, srv)

	var stats api.StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Storage != nil {
		t.Fatalf("storage reported for a directory with no manifest: %+v", stats.Storage)
	}
	if code := getJSON(t, ts.URL+"/api/v1/health", nil); code != 200 {
		t.Fatalf("health status %d", code)
	}
}
