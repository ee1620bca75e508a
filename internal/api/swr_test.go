package api_test

// End-to-end tests for the incremental congestion detector and the
// stale-while-revalidate serving path (docs/DETECTION.md §4, §7): the
// long-lived server's incrementally advanced responses must be
// byte-identical to a cold server's batch recomputation across random
// write/restart/retention schedules, and SWR must answer a stamp-change
// miss with the superseded body (marked stale) while the refresh runs
// in the background.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

// doGet drives a server directly (no listener) and returns status,
// body, and headers.
func doGet(t *testing.T, srv *api.Server, path string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body), res.Header
}

// TestCongestionIncrementalMatchesBatch is the serving-tier equivalence
// guarantee (docs/DETECTION.md §4): a long-lived server advancing one
// persistent accumulator across a random schedule of appends,
// out-of-order and out-of-window writes, retention trims and
// snapshot/restore cycles serves, at every step, the byte-identical
// congestion body a freshly started server (whose new accumulator must
// fold the window from scratch — the batch path) produces over the same
// store.
func TestCongestionIncrementalMatchesBatch(t *testing.T) {
	const days = 4
	congPath := fmt.Sprintf("/api/v1/congestion?link=L&vp=v&from=%s&days=%d",
		netsim.Epoch.Format(time.RFC3339), days)
	end := netsim.Day(days)

	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := tsdb.Open()
			live := api.New(db)
			defer live.Close()
			rng := netsim.NewRNG(seed)
			write := func(side string, at time.Time, v float64) {
				db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": side}, at, v)
			}
			value := func(b int) float64 {
				v := 40 + 5*rng.Float64()
				if h := b / 4; h >= 18 && h < 22 {
					v += 30
				}
				return v
			}
			cursor := 0 // next 15-minute slot to append
			for step := 0; step < 25; step++ {
				switch p := rng.Float64(); {
				case p < 0.55: // append a burst of fresh slots
					for i := 0; i < 4+rng.Intn(8) && cursor < days*96; i++ {
						at := netsim.Epoch.Add(time.Duration(cursor) * 15 * time.Minute)
						write("far", at, value(cursor%96))
						write("near", at, 5+rng.Float64())
						cursor++
					}
				case p < 0.70: // out-of-order backfill
					if cursor > 1 {
						b := rng.Intn(cursor - 1)
						write("far", netsim.Epoch.Add(time.Duration(b)*15*time.Minute+time.Minute), value(b%96))
					}
				case p < 0.80: // out-of-window write (moves versions, not bins)
					write("far", end.Add(time.Duration(rng.Intn(48))*time.Hour), 99)
				case p < 0.90: // retention trim of the window's head
					db.Retain(netsim.Epoch.Add(time.Duration(rng.Intn(12))*time.Hour), end.Add(72*time.Hour))
				default: // snapshot/restore hot-swap (epoch bump)
					dir := t.TempDir()
					if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
						t.Fatal(err)
					}
					if err := db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
						t.Fatal(err)
					}
				}

				code, liveBody, _ := doGet(t, live, congPath)
				if code != http.StatusOK {
					t.Fatalf("step %d: live server status %d: %s", step, code, liveBody)
				}
				batch := api.New(db)
				code, batchBody, _ := doGet(t, batch, congPath)
				batch.Close()
				if code != http.StatusOK {
					t.Fatalf("step %d: batch server status %d: %s", step, code, batchBody)
				}
				if liveBody != batchBody {
					t.Fatalf("step %d: incremental body diverged from batch\nincremental: %s\nbatch:       %s",
						step, liveBody, batchBody)
				}
			}
		})
	}
}

// TestCongestionStaleWhileRevalidate exercises the SWR contract
// (docs/DETECTION.md §7): after a write invalidates a cached congestion
// body, the next request is served the superseded body immediately —
// X-Stale, Warning, and the predecessor's ETag — while the refresh runs
// in the background; once the refresh lands, requests serve the fresh
// body without stale markers.
func TestCongestionStaleWhileRevalidate(t *testing.T) {
	db := tsdb.Open()
	srv := api.New(db, api.WithStaleWhileRevalidate(time.Hour))
	defer srv.Close()
	seedCongestion(db, 50)
	path := fmt.Sprintf("/api/v1/congestion?link=L&vp=v&from=%s&days=50",
		netsim.Epoch.Format(time.RFC3339))

	code, body1, hdr1 := doGet(t, srv, path)
	if code != http.StatusOK {
		t.Fatalf("prime: status %d", code)
	}
	if hdr1.Get("X-Stale") != "" {
		t.Fatalf("fresh compute marked stale")
	}
	etag1 := hdr1.Get("ETag")

	// Invalidate: any write to a contributing series moves the stamp.
	db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"},
		netsim.Day(49).Add(23*time.Hour+50*time.Minute), 21)

	code, body2, hdr2 := doGet(t, srv, path)
	if code != http.StatusOK {
		t.Fatalf("stale serve: status %d", code)
	}
	if hdr2.Get("X-Stale") != "true" {
		t.Fatalf("stamp-change miss not served stale (X-Stale=%q)", hdr2.Get("X-Stale"))
	}
	if w := hdr2.Get("Warning"); w != `110 - "stale-while-revalidate"` {
		t.Fatalf("Warning header %q", w)
	}
	if hdr2.Get("ETag") != etag1 {
		t.Fatalf("stale response ETag %q, want the predecessor's %q", hdr2.Get("ETag"), etag1)
	}
	if body2 != body1 {
		t.Fatal("stale serve did not return the superseded body verbatim")
	}

	// The refresh runs in the background; wait for it to land, then the
	// fresh body must serve without stale markers under a new ETag.
	deadline := time.Now().Add(5 * time.Second)
	for srv.CacheStats().BackgroundRefreshes == 0 || srv.CongestionComputes() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background refresh never ran: cache=%+v computes=%d",
				srv.CacheStats(), srv.CongestionComputes())
		}
		time.Sleep(time.Millisecond)
	}
	var hdr3 http.Header
	for {
		var code int
		code, _, hdr3 = doGet(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("post-refresh: status %d", code)
		}
		if hdr3.Get("X-Stale") == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refresh completed but requests still serve stale")
		}
		time.Sleep(time.Millisecond)
	}
	if hdr3.Get("ETag") == etag1 {
		t.Fatal("post-refresh response still carries the predecessor's ETag")
	}
	st := srv.CacheStats()
	if st.StaleServes == 0 || st.BackgroundRefreshes == 0 {
		t.Fatalf("SWR counters did not move: %+v", st)
	}
}

// TestStatsDetectorAndSince checks the stats payload's since field and
// the detector_incremental block (docs/DETECTION.md §6): counters move
// with detector work, an unchanged-store repeat is served from cache
// without another fold, and a post-write request folds incrementally
// rather than recomputing in full.
func TestStatsDetectorAndSince(t *testing.T) {
	ts, db, _ := newServerAPI(t)
	seedCongestion(db, 50)
	url := fmt.Sprintf("%s/api/v1/congestion?link=L&vp=v&from=%s&days=50",
		ts.URL, netsim.Epoch.Format(time.RFC3339))

	stats := func() api.StatsResponse {
		var out api.StatsResponse
		if code := getJSON(t, ts.URL+"/api/v1/stats", &out); code != 200 {
			t.Fatalf("stats status %d", code)
		}
		return out
	}
	if s0 := stats(); s0.Since.IsZero() || time.Since(s0.Since) > time.Hour {
		t.Fatalf("since %v not a recent start time", s0.Since)
	}

	if code := getJSON(t, url, nil); code != 200 {
		t.Fatalf("congestion status %d", code)
	}
	s1 := stats()
	d1 := s1.Detector
	if d1.Accumulators != 1 || d1.Folds != 1 || d1.FullRecomputes != 1 || d1.PointsFolded == 0 {
		t.Fatalf("first compute: detector stats %+v", d1)
	}

	// Unchanged store: served from cache, no new fold.
	if code := getJSON(t, url, nil); code != 200 {
		t.Fatalf("repeat status %d", code)
	}
	if d2 := stats().Detector; d2.Folds != 1 {
		t.Fatalf("cache hit advanced the detector: %+v", d2)
	}

	// One new in-window point: the next compute folds incrementally —
	// one advance, no full recompute, a handful of points.
	db.Write("tslp", map[string]string{"vp": "v", "link": "L", "side": "far"},
		netsim.Day(49).Add(23*time.Hour+50*time.Minute), 21)
	if code := getJSON(t, url, nil); code != 200 {
		t.Fatalf("post-write status %d", code)
	}
	d3 := stats().Detector
	if d3.Folds != 2 || d3.FullRecomputes != 1 {
		t.Fatalf("post-write advance not incremental: %+v", d3)
	}
	if grew := d3.PointsFolded - d1.PointsFolded; grew != 1 {
		t.Fatalf("incremental advance folded %d points, want 1", grew)
	}
	if d3.StaleServes != 0 || d3.BackgroundRefreshes != 0 {
		t.Fatalf("SWR counters moved without WithStaleWhileRevalidate: %+v", d3)
	}
}
