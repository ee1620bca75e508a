package api

// Tests for the scatter query front (docs/SERVING.md §9): routing
// follows health and generation lag, a killed replica is routed around
// with zero client-visible 5xx, a replica dying mid-body triggers a
// retry on a distinct replica, an all-stale fleet serves the freshest
// replica flagged with a Warning header, and a hedged request's loser
// is cancelled promptly without leaking work. Test names carry "Front"
// so CI's fleet-smoke job can select the suite.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"interdomain/internal/tsdb"
)

// fakeReplica is a scripted replica: fixed health payload, counted
// data responses, optional failure modes.
type fakeReplica struct {
	name       string
	generation uint64
	leaderLag  uint64
	healthErr  bool // health answers 503
	ts         *httptest.Server

	served atomic.Uint64
	// mode switches the data endpoint's behavior: "" normal, "die"
	// sets a Content-Length then aborts mid-body, "500" answers 500,
	// "404" answers a not_found envelope.
	mode atomic.Value
	// active tracks in-flight data requests; the hedging test uses it
	// to prove the loser is cancelled.
	active atomic.Int64
	// cancelled counts data requests whose context died during delay.
	cancelled atomic.Int64
	// delay stalls data responses until the request context dies or
	// the delay elapses.
	delay time.Duration
}

func newFakeReplica(t *testing.T, name string, gen, lag uint64) *fakeReplica {
	fr := &fakeReplica{name: name, generation: gen, leaderLag: lag}
	fr.mode.Store("")
	fr.ts = httptest.NewServer(http.HandlerFunc(fr.serve))
	t.Cleanup(fr.ts.Close)
	return fr
}

func (fr *fakeReplica) serve(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/api/v1/health":
		resp := HealthResponse{
			Status:     "ok",
			Generation: fr.generation,
			Replication: &ReplicationHealth{
				AppliedGeneration: fr.generation,
				LagGenerations:    fr.leaderLag,
			},
		}
		if fr.healthErr {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(resp)
		return
	case "/api/v1/stats":
		_ = json.NewEncoder(w).Encode(map[string]interface{}{
			"congestion_computes": 7,
			"endpoints":           map[string]interface{}{},
		})
		return
	}
	fr.active.Add(1)
	defer fr.active.Add(-1)
	if fr.delay > 0 {
		select {
		case <-r.Context().Done():
			fr.cancelled.Add(1)
			return
		case <-time.After(fr.delay):
		}
	}
	switch fr.mode.Load().(string) {
	case "die":
		// Promise a long body, deliver a fragment, abort: the client
		// sees an unexpected EOF, not a valid short response.
		w.Header().Set("Content-Length", "4096")
		_, _ = w.Write([]byte("partial"))
		panic(http.ErrAbortHandler)
	case "500":
		http.Error(w, "boom", http.StatusInternalServerError)
		return
	case "404":
		writeError(w, http.StatusNotFound, "no such thing")
		return
	}
	fr.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"replica":%q}`, fr.name)
}

// newTestFront builds a front over the replicas and runs one poll.
func newTestFront(t *testing.T, opts FrontOptions, reps ...*fakeReplica) *Front {
	t.Helper()
	urls := make([]string, len(reps))
	for i, fr := range reps {
		urls[i] = fr.ts.URL
	}
	f, err := NewFront(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.PollNow(context.Background())
	return f
}

// get issues one request through the front and returns the recorder.
func get(t *testing.T, f *Front, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// countStats sums hedge and retry counters across the fleet.
func countStats(f *Front) (hedged, retried uint64) {
	for _, row := range f.frontStats().Replicas {
		hedged += row.Hedged
		retried += row.Retried
	}
	return
}

func TestFrontRoutesToHealthyReplicas(t *testing.T) {
	a := newFakeReplica(t, "a", 5, 0)
	b := newFakeReplica(t, "b", 5, 0)
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second}, a, b)

	for i := 0; i < 10; i++ {
		rec := get(t, f, "/api/v1/query?m=x")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body)
		}
		if rec.Header().Get(ServedByHeader) == "" {
			t.Fatal("missing X-Served-By")
		}
		if rec.Header().Get(ReplicaLagHeader) != "0" {
			t.Fatalf("X-Replica-Lag = %q", rec.Header().Get(ReplicaLagHeader))
		}
	}
	if a.served.Load() == 0 || b.served.Load() == 0 {
		t.Fatalf("round robin did not spread: a=%d b=%d", a.served.Load(), b.served.Load())
	}
}

func TestFrontSkipsLaggingReplica(t *testing.T) {
	fresh := newFakeReplica(t, "fresh", 10, 0)
	stale := newFakeReplica(t, "stale", 10, 4) // 4 generations behind its leader
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second, StalenessLag: 1}, fresh, stale)

	for i := 0; i < 6; i++ {
		rec := get(t, f, "/api/v1/query?m=x")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	if stale.served.Load() != 0 {
		t.Fatalf("stale replica served %d requests", stale.served.Load())
	}
	if fresh.served.Load() != 6 {
		t.Fatalf("fresh replica served %d of 6", fresh.served.Load())
	}
}

func TestFrontAllStaleServesFreshestWithWarning(t *testing.T) {
	worse := newFakeReplica(t, "worse", 3, 9)
	better := newFakeReplica(t, "better", 7, 5)
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second, StalenessLag: 1}, worse, better)

	rec := get(t, f, "/api/v1/query?m=x")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if w := rec.Header().Get("Warning"); !strings.Contains(w, "staleness") {
		t.Fatalf("Warning = %q", w)
	}
	if !strings.Contains(rec.Body.String(), `"better"`) {
		t.Fatalf("served %s, want the freshest replica", rec.Body)
	}
	if rec.Header().Get(ReplicaLagHeader) != "5" {
		t.Fatalf("X-Replica-Lag = %q", rec.Header().Get(ReplicaLagHeader))
	}
}

func TestFrontNoReplicasAvailable(t *testing.T) {
	down := newFakeReplica(t, "down", 0, 0)
	down.healthErr = true
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second}, down)

	rec := get(t, f, "/api/v1/query?m=x")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("not an error envelope: %s", rec.Body)
	}
	if env.Error.Code != CodeUnavailable || env.Error.Message == "" {
		t.Fatalf("envelope %+v", env)
	}

	// The front's own health mirrors the verdict.
	rec = get(t, f, "/api/v1/health")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("front health status %d", rec.Code)
	}
}

func TestFrontRetriesMidBodyDeathOnDistinctReplica(t *testing.T) {
	dying := newFakeReplica(t, "dying", 5, 0)
	dying.mode.Store("die")
	good := newFakeReplica(t, "good", 5, 0)
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second}, dying, good)

	for i := 0; i < 8; i++ {
		rec := get(t, f, "/api/v1/query?m=x")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(ServedByHeader); got != good.ts.URL {
			t.Fatalf("served by %q, want the surviving replica", got)
		}
	}
	if good.served.Load() == 0 {
		t.Fatal("surviving replica saw no traffic")
	}
	if _, retried := countStats(f); retried == 0 {
		t.Fatal("mid-body death produced no retries")
	}
}

func TestFrontRetries5xxOnDistinctReplica(t *testing.T) {
	bad := newFakeReplica(t, "bad", 5, 0)
	bad.mode.Store("500")
	good := newFakeReplica(t, "good", 5, 0)
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second}, bad, good)

	for i := 0; i < 8; i++ {
		rec := get(t, f, "/api/v1/query?m=x")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if _, retried := countStats(f); retried == 0 {
		t.Fatalf("no retries recorded: %+v", f.frontStats())
	}
}

func TestFront4xxPassesThrough(t *testing.T) {
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/health" {
			_ = json.NewEncoder(w).Encode(HealthResponse{Status: "ok", Generation: 5})
			return
		}
		writeError(w, http.StatusNotFound, "no such thing")
	}))
	defer notFound.Close()

	f, err := NewFront([]string{notFound.URL}, FrontOptions{HedgeAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.PollNow(context.Background())
	rec := get(t, f, "/api/v1/congestion?link=nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 pass-through", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeNotFound {
		t.Fatalf("envelope not preserved: %s", rec.Body)
	}
	if _, retried := countStats(f); retried != 0 {
		t.Fatal("4xx must not trigger a retry")
	}
}

func TestFrontKilledReplicaZero5xx(t *testing.T) {
	a := newFakeReplica(t, "a", 5, 0)
	b := newFakeReplica(t, "b", 5, 0)
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second}, a, b)

	// Kill replica a outright: transport errors, not HTTP errors.
	a.ts.Close()

	// Before the next health poll the front may still route to the
	// corpse — the retry path must absorb that with zero client 5xx.
	for i := 0; i < 10; i++ {
		rec := get(t, f, "/api/v1/query?m=x")
		if rec.Code >= 500 {
			t.Fatalf("request %d leaked a %d to the client", i, rec.Code)
		}
	}

	// After one poll (one health interval), the dead replica is out of
	// rotation entirely.
	f.PollNow(context.Background())
	for i := 0; i < 10; i++ {
		rec := get(t, f, "/api/v1/query?m=x")
		if rec.Code != http.StatusOK {
			t.Fatalf("post-poll request %d: status %d", i, rec.Code)
		}
		if got := rec.Header().Get(ServedByHeader); got != b.ts.URL {
			t.Fatalf("served by %q after death of a", got)
		}
	}
}

func TestFrontHedgesToSecondReplicaAndCancelsLoser(t *testing.T) {
	slow := newFakeReplica(t, "slow", 5, 0)
	slow.delay = 2 * time.Second
	fast := newFakeReplica(t, "fast", 5, 0)
	f := newTestFront(t, FrontOptions{HedgeAfter: 20 * time.Millisecond}, slow, fast)

	// Pin the rotation: each pick (including the probe) advances the
	// round-robin cursor, so exit when the probe saw the fast replica —
	// the next pick, the request's own, then leads with the slow one.
	for slowIsPrimary(f, slow.ts.URL) {
	}
	start := time.Now()
	rec := get(t, f, "/api/v1/query?m=x")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"fast"`) {
		t.Fatalf("served %s, want the hedge winner", rec.Body)
	}
	if elapsed > time.Second {
		t.Fatalf("hedge did not fire: request took %s", elapsed)
	}
	if hedged, _ := countStats(f); hedged == 0 {
		t.Fatal("hedge counter not incremented")
	}
	// Loser cancellation: the slow replica's handler must observe the
	// context cancel and exit long before its 2s sleep — no abandoned
	// handler, no leaked connection.
	deadline := time.Now().Add(time.Second)
	for slow.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow replica still has %d in-flight handlers after cancel", slow.active.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// slowIsPrimary reports whether the next pick's primary is the given
// URL, consuming one rotation step per call.
func slowIsPrimary(f *Front, url string) bool {
	cands, _ := f.pick()
	return len(cands) > 0 && cands[0].rep.url == url
}

func TestFrontStatsInjection(t *testing.T) {
	a := newFakeReplica(t, "a", 5, 0)
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second}, a)

	get(t, f, "/api/v1/query?m=x") // generate one routed count
	rec := get(t, f, "/api/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["congestion_computes"]; !ok {
		t.Fatal("replica stats fields lost")
	}
	var fs FrontStats
	if err := json.Unmarshal(doc["front"], &fs); err != nil {
		t.Fatalf("front block: %v", err)
	}
	if len(fs.Replicas) != 1 || fs.Replicas[0].Routed == 0 {
		t.Fatalf("front block %+v", fs)
	}
}

func TestFrontHealthPeers(t *testing.T) {
	a := newFakeReplica(t, "a", 7, 0)
	down := newFakeReplica(t, "down", 0, 0)
	down.healthErr = true
	f := newTestFront(t, FrontOptions{HedgeAfter: time.Second}, a, down)

	rec := get(t, f, "/api/v1/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Replication == nil || len(h.Replication.Peers) != 2 {
		t.Fatalf("peers missing: %s", rec.Body)
	}
	var healthy, unhealthy int
	for _, p := range h.Replication.Peers {
		if p.Role != "replica" {
			t.Fatalf("peer role %q", p.Role)
		}
		if p.Healthy {
			healthy++
		} else {
			unhealthy++
		}
	}
	if healthy != 1 || unhealthy != 1 {
		t.Fatalf("peer verdicts: %d healthy, %d unhealthy", healthy, unhealthy)
	}
	if h.Generation != 7 {
		t.Fatalf("front generation %d", h.Generation)
	}
}

// TestFrontAgainstRealServers is the end-to-end shape: real api.Server
// replicas over a real store behind the front, checking a routed query
// body matches a direct one and that replica error envelopes survive
// the trip.
func TestFrontAgainstRealServers(t *testing.T) {
	db := tsdb.Open()
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for m := 0; m < 120; m++ {
		db.Write("tslp", map[string]string{"link": "l1", "side": "far", "vp": "v"},
			base.Add(time.Duration(m)*time.Minute), float64(m%7))
	}
	s1, s2 := New(db), New(db)
	defer s1.Close()
	defer s2.Close()
	ts1, ts2 := httptest.NewServer(s1), httptest.NewServer(s2)
	defer ts1.Close()
	defer ts2.Close()

	f, err := NewFront([]string{ts1.URL, ts2.URL}, FrontOptions{HedgeAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.PollNow(context.Background())

	const q = "/api/v1/query?m=tslp&from=2016-03-01T00:00:00Z&to=2016-03-02T00:00:00Z"
	direct := httptest.NewRecorder()
	s1.ServeHTTP(direct, httptest.NewRequest(http.MethodGet, q, nil))
	routed := get(t, f, q)
	if routed.Code != http.StatusOK {
		t.Fatalf("routed status %d body %s", routed.Code, routed.Body)
	}
	if direct.Body.String() != routed.Body.String() {
		t.Fatal("routed body differs from direct body")
	}
	// Error envelopes survive the front unchanged too.
	bad := get(t, f, "/api/v1/query?m=")
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("bad request status %d", bad.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(bad.Body.Bytes(), &env); err != nil || env.Error.Code != CodeBadRequest {
		t.Fatalf("envelope: %s", bad.Body)
	}
}
