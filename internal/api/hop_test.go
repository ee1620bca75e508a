package api

// Tests for the front hop's byte path (docs/SERVING.md §9): every body
// either tier writes carries an exact Content-Length and a 304 none, a
// chunked replica body still round-trips and a cut one is retried, the
// replica sees the client's request-target verbatim, the adaptive hedge
// timer is the p90 of the last 64 primary latencies, and the inline
// ETag hash equals its hash/fnv formula.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"interdomain/internal/readcache"
	"interdomain/internal/tsdb"
)

// getBody fetches url over the network and returns the response with
// its body read.
func getBody(t *testing.T, url string, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestBodiesCarryExactContentLength(t *testing.T) {
	db := tsdb.Open()
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for m := 0; m < 120; m++ {
		db.Write("tslp", map[string]string{"link": "l1", "side": "far", "vp": "v"},
			base.Add(time.Duration(m)*time.Minute), float64(m%7)+0.25)
	}
	s := New(db)
	defer s.Close()
	replica := httptest.NewServer(s)
	defer replica.Close()
	f, err := NewFront([]string{replica.URL}, FrontOptions{HedgeAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.PollNow(context.Background())
	front := httptest.NewServer(f)
	defer front.Close()

	const q = "/api/v1/query?m=tslp&from=2016-03-01T00:00:00Z&to=2016-03-02T00:00:00Z"
	for _, tier := range []struct{ name, url string }{{"replica", replica.URL}, {"front", front.URL}} {
		for _, path := range []string{q, "/api/v1/stats", "/api/v1/health", "/api/v1/measurements", "/api/v1/query?m="} {
			resp, body := getBody(t, tier.url+path)
			if resp.ContentLength != int64(len(body)) || resp.TransferEncoding != nil {
				t.Errorf("%s %s: Content-Length %d, transfer %v, %d body bytes",
					tier.name, path, resp.ContentLength, resp.TransferEncoding, len(body))
			}
			if path == q && len(body) <= 2048 {
				t.Fatalf("query body is %d bytes; it must pass net/http's 2 KB chunking threshold", len(body))
			}
		}
		resp, _ := getBody(t, tier.url+q)
		etag := resp.Header.Get("ETag")
		resp, body := getBody(t, tier.url+q, "If-None-Match", etag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("Content-Length") != "" {
			t.Errorf("%s 304: status %d, Content-Length %q, %d body bytes",
				tier.name, resp.StatusCode, resp.Header.Get("Content-Length"), len(body))
		}
	}
	// The handler itself sets no Content-Length on a 304.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
	req := httptest.NewRequest(http.MethodGet, q, nil)
	req.Header.Set("If-None-Match", rec.Header().Get("ETag"))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("replica 304: status %d, Content-Length %q", rec.Code, rec.Header().Get("Content-Length"))
	}
}

// chunkedReplica answers health and writes every data body in flushed
// 1 KB pieces, so it goes out chunked with no Content-Length. With cut
// set it aborts after half the body.
func chunkedReplica(t *testing.T, body []byte, cut bool) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/health" {
			_ = json.NewEncoder(w).Encode(HealthResponse{Status: "ok", Generation: 1})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		for off := 0; off < len(body); off += 1024 {
			if cut && off >= len(body)/2 {
				panic(http.ErrAbortHandler)
			}
			_, _ = w.Write(body[off:min(off+1024, len(body))])
			w.(http.Flusher).Flush()
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestFrontRoundTripsChunkedReplicaBody(t *testing.T) {
	body := make([]byte, 5000)
	for i := range body {
		body[i] = "0123456789abcdef"[(i*7)%16]
	}
	good := chunkedReplica(t, body, false)
	if resp, got := getBody(t, good.URL+"/api/v1/query"); resp.ContentLength != -1 || string(got) != string(body) {
		t.Fatalf("fake replica: Content-Length %d, %d bytes: not a chunked body", resp.ContentLength, len(got))
	}
	cut := chunkedReplica(t, body, true)
	f, err := NewFront([]string{cut.URL, good.URL}, FrontOptions{HedgeAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.PollNow(context.Background())
	front := httptest.NewServer(f)
	defer front.Close()
	for i := 0; i < 6; i++ {
		resp, got := getBody(t, front.URL+"/api/v1/query?m=x")
		if resp.StatusCode != http.StatusOK || string(got) != string(body) {
			t.Fatalf("request %d: status %d, %d body bytes, want the replica's %d", i, resp.StatusCode, len(got), len(body))
		}
		if resp.ContentLength != int64(len(body)) || resp.Header.Get(ServedByHeader) != good.URL {
			t.Fatalf("request %d: Content-Length %d, served by %q", i, resp.ContentLength, resp.Header.Get(ServedByHeader))
		}
	}
	if _, retried := countStats(f); retried == 0 {
		t.Fatal("a chunked body cut mid-way produced no retries")
	}
}

func TestFrontForwardsRequestTargetVerbatim(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/health" {
			_ = json.NewEncoder(w).Encode(HealthResponse{Status: "ok", Generation: 1})
			return
		}
		mu.Lock()
		seen = append(seen, r.RequestURI)
		mu.Unlock()
		fmt.Fprint(w, "{}")
	}))
	defer rep.Close()
	f, err := NewFront([]string{rep.URL}, FrontOptions{HedgeAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.PollNow(context.Background())
	front := httptest.NewServer(f)
	defer front.Close()
	last := func() string {
		mu.Lock()
		defer mu.Unlock()
		return seen[len(seen)-1]
	}

	// Raw request lines, so no client library re-encodes the target on
	// the way in: escaped slashes, pluses raw and escaped, repeated and
	// empty parameters.
	for _, target := range []string{
		"/api/v1/query?m=tslp&link=a%2Fb&q=x+y&vp=1&vp=2",
		"/api/v1/q%2Fx/y?m=a+b&m=a%2Bb&m=",
		"/api/v1/query?from=2016-03-01T00:00:00%2B00:00&&to",
	} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(front.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: front\r\nConnection: close\r\n\r\n", target)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", target, resp.StatusCode)
		}
		if got := last(); got != target {
			t.Errorf("replica saw %q, client sent %q", got, target)
		}
	}
	// An absolute-form target is forwarded as its origin form.
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://front.example/api/v1/query?m=a+b&vp=1&vp=2", nil))
	if got := last(); rec.Code != http.StatusOK || got != "/api/v1/query?m=a+b&vp=1&vp=2" {
		t.Fatalf("absolute form: status %d, replica saw %q", rec.Code, got)
	}
}

// hedgeFormula is the adaptive hedge timer's definition: the p90 of
// the last 64 primary latencies, floored at hedgeFloor, and the floor
// itself while fewer than 8 exist.
func hedgeFormula(samples []time.Duration) time.Duration {
	if len(samples) > latencyWindow {
		samples = samples[len(samples)-latencyWindow:]
	}
	if len(samples) < 8 {
		return hedgeFloor
	}
	tmp := append([]time.Duration(nil), samples...)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return max(tmp[len(tmp)*9/10], hedgeFloor)
}

func TestFrontHedgeTimerFollowsLatencies(t *testing.T) {
	f, err := NewFront([]string{"http://127.0.0.1:1"}, FrontOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// observe feeds one sample and checks the timer against the formula
	// after it: the timer keeps no lag.
	var samples []time.Duration
	observe := func(d time.Duration) {
		t.Helper()
		f.observeLatency(d)
		samples = append(samples, d)
		if got, want := f.hedgeDelay(), hedgeFormula(samples); got != want {
			t.Fatalf("after %d samples (last %v): hedge %v, formula %v", len(samples), d, got, want)
		}
	}
	expect := func(want time.Duration) {
		t.Helper()
		if got := f.hedgeDelay(); got != want {
			t.Fatalf("after %d samples: hedge %v, want %v", len(samples), got, want)
		}
	}
	// Fewer than 8 samples: the floor, however slow they are.
	for i := 0; i < 7; i++ {
		observe(time.Second)
	}
	expect(hedgeFloor)
	observe(time.Second)
	expect(time.Second)
	// 64 fast samples push every slow one out of the window: the floor.
	for i := 0; i < 64; i++ {
		observe(time.Millisecond)
	}
	expect(hedgeFloor)
	// 40..103 ms in a shuffled order: the p90 is the 58th smallest.
	for _, i := range rand.New(rand.NewSource(1)).Perm(64) {
		observe(time.Duration(40+i) * time.Millisecond)
	}
	expect(97 * time.Millisecond)
	// A random sequence with repeats and outliers.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Intn(60)) * time.Millisecond
		if rng.Intn(10) == 0 {
			d = time.Duration(rng.Intn(1e9))
		}
		observe(d)
	}
	// A fixed HedgeAfter overrides every observation.
	fixed, err := NewFront([]string{"http://127.0.0.1:1"}, FrontOptions{HedgeAfter: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fixed.observeLatency(time.Second)
	}
	if got := fixed.hedgeDelay(); got != 3*time.Millisecond {
		t.Fatalf("fixed hedge %v, want 3ms", got)
	}
}

// TestFrontHedgeTimerConcurrentObservers feeds the timer from several
// goroutines while others read it (run it under -race): the sorted copy
// must still hold exactly the ring's samples afterwards.
func TestFrontHedgeTimerConcurrentObservers(t *testing.T) {
	f, err := NewFront([]string{"http://127.0.0.1:1"}, FrontOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				f.observeLatency(time.Duration(rng.Intn(100)) * time.Millisecond)
				if d := f.hedgeDelay(); d < hedgeFloor {
					t.Errorf("hedge %v below the floor", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	ring := append([]time.Duration(nil), f.lats[:f.latN]...)
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	if !slices.Equal(ring, f.latSort[:f.latN]) {
		t.Fatal("sorted copy no longer holds the ring's samples")
	}
	if got, want := f.hedgeDelay(), hedgeFormula(ring); got != want {
		t.Fatalf("hedge %v, formula over the ring %v", got, want)
	}
}

func TestEtagForMatchesFNVFormula(t *testing.T) {
	formula := func(key readcache.Key) string {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d",
			key.Kind, key.ID, key.From, key.To, key.Days, key.CfgHash, key.Stamp, key.Limit, key.Offset)
		return fmt.Sprintf("\"%016x\"", h.Sum64())
	}
	rng := rand.New(rand.NewSource(3))
	str := func(n int) string {
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	i64 := func() int64 { return rng.Int63() >> rng.Intn(64) * int64(1-2*rng.Intn(2)) }
	for i := 0; i < 5000; i++ {
		key := readcache.Key{
			Kind: str(12), ID: str(300),
			From: i64(), To: i64(), Days: int(i64()),
			CfgHash: rng.Uint64() >> rng.Intn(64), Stamp: rng.Uint64(),
			Limit: int(i64()), Offset: int(i64()),
		}
		if got, want := etagFor(key), formula(key); got != want {
			t.Fatalf("etagFor(%+v) = %s, formula %s", key, got, want)
		}
	}
}
