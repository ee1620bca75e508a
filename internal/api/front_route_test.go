package api

// Route outcome table and pooled-body integrity for the scatter front
// (docs/SERVING.md §9): every combination of what the primary and the
// second candidate do pins who serves, with which status, which
// counters move, which loser is cancelled, and that no attempt outlives
// its request.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrontRouteOutcomes(t *testing.T) {
	const (
		hedgeAfter = 100 * time.Millisecond
		// A slow primary answers well after the hedge timer; a slow
		// second candidate answers well after a slow primary.
		slowPrimary = 500 * time.Millisecond
		slowSecond  = time.Second
	)
	// Roles: p is the primary, h the second candidate (hedge or retry
	// target), x the third. A behavior is "" (answers 200), "404",
	// "500", "down" (the listener is closed after the health poll: a
	// transport error), "die" (a mid-body death) or "slow".
	type counts struct{ routed, hedged, retried uint64 }
	cases := []struct {
		name      string
		n         int
		p, h      string
		status    int
		servedBy  string            // role, "" for none
		counters  map[string]counts // per role; a missing role has all zero
		cancelled string            // roles whose handler must see its context die
	}{
		{"ok", 2, "", "", 200, "p", map[string]counts{"p": {1, 0, 0}}, ""},
		{"ok", 3, "", "", 200, "p", map[string]counts{"p": {1, 0, 0}}, ""},
		{"4xx", 2, "404", "", 404, "p", map[string]counts{"p": {1, 0, 0}}, ""},
		{"4xx", 3, "404", "", 404, "p", map[string]counts{"p": {1, 0, 0}}, ""},

		{"5xx/ok", 2, "500", "", 200, "h", map[string]counts{"h": {1, 0, 1}}, ""},
		{"5xx/ok", 3, "500", "", 200, "h", map[string]counts{"h": {1, 0, 1}}, ""},
		{"5xx/5xx", 2, "500", "500", 503, "", map[string]counts{"h": {0, 0, 1}}, ""},
		{"5xx/5xx", 3, "500", "500", 503, "", map[string]counts{"h": {0, 0, 1}}, ""},
		{"5xx/slow", 2, "500", "slow", 200, "h", map[string]counts{"h": {1, 0, 1}}, ""},
		{"5xx/slow", 3, "500", "slow", 200, "x", map[string]counts{"h": {0, 0, 1}, "x": {1, 1, 0}}, "h"},

		{"down/ok", 2, "down", "", 200, "h", map[string]counts{"h": {1, 0, 1}}, ""},
		{"down/ok", 3, "down", "", 200, "h", map[string]counts{"h": {1, 0, 1}}, ""},
		{"down/5xx", 2, "down", "500", 503, "", map[string]counts{"h": {0, 0, 1}}, ""},
		{"down/5xx", 3, "down", "500", 503, "", map[string]counts{"h": {0, 0, 1}}, ""},
		{"down/slow", 3, "down", "slow", 200, "x", map[string]counts{"h": {0, 0, 1}, "x": {1, 1, 0}}, "h"},

		{"die/ok", 2, "die", "", 200, "h", map[string]counts{"h": {1, 0, 1}}, ""},
		{"die/ok", 3, "die", "", 200, "h", map[string]counts{"h": {1, 0, 1}}, ""},
		{"die/5xx", 2, "die", "500", 503, "", map[string]counts{"h": {0, 0, 1}}, ""},
		{"die/slow", 3, "die", "slow", 200, "x", map[string]counts{"h": {0, 0, 1}, "x": {1, 1, 0}}, "h"},

		{"slow/ok", 2, "slow", "", 200, "h", map[string]counts{"h": {1, 1, 0}}, "p"},
		{"slow/ok", 3, "slow", "", 200, "h", map[string]counts{"h": {1, 1, 0}}, "p"},
		{"slow/5xx", 2, "slow", "500", 200, "p", map[string]counts{"p": {1, 0, 0}, "h": {0, 1, 0}}, ""},
		{"slow/5xx", 3, "slow", "500", 200, "x", map[string]counts{"h": {0, 1, 0}, "x": {1, 0, 1}}, "p"},
		{"slow/slow", 2, "slow", "slow", 200, "p", map[string]counts{"p": {1, 0, 0}, "h": {0, 1, 0}}, "h"},
		{"slow/slow", 3, "slow", "slow", 200, "p", map[string]counts{"p": {1, 0, 0}, "h": {0, 1, 0}}, "h"},
	}

	baseline := runtime.NumGoroutine()
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%d", tc.name, tc.n), func(t *testing.T) {
			roles := []string{"p", "h", "x"}[:tc.n]
			reps := map[string]*fakeReplica{}
			for _, role := range roles {
				reps[role] = newFakeReplica(t, role, 5, 0)
			}
			for role, behavior := range map[string]string{"p": tc.p, "h": tc.h} {
				switch behavior {
				case "slow":
					reps[role].delay = slowPrimary
					if role == "h" {
						reps[role].delay = slowSecond
					}
				case "down":
				default:
					reps[role].mode.Store(behavior)
				}
			}
			// A fresh front's first pick starts its rotation at index 1,
			// so listing the last role first makes the candidates p, h, x.
			order := []*fakeReplica{reps[roles[tc.n-1]]}
			for _, role := range roles[:tc.n-1] {
				order = append(order, reps[role])
			}
			// The front's own transport, so its idle connections close
			// with the case; the fakes close in their cleanups.
			transport := &http.Transport{}
			defer transport.CloseIdleConnections()
			f := newTestFront(t, FrontOptions{HedgeAfter: hedgeAfter, Client: &http.Client{Transport: transport}}, order...)
			if tc.p == "down" {
				reps["p"].ts.Close()
			}

			rec := get(t, f, "/api/v1/query?m=x")
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			want := ""
			if tc.servedBy != "" {
				want = reps[tc.servedBy].ts.URL
			}
			if got := rec.Header().Get(ServedByHeader); got != want {
				t.Fatalf("X-Served-By %q, want %q (%s)", got, want, tc.servedBy)
			}
			// Losers first: a cancelled handler leaves at once, an
			// uncancelled slow one only when its delay runs out.
			deadline := time.Now().Add(5 * time.Second)
			for _, role := range roles {
				for reps[role].active.Load() != 0 {
					if time.Now().After(deadline) {
						t.Fatalf("replica %s still has %d in-flight handlers", role, reps[role].active.Load())
					}
					time.Sleep(time.Millisecond)
				}
				wantCancelled := int64(0)
				if strings.Contains(tc.cancelled, role) {
					wantCancelled = 1
				}
				if got := reps[role].cancelled.Load(); got != wantCancelled {
					t.Errorf("replica %s saw %d cancelled requests, want %d", role, got, wantCancelled)
				}
			}
			byURL := map[string]string{}
			for role, fr := range reps {
				byURL[fr.ts.URL] = role
			}
			for _, row := range f.frontStats().Replicas {
				role := byURL[row.Replica]
				got := counts{row.Routed, row.Hedged, row.Retried}
				if want := tc.counters[role]; got != want {
					t.Errorf("replica %s: routed/hedged/retried %v, want %v", role, got, want)
				}
			}
		})
	}

	// No attempt, timer or connection outlives the table.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the table:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrontPooledBodiesStayIntact drives concurrent reads of distinct
// bodies through a front served on a real listener — small, large,
// over the pooled-buffer cap, and chunked — and checks every client
// body byte for byte, so a body buffer handed back for reuse while a
// client write still reads it shows as corrupt bytes or a race.
func TestFrontPooledBodiesStayIntact(t *testing.T) {
	sizes := []int{0, 1, 100, 4095, 4096, 10_000, 65_536, 300_000, 1 << 20, 1<<20 + 1, 3 << 19}
	const chunkedLen = 50_000
	bodyFor := func(i, n int) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(int64(i + 1))).Read(b)
		return b
	}
	bodies := make([][]byte, len(sizes)+1)
	for i, n := range sizes {
		bodies[i] = bodyFor(i, n)
	}
	chunked := len(sizes)
	bodies[chunked] = bodyFor(chunked, chunkedLen)

	replica := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/health" {
			writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Generation: 1})
			return
		}
		i, err := strconv.Atoi(r.URL.Query().Get("i"))
		if err != nil || i < 0 || i >= len(bodies) {
			writeError(w, http.StatusBadRequest, "bad i")
			return
		}
		body := bodies[i]
		if i == chunked {
			// Two flushed writes and no length: the body goes out chunked.
			_, _ = w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			_, _ = w.Write(body[len(body)/2:])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.HandlerFunc(replica))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	f, err := NewFront(urls, FrontOptions{HedgeAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.PollNow(context.Background())
	front := httptest.NewServer(f)
	defer front.Close()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for k := 0; k < perClient; k++ {
				i := rng.Intn(len(bodies))
				resp, err := http.Get(front.URL + "/api/v1/query?i=" + strconv.Itoa(i))
				if err != nil {
					errs <- err
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, bodies[i]) {
					errs <- fmt.Errorf("body %d (%d bytes): status %d, %d bytes back, identical %v",
						i, len(bodies[i]), resp.StatusCode, len(got), bytes.Equal(got, bodies[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
