package api

// White-box tests for the error envelope machinery (errors.go): the
// status→code mapping, the envelope writers, and the conditional-
// request helpers — including the 422/unprocessable path, which the
// HTTP handlers only reach defensively — plus the request metrics'
// overflow latency bucket (metrics.go).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"interdomain/internal/readcache"
)

func TestCodeForStatus(t *testing.T) {
	cases := []struct {
		status int
		want   ErrorCode
	}{
		{http.StatusBadRequest, CodeBadRequest},
		{http.StatusNotFound, CodeNotFound},
		{http.StatusUnprocessableEntity, CodeUnprocessable},
		{http.StatusServiceUnavailable, CodeUnavailable},
		{http.StatusTeapot, CodeBadRequest}, // unlisted 4xx
		{http.StatusInternalServerError, CodeInternal},
		{http.StatusBadGateway, CodeInternal},
	}
	for _, c := range cases {
		if got := codeForStatus(c.status); got != c.want {
			t.Errorf("codeForStatus(%d) = %q, want %q", c.status, got, c.want)
		}
	}
}

func TestWriteComputeErrorEnvelope(t *testing.T) {
	// A statusError out of a cached computation keeps its status and
	// maps to the matching stable code.
	rec := httptest.NewRecorder()
	writeComputeError(rec, statusError{http.StatusUnprocessableEntity, "too little data"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not an envelope: %v", err)
	}
	if env.Error.Code != CodeUnprocessable || env.Error.Message != "too little data" {
		t.Fatalf("envelope %+v", env)
	}

	// Any other error is an internal 500.
	rec = httptest.NewRecorder()
	writeComputeError(rec, json.Unmarshal([]byte("{"), &env))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeInternal {
		t.Fatalf("envelope %+v (%v)", env, err)
	}
}

func TestETagForDistinguishesKeys(t *testing.T) {
	base := readcache.Key{Kind: "query", ID: "tslp", From: 1, To: 2, Stamp: 3, Limit: 500}
	etag := etagFor(base)
	if len(etag) < 4 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Fatalf("etag %q is not a quoted strong tag", etag)
	}
	if etagFor(base) != etag {
		t.Fatal("etagFor is not deterministic")
	}
	for name, k := range map[string]readcache.Key{
		"stamp":  {Kind: "query", ID: "tslp", From: 1, To: 2, Stamp: 4, Limit: 500},
		"limit":  {Kind: "query", ID: "tslp", From: 1, To: 2, Stamp: 3, Limit: 100},
		"offset": {Kind: "query", ID: "tslp", From: 1, To: 2, Stamp: 3, Limit: 500, Offset: 7},
		"kind":   {Kind: "congestion", ID: "tslp", From: 1, To: 2, Stamp: 3, Limit: 500},
	} {
		if etagFor(k) == etag {
			t.Errorf("key differing in %s shares the ETag", name)
		}
	}
}

func TestClientHasCurrent(t *testing.T) {
	etag := `"abc123"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{`"abc123"`, true},
		{`"zzz"`, false},
		{"*", true},
		{`"zzz", "abc123"`, true},
		{`W/"abc123"`, true},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if c.header != "" {
			r.Header.Set("If-None-Match", c.header)
		}
		if got := clientHasCurrent(r, etag); got != c.want {
			t.Errorf("clientHasCurrent(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestLatencyOverflowBucket pins the wire form docs/SERVING.md §4
// specifies for a request slower than the last bucket bound: one
// bucket with le_ms -1.
func TestLatencyOverflowBucket(t *testing.T) {
	m := newMetrics()
	m.endpoint("congestion").observe(3*time.Second, http.StatusOK)
	st := m.snapshot()["congestion"]
	if len(st.LatencyMs) != 1 || st.LatencyMs[0].LeMs != -1 || st.LatencyMs[0].Count != 1 {
		t.Fatalf("3s request: latency buckets %+v, want one overflow bucket {LeMs:-1 Count:1}", st.LatencyMs)
	}
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"latency_ms":[{"le_ms":-1,"count":1}]`) {
		t.Fatalf("overflow bucket JSON %s", body)
	}
}
