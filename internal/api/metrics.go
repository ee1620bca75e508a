package api

// Per-endpoint request metrics for /api/v1/stats (docs/SERVING.md §4):
// lock-free counters and a fixed-bucket latency histogram, cheap enough
// to sit on every request of a serving tier built for heavy traffic.

import (
	"net/http"
	"sync/atomic"
	"time"
)

// latencyBucketsMs are the histogram's upper bounds in milliseconds,
// roughly geometric so one set of buckets resolves both a cached hit
// (tens of microseconds) and a cold 50-day detector run (tens of
// milliseconds and up). A final overflow bucket catches everything
// slower than the last bound.
var latencyBucketsMs = [...]float64{0.1, 0.5, 2, 8, 32, 128, 512, 2048}

// endpointMetrics accumulates one endpoint's counters.
type endpointMetrics struct {
	count   atomic.Uint64
	errors  atomic.Uint64
	buckets [len(latencyBucketsMs) + 1]atomic.Uint64
}

// observe records one request's latency and status.
func (em *endpointMetrics) observe(d time.Duration, status int) {
	em.count.Add(1)
	if status >= http.StatusBadRequest {
		em.errors.Add(1)
	}
	ms := float64(d) / float64(time.Millisecond)
	for i, le := range latencyBucketsMs {
		if ms <= le {
			em.buckets[i].Add(1)
			return
		}
	}
	em.buckets[len(latencyBucketsMs)].Add(1)
}

// metrics holds every endpoint's counters. The name set is fixed at
// registration time, so lookups after that are read-only map accesses —
// no lock on the request path.
type metrics struct {
	endpoints map[string]*endpointMetrics
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

// endpoint registers the named endpoint's counters. Only called during
// Server construction, once per name, before any request runs.
func (m *metrics) endpoint(name string) *endpointMetrics {
	em := &endpointMetrics{}
	m.endpoints[name] = em
	return em
}

// HistBucket is one latency histogram bucket. LeMs is the bucket's
// inclusive upper bound in milliseconds; the overflow bucket reports
// LeMs = -1 (no bound).
type HistBucket struct {
	// LeMs is the inclusive upper bound in milliseconds, -1 for the
	// overflow bucket.
	LeMs float64 `json:"le_ms"`
	// Count is the number of requests that fell in this bucket.
	Count uint64 `json:"count"`
}

// EndpointStats is one endpoint's metrics snapshot in /api/v1/stats.
type EndpointStats struct {
	// Count is the total number of requests handled.
	Count uint64 `json:"count"`
	// Errors counts responses with status >= 400.
	Errors uint64 `json:"errors"`
	// LatencyMs is the request latency histogram.
	LatencyMs []HistBucket `json:"latency_ms"`
}

// snapshot captures every endpoint's counters. Buckets with zero count
// are elided to keep the payload small.
func (m *metrics) snapshot() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(m.endpoints))
	for name, em := range m.endpoints {
		st := EndpointStats{Count: em.count.Load(), Errors: em.errors.Load()}
		for i := range em.buckets {
			n := em.buckets[i].Load()
			if n == 0 {
				continue
			}
			le := -1.0
			if i < len(latencyBucketsMs) {
				le = latencyBucketsMs[i]
			}
			st.LatencyMs = append(st.LatencyMs, HistBucket{LeMs: le, Count: n})
		}
		out[name] = st
	}
	return out
}

// statusWriter records the status code a handler writes so the metrics
// middleware can count errors without changing handler code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code and forwards it.
func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}
