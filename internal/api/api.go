// Package api exposes the time-series store over HTTP, playing the role
// of the system's public query API (§1 contribution 4: "interactive
// visualization interface and query API to encourage reproducibility").
//
// Endpoints (all JSON):
//
//	GET /api/v1/measurements                 list measurement names
//	GET /api/v1/tags?m=<meas>&tag=<key>      distinct tag values
//	GET /api/v1/query?m=<meas>&from=<rfc3339>&to=<rfc3339>&<tagK>=<tagV>...
//	     raw series pages; add &agg=count,min,max,sum,mean&step=1h for
//	     per-bucket aggregates served from block summaries where
//	     possible (docs/PERSISTENCE.md §10)
//	GET /api/v1/congestion?m=tslp&link=...&vp=...&from=...&days=N
//	     run the autocorrelation pipeline over stored TSLP data
//	     (1 <= N <= 730, default 50)
//	GET /api/v1/stats                        cache + endpoint metrics
//	GET /api/v1/health                       readiness + replication lag
//	GET /dashboard[?link=...&vp=...&from=...&days=N]
//	     HTML link index, or one link's latency chart (dashboard.go)
//	GET /healthz
//
// The read path is versioned (docs/SERVING.md): query, congestion and
// dashboard responses are computed from zero-copy tsdb views, memoized
// in an internal/readcache keyed by the contributing series'
// write-versions, and concurrent identical requests coalesce onto one
// computation — so repeat traffic against an unchanged store serves
// cached bytes and a write to any contributing series invalidates
// exactly the affected results.
//
// The HTTP contract (docs/SERVING.md §7) is uniform: every error is
// the {"error":{"code","message"}} envelope with a stable code;
// cacheable responses carry a strong ETag derived from their cache key
// and honor If-None-Match with 304 — all of them through serveCached;
// /api/v1/query responses are bounded by limit/offset with
// total/truncated metadata.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/pipeline"
	"interdomain/internal/readcache"
	"interdomain/internal/tsdb"
)

// Server wires the store into an http.Handler.
type Server struct {
	// DB is the store the server reads from.
	DB *tsdb.DB

	mux   *http.ServeMux
	cache *readcache.Cache
	pool  *pipeline.Pool
	met   *metrics
	cfg   serverConfig

	// det and cols hold the persistent incremental detector state
	// behind /api/v1/congestion (docs/DETECTION.md §3): one accumulator
	// per window, one column of shared bins per link and grid. The
	// detector_incremental counters of /api/v1/stats sit alongside
	// (docs/DETECTION.md §6). Every detector run is exactly one advance,
	// so detFolds is also the congestion_computes count: with coalescing
	// and caching it grows strictly slower than the request count.
	det               *lru[detKey, *detState]
	cols              *lru[colKey, *analysis.BinColumn]
	detFolds          atomic.Uint64
	detPointsFolded   atomic.Uint64
	detFullRecomputes atomic.Uint64
	detUnchanged      atomic.Uint64

	// started is the construction time, reported as the stats payload's
	// "since" field so counter rates have a denominator
	// (docs/SERVING.md §4).
	started time.Time

	closeOnce sync.Once
}

// Option customizes New.
type Option func(*serverConfig)

type serverConfig struct {
	// replication, when set (WithReplication), reports the follower's
	// position for /api/v1/health and /api/v1/stats.
	replication func() ReplicationHealth
	// storageDir, when set (WithStorageDir), is summarized into the
	// Storage field of /api/v1/health and /api/v1/stats responses.
	storageDir string
	swr        bool
	swrBudget  time.Duration
}

// WithReplication marks the server as a replication follower: fn is
// polled on every /api/v1/health and /api/v1/stats request for the
// follower's position, and health answers 503 until a leader snapshot
// has been applied (docs/SERVING.md §8).
func WithReplication(fn func() ReplicationHealth) Option {
	return func(c *serverConfig) { c.replication = fn }
}

// WithStorageDir names the segment directory the serving store was
// restored from (or a follower replicates into). /api/v1/stats and
// /api/v1/health then report what is on disk — bytes, segment count,
// compaction depth — next to the generation they already expose. The
// directory is summarized per request, so a snapshot, retention or
// compaction pass landing between requests is visible immediately.
func WithStorageDir(dir string) Option {
	return func(c *serverConfig) { c.storageDir = dir }
}

// WithStaleWhileRevalidate turns on stale-while-revalidate serving for
// /api/v1/congestion (docs/DETECTION.md §7): a stamp-change miss whose
// predecessor body is still cached and at most budget old is answered
// with that superseded body immediately — marked with an X-Stale header,
// a Warning header, and the predecessor's ETag — while one deduplicated
// background recompute runs on the server's worker pool. budget <= 0
// means no staleness bound.
func WithStaleWhileRevalidate(budget time.Duration) Option {
	return func(c *serverConfig) {
		c.swr = true
		c.swrBudget = budget
	}
}

// New returns a server over db. Callers that create servers in a loop
// should Close them to release the analysis worker pool.
func New(db *tsdb.DB, opts ...Option) *Server {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		DB:      db,
		mux:     http.NewServeMux(),
		cache:   readcache.New(0),
		pool:    pipeline.NewPool(0),
		met:     newMetrics(),
		cfg:     cfg,
		det:     newLRU[detKey](DefaultDetectorCapacity, closeDetState),
		cols:    newLRU[colKey, *analysis.BinColumn](DefaultColumnBytes, nil),
		started: time.Now(),
	}
	if cfg.swr {
		s.cache.EnableSWR(s.pool.Go, cfg.swrBudget)
	}
	s.handle("/api/v1/measurements", "measurements", s.handleMeasurements)
	s.handle("/api/v1/tags", "tags", s.handleTags)
	s.handle("/api/v1/query", "query", s.handleQuery)
	s.handle("/api/v1/congestion", "congestion", s.handleCongestion)
	s.handle("/api/v1/stats", "stats", s.handleStats)
	s.handle("/api/v1/health", "health", s.handleHealth)
	s.handle(dashboardPath, "dashboard", s.handleDashboard)
	s.handle("/healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s
}

// handle registers a handler wrapped with per-endpoint request counting
// and latency observation (docs/SERVING.md §4).
func (s *Server) handle(pattern, name string, h http.HandlerFunc) {
	em := s.met.endpoint(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		em.observe(time.Since(t0), sw.code)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the server's worker pool. The server must not serve
// requests after Close.
func (s *Server) Close() {
	s.closeOnce.Do(func() { s.pool.Close() })
}

// CacheStats returns the read cache's counters; benchmarks and tests
// use it alongside /api/v1/stats.
func (s *Server) CacheStats() readcache.Stats { return s.cache.Stats() }

// PurgeCache drops every cached read-path result. Benchmarks use it to
// measure the cold path on a warm process.
func (s *Server) PurgeCache() { s.cache.Purge() }

// CongestionComputes reports how many detector runs the congestion
// endpoint has actually executed (as opposed to served from cache or a
// coalesced flight).
func (s *Server) CongestionComputes() uint64 { return s.detFolds.Load() }

// bufPool recycles encode buffers across requests so steady-state
// serving does not grow a fresh buffer per response.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeBody marshals v with encoding/json's Encoder (trailing newline
// included) into a standalone byte slice the cache can hold.
func encodeBody(v interface{}) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// writeJSON encodes v first and only then touches the ResponseWriter:
// an encoding failure yields a clean 500 instead of an error body
// trailing a status header and half-written JSON.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := encodeBody(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeBody(w, status, body)
}

// writeBody sends body with an exact Content-Length, so no body goes
// out chunked and the front reads each into one buffer of the right
// size (docs/SERVING.md §9).
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// serveCached answers one cacheable request (docs/SERVING.md §3, §7),
// the only place the chain exists: the strong ETag from key; 304 when
// If-None-Match already names it, before any cache lookup or store
// read; otherwise the body from the read cache, compute (which returns
// the encoded body as a []byte) running on a miss. With stale set, a
// stamp-change miss may be answered with the superseded body
// (docs/DETECTION.md §7), sent under its own ETag and marked with
// Warning and X-Stale. A compute error is the §7 envelope.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key readcache.Key, contentType string, stale bool, compute func() (any, error)) {
	etag := etagFor(key)
	if clientHasCurrent(r, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var v any
	var res readcache.Result
	var err error
	if stale {
		v, res, err = s.cache.DoStale(key, compute)
	} else {
		v, _, err = s.cache.Do(key, compute)
	}
	if err != nil {
		writeComputeError(w, err)
		return
	}
	if res.Stale {
		etag = etagFor(res.ServedKey)
		w.Header().Set("Warning", `110 - "stale-while-revalidate"`)
		w.Header().Set("X-Stale", "true")
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", contentType)
	writeBody(w, http.StatusOK, v.([]byte))
}

func (s *Server) handleMeasurements(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"measurements": s.DB.Measurements()})
}

func (s *Server) handleTags(w http.ResponseWriter, r *http.Request) {
	m := r.URL.Query().Get("m")
	tag := r.URL.Query().Get("tag")
	if m == "" || tag == "" {
		writeError(w, http.StatusBadRequest, "need m and tag parameters")
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"values": s.DB.TagValues(m, tag)})
}

// QuerySeries is one series in a query response. The handler writes
// the document these types describe straight from the store's columns
// (encode.go); clients decode into them.
type QuerySeries struct {
	Tags   map[string]string `json:"tags"`
	Times  []time.Time       `json:"times"`
	Values []float64         `json:"values"`
}

// Pagination bounds for /api/v1/query (docs/SERVING.md §7). Every
// response is capped: a request naming no limit gets DefaultQueryLimit
// series, and no request gets more than MaxQueryLimit.
const (
	// DefaultQueryLimit is the series-per-response cap applied when the
	// request names no limit.
	DefaultQueryLimit = 500
	// MaxQueryLimit is the hard cap; larger requested limits are
	// clamped to it, not rejected.
	MaxQueryLimit = 5000
)

// QueryResponse is the /api/v1/query payload: one page of matching
// series plus enough pagination metadata (total, truncated) for a
// client to walk the full result set (docs/SERVING.md §7).
type QueryResponse struct {
	// Series is the page of matching series; never null (an empty page
	// marshals as []).
	Series []QuerySeries `json:"series"`
	// Total is the number of matching series before paging.
	Total int `json:"total"`
	// Limit and Offset echo the page bounds the response was built
	// with, after defaulting and clamping.
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
	// Truncated reports whether series beyond this page exist
	// (offset+len(series) < total).
	Truncated bool `json:"truncated"`
}

// pageOf returns the limit-bounded page of all starting at offset,
// empty when offset is past the end.
func pageOf[T any](all []T, limit, offset int) []T {
	if offset >= len(all) {
		return nil
	}
	page := all[offset:]
	if len(page) > limit {
		page = page[:limit]
	}
	return page
}

// handleQuery serves /api/v1/query: raw series pages, or — when agg or
// step is present — per-bucket aggregates (aggregate.go), both keyed by
// the ViewStamp over the tag filter.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	p := parseParams(r)
	m := p.Required("m")
	from, to := p.Time("from"), p.Time("to")
	limit, offset := p.Page()
	agg, vb := p.Agg(), p.ValueBound()
	if p.Check(w) {
		return
	}
	filter := p.TagFilter()
	key := readcache.Key{
		Kind:   "query",
		ID:     tsdb.Key(m, filter),
		From:   from.UnixNano(),
		To:     to.UnixNano(),
		Stamp:  s.DB.ViewStamp(m, filter),
		Limit:  limit,
		Offset: offset,
	}
	if agg != nil {
		// The function set and step join the identity through the ID
		// suffix, under their own kind so raw and aggregate responses
		// never share bytes.
		key.Kind = "agg"
		key.ID += "|agg=" + strings.Join(agg.names, ",") + "|step=" + agg.step.String()
		s.serveCached(w, r, key, "application/json", false, func() (any, error) {
			return s.computeAggregate(m, filter, from, to, agg, limit, offset)
		})
		return
	}
	// A value bound participates in the cache identity but not in the
	// tag filter; an unbounded query keeps its pre-bound key bytes.
	if vb != nil {
		key.ID += fmt.Sprintf("|v[%g,%g]", vb.Min, vb.Max)
	}
	s.serveCached(w, r, key, "application/json", false, func() (any, error) {
		views := s.DB.QueryViewWhere(m, filter, from, to, vb)
		page := pageOf(views, limit, offset)
		return appendBody(func(dst []byte) ([]byte, error) {
			return appendQueryBody(dst, page, len(views), limit, offset)
		})
	})
}

// CongestionResponse reports the autocorrelation analysis over stored TSLP
// data for one link.
type CongestionResponse struct {
	Recurring bool      `json:"recurring"`
	Reject    string    `json:"reject_reason,omitempty"`
	Days      []DayJSON `json:"days"`
}

// DayJSON is one day's classification.
type DayJSON struct {
	Day       string  `json:"day"`
	Congested bool    `json:"congested"`
	Fraction  float64 `json:"fraction"`
}

// maxCongestionDays caps the congestion window. The detector registry
// allocates an accumulator sized by the window before it reads any
// data, so an unbounded days parameter would let one request pin
// arbitrary memory; two years covers the paper's 650-day study.
const maxCongestionDays = 730

// linkFilter is the tag filter selecting a link's TSLP series: one side
// or both (side ""), one vantage point or all of them (vp "").
func linkFilter(link, side, vp string) map[string]string {
	f := map[string]string{"link": link}
	if side != "" {
		f["side"] = side
	}
	if vp != "" {
		f["vp"] = vp
	}
	return f
}

// handleCongestion serves /api/v1/congestion: a miss is one detector
// run (advanceDetector), the only response stale service applies to.
func (s *Server) handleCongestion(w http.ResponseWriter, r *http.Request) {
	p := parseParams(r)
	link, vp := p.Required("link"), p.Get("vp")
	from := p.Time("from")
	days := p.IntInRange("days", 50, 1, maxCongestionDays)
	if p.Check(w) {
		return
	}
	cfg := analysis.DefaultAutocorr()
	cfg.WindowDays = days

	key := readcache.Key{
		Kind:    "congestion",
		ID:      link + "\x00" + vp,
		From:    from.UnixNano(),
		Days:    days,
		CfgHash: cfg.Hash(),
		Stamp:   s.DB.ViewStamp("tslp", linkFilter(link, "", vp)),
	}
	s.serveCached(w, r, key, "application/json", true, func() (any, error) {
		return s.advanceDetector(link, vp, from, cfg, key.Stamp)
	})
}

// StatsResponse is the /api/v1/stats payload: read-cache counters,
// detector-run count, the store's modification counter, and
// per-endpoint request metrics (docs/SERVING.md §4).
type StatsResponse struct {
	// Since is when this server started; every counter in the payload
	// is cumulative from this instant (docs/SERVING.md §4), so two
	// samples of the endpoint — or one sample and Since — give rates.
	Since time.Time `json:"since"`
	// Cache holds the read cache's hit/miss/eviction/coalesce counters.
	Cache readcache.Stats `json:"cache"`
	// CongestionComputes counts actual detector runs (cache misses that
	// executed, not coalesced joiners).
	CongestionComputes uint64 `json:"congestion_computes"`
	// Detector reports the incremental detector registry's counters:
	// accumulators, folds, points folded, full recomputes, unchanged
	// advances, and the stale-while-revalidate serve/refresh counts
	// (docs/DETECTION.md §6).
	Detector DetectorStats `json:"detector_incremental"`
	// StoreVersion is tsdb.StoreVersion: moves on every store mutation.
	StoreVersion uint64 `json:"store_version"`
	// Generation is the manifest generation of the store's last
	// snapshot or restore (0 if never persisted).
	Generation uint64 `json:"generation"`
	// Replication reports the follower's replication position; absent
	// on a leader or standalone server.
	Replication *ReplicationHealth `json:"replication,omitempty"`
	// Storage summarizes the on-disk segment directory (bytes, segment
	// count, compaction depth); absent when the server was not given one
	// (WithStorageDir) or the directory holds no committed manifest yet.
	Storage *tsdb.DirInfo `json:"storage,omitempty"`
	// LazyRead reports the lazy read path's block-prune and cache
	// counters (blocks scanned vs skipped, decodes, segment reuse across
	// hot-swaps); absent unless the store is lazily open
	// (docs/PERSISTENCE.md §9, docs/SERVING.md §4).
	LazyRead *tsdb.LazyStats `json:"lazy_read,omitempty"`
	// Endpoints maps endpoint name to its request metrics.
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// storageInfo summarizes the configured segment directory, or nil when
// none is configured or it has no committed manifest yet (a follower
// before its first applied generation). Errors are deliberately folded
// into nil: stats and health must answer even when the disk state is
// mid-commit.
func (s *Server) storageInfo() *tsdb.DirInfo {
	if s.cfg.storageDir == "" {
		return nil
	}
	info, err := tsdb.ReadDirInfo(s.cfg.storageDir)
	if err != nil {
		return nil
	}
	return &info
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Since:              s.started.UTC(),
		Cache:              s.cache.Stats(),
		CongestionComputes: s.detFolds.Load(),
		Detector:           s.detectorStats(),
		StoreVersion:       s.DB.StoreVersion(),
		Generation:         s.DB.SnapshotGeneration(),
		Storage:            s.storageInfo(),
		Endpoints:          s.met.snapshot(),
	}
	if ls, ok := s.DB.LazyReadStats(); ok {
		resp.LazyRead = &ls
	}
	if s.cfg.replication != nil {
		rh := s.cfg.replication()
		resp.Replication = &rh
	}
	writeJSON(w, http.StatusOK, resp)
}

// PeerHealth describes one replication peer — the leader a follower
// tails, the upstream a relay re-exports, or one replica behind a
// scatter front — in the nested peers form of /api/v1/health
// (docs/SERVING.md §8). All roles share the shape, so a fleet
// dashboard walks trees and fronts with one schema.
type PeerHealth struct {
	// Role is the peer's relationship to this server: "leader" for the
	// upstream a follower or relay tails, "replica" for a replica
	// behind a front.
	Role string `json:"role"`
	// Address is the peer's base URL, with any userinfo stripped.
	Address string `json:"address"`
	// Generation is the newest manifest generation attributed to the
	// peer: what a leader serves, or what a replica has applied.
	Generation uint64 `json:"generation"`
	// LagGenerations is how many generations this server (for a leader
	// peer) or the peer (for a replica peer) trails the freshest known
	// state.
	LagGenerations uint64 `json:"lag_generations"`
	// Healthy reports the peer answered its last probe or sync.
	Healthy bool `json:"healthy"`
	// LastSyncAgeSeconds is the age of the last successful exchange
	// with the peer, or -1 when none has succeeded yet.
	LastSyncAgeSeconds float64 `json:"last_sync_age_seconds"`
	// LastError is the most recent failure talking to the peer, empty
	// after a success.
	LastError string `json:"last_error,omitempty"`
}

// ReplicationHealth reports a replication follower's position relative
// to its leader, served in /api/v1/health and /api/v1/stats
// (docs/SERVING.md §8, docs/REPLICATION.md §6). The serving binary
// fills it from replication.Follower.Status.
//
// Deprecated fields: the flat Leader/LeaderGeneration/LagGenerations/
// LastSyncAgeSeconds/LastError fields are superseded by the Peers
// array, which generalizes to relays and fronts; they remain populated
// for one release (docs/SERVING.md §8).
type ReplicationHealth struct {
	// Leader is the leader base URL the follower tails, userinfo
	// stripped.
	//
	// Deprecated: read Peers instead.
	Leader string `json:"leader,omitempty"`
	// LeaderGeneration is the newest manifest generation observed on
	// the leader; AppliedGeneration is the generation this store last
	// committed and serves.
	//
	// Deprecated: read Peers instead (AppliedGeneration stays).
	LeaderGeneration  uint64 `json:"leader_generation,omitempty"`
	AppliedGeneration uint64 `json:"applied_generation"`
	// LagGenerations is max(0, leader-applied): how many snapshot
	// commits behind the leader this follower serves.
	//
	// Deprecated: read Peers instead.
	LagGenerations uint64 `json:"lag_generations"`
	// LastSyncAgeSeconds is the wall-clock age of the last successful
	// tail cycle, or -1 when none has succeeded yet.
	//
	// Deprecated: read Peers instead.
	LastSyncAgeSeconds float64 `json:"last_sync_age_seconds"`
	// LastError is the most recent tail-cycle failure, cleared by the
	// next success.
	//
	// Deprecated: read Peers instead.
	LastError string `json:"last_error,omitempty"`
	// Peers lists every replication peer this server talks to: exactly
	// one "leader" entry on a follower or relay, one "replica" entry
	// per replica on a front (docs/SERVING.md §8).
	Peers []PeerHealth `json:"peers,omitempty"`
}

// HealthResponse is the /api/v1/health payload: a readiness verdict
// plus the store identity a load balancer (or operator) needs to judge
// staleness (docs/SERVING.md §8).
type HealthResponse struct {
	// Status is "ok" when the server is ready to serve reads, or
	// "starting" (with HTTP 503) on a follower that has not applied a
	// leader snapshot yet.
	Status string `json:"status"`
	// StoreVersion is the store's modification counter.
	StoreVersion uint64 `json:"store_version"`
	// Generation is the manifest generation of the last snapshot or
	// restore (on a follower: the applied generation).
	Generation uint64 `json:"generation"`
	// Series and Points size the store.
	Series int `json:"series"`
	Points int `json:"points"`
	// Replication reports the follower position; absent on a leader or
	// standalone server.
	Replication *ReplicationHealth `json:"replication,omitempty"`
	// Storage summarizes the on-disk segment directory; absent without
	// WithStorageDir or before the first committed manifest.
	Storage *tsdb.DirInfo `json:"storage,omitempty"`
	// Error carries the not-ready reason when Status is not "ok", in
	// the standard error-detail shape.
	Error *ErrorDetail `json:"error,omitempty"`
}

// handleHealth serves readiness: 200 with the store identity when the
// server can answer reads, 503 with Status "starting" on a follower
// that has not applied any leader snapshot — so a load balancer keeps
// a cold follower out of rotation without special-casing replication.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:       "ok",
		StoreVersion: s.DB.StoreVersion(),
		Generation:   s.DB.SnapshotGeneration(),
		Series:       s.DB.SeriesCount(),
		Points:       s.DB.PointCount(),
		Storage:      s.storageInfo(),
	}
	status := http.StatusOK
	if s.cfg.replication != nil {
		rh := s.cfg.replication()
		resp.Replication = &rh
		if rh.AppliedGeneration == 0 {
			status = http.StatusServiceUnavailable
			resp.Status = "starting"
			resp.Error = &ErrorDetail{
				Code:    CodeUnavailable,
				Message: "follower has not applied a leader snapshot yet",
			}
		}
	}
	writeJSON(w, status, resp)
}
