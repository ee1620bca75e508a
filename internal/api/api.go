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
//	GET /api/v1/stats                        cache + endpoint metrics
//	GET /api/v1/health                       readiness + replication lag
//	GET /healthz
//
// The read path is versioned (docs/SERVING.md): query and congestion
// responses are computed from zero-copy tsdb views, memoized in an
// internal/readcache keyed by the contributing series' write-versions,
// and concurrent identical requests coalesce onto one computation — so
// repeat traffic against an unchanged store serves cached bytes and a
// write to any contributing series invalidates exactly the affected
// results.
//
// The HTTP contract (docs/SERVING.md §7) is uniform: every error is
// the {"error":{"code","message"}} envelope with a stable code;
// cacheable responses carry a strong ETag derived from their cache key
// and honor If-None-Match with 304; /api/v1/query responses are
// bounded by limit/offset with total/truncated metadata.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
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
	// replication, when set (WithReplication), reports the follower's
	// position for /api/v1/health and /api/v1/stats.
	replication func() ReplicationHealth
	// storageDir, when set (WithStorageDir), is summarized into the
	// Storage field of /api/v1/health and /api/v1/stats responses.
	storageDir string
	// computes counts actual detector runs behind /api/v1/congestion;
	// with coalescing and caching it grows strictly slower than the
	// request count, and the stats endpoint exposes it so tests (and
	// operators) can verify that.
	computes atomic.Uint64

	// det holds the persistent incremental detector accumulators behind
	// /api/v1/congestion (docs/DETECTION.md §3), with the
	// detector_incremental counters of /api/v1/stats alongside
	// (docs/DETECTION.md §6).
	det               *detRegistry
	detFolds          atomic.Uint64
	detPointsFolded   atomic.Uint64
	detFullRecomputes atomic.Uint64
	detUnchanged      atomic.Uint64

	// swr reports that stale-while-revalidate serving is enabled
	// (WithStaleWhileRevalidate): congestion requests go through the
	// cache's DoStale path (docs/DETECTION.md §7).
	swr bool

	// started is the construction time, reported as the stats payload's
	// "since" field so counter rates have a denominator
	// (docs/SERVING.md §4).
	started time.Time

	closeOnce sync.Once
}

// Option customizes New.
type Option func(*serverConfig)

type serverConfig struct {
	cacheSize   int
	workers     int
	replication func() ReplicationHealth
	storageDir  string
	swr         bool
	swrBudget   time.Duration
}

// WithCacheSize bounds the read cache to n entries (<= 0 keeps the
// readcache default).
func WithCacheSize(n int) Option {
	return func(c *serverConfig) { c.cacheSize = n }
}

// WithWorkers sets the worker count of the pool the dashboard's
// per-link index analyses fan out on (<= 0 means one per CPU).
func WithWorkers(n int) Option {
	return func(c *serverConfig) { c.workers = n }
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
// format versions, compaction depth — next to the generation they
// already expose. The directory is summarized per request, so a
// snapshot, retention or compaction pass landing between requests is
// visible immediately.
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
		cache:   readcache.New(cfg.cacheSize),
		pool:    pipeline.NewPool(cfg.workers),
		met:     newMetrics(),
		det:     newDetRegistry(0),
		started: time.Now(),
	}
	s.replication = cfg.replication
	s.storageDir = cfg.storageDir
	if cfg.swr {
		s.swr = true
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
func (s *Server) CongestionComputes() uint64 { return s.computes.Load() }

// bufPool recycles encode buffers across requests so steady-state
// serving does not grow a fresh buffer per response.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v into a pooled buffer first and only then touches
// the ResponseWriter: an encoding failure yields a clean 500 instead of
// an error body trailing a 200 header and half-written JSON.
func writeJSON(w http.ResponseWriter, v interface{}) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// encodeBody marshals v exactly like writeJSON (trailing newline
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

// writeJSONBody writes an already-encoded JSON body.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (s *Server) handleMeasurements(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]interface{}{"measurements": s.DB.Measurements()})
}

func (s *Server) handleTags(w http.ResponseWriter, r *http.Request) {
	m := r.URL.Query().Get("m")
	tag := r.URL.Query().Get("tag")
	if m == "" || tag == "" {
		writeError(w, http.StatusBadRequest, "need m and tag parameters")
		return
	}
	writeJSON(w, map[string]interface{}{"values": s.DB.TagValues(m, tag)})
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

// parsePage extracts limit and offset from query parameters, applying
// the default and the clamp. limit=0 is valid — a metadata-only
// response; negative or non-integer values are rejected.
func parsePage(q map[string][]string) (limit, offset int, err error) {
	limit = DefaultQueryLimit
	if vs := q["limit"]; len(vs) > 0 {
		limit, err = strconv.Atoi(vs[0])
		if err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q: need a non-negative integer", vs[0])
		}
		if limit > MaxQueryLimit {
			limit = MaxQueryLimit
		}
	}
	if vs := q["offset"]; len(vs) > 0 {
		offset, err = strconv.Atoi(vs[0])
		if err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q: need a non-negative integer", vs[0])
		}
	}
	return limit, offset, nil
}

// parseValueBound reads the optional vmin/vmax query parameters into a
// tsdb.ValueBound (docs/SERVING.md §3). Either end may be given alone;
// the missing end defaults to the matching infinity. Nil means no bound
// — the query behaves exactly as before the parameters existed. On a
// lazily opened store the bound prunes whole blocks by their value
// summaries before any decode (docs/PERSISTENCE.md §9).
func parseValueBound(q url.Values) (*tsdb.ValueBound, error) {
	vminS, vmaxS := q.Get("vmin"), q.Get("vmax")
	if vminS == "" && vmaxS == "" {
		return nil, nil
	}
	vb := &tsdb.ValueBound{Min: math.Inf(-1), Max: math.Inf(1)}
	if vminS != "" {
		v, err := strconv.ParseFloat(vminS, 64)
		if err != nil || math.IsNaN(v) {
			return nil, fmt.Errorf("bad vmin %q: need a number", vminS)
		}
		vb.Min = v
	}
	if vmaxS != "" {
		v, err := strconv.ParseFloat(vmaxS, 64)
		if err != nil || math.IsNaN(v) {
			return nil, fmt.Errorf("bad vmax %q: need a number", vmaxS)
		}
		vb.Max = v
	}
	if vb.Min > vb.Max {
		return nil, fmt.Errorf("vmin %g exceeds vmax %g", vb.Min, vb.Max)
	}
	return vb, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p := parseParams(r)
	m := p.Required("m")
	from := p.Time("from")
	to := p.Time("to")
	limit, offset, err := parsePage(q)
	if err != nil {
		p.fail("%v", err)
	}
	if p.Check(w) {
		return
	}
	if q.Get("agg") != "" || q.Get("step") != "" {
		// Aggregate mode (docs/SERVING.md §7): per-bucket summaries
		// instead of raw pages. Value bounds would change what the
		// summary pushdown may answer, so the two modes don't compose.
		if q.Get("vmin") != "" || q.Get("vmax") != "" {
			writeError(w, http.StatusBadRequest, "vmin/vmax are not supported with agg")
			return
		}
		s.handleAggregate(w, r, q, m, from, to, limit, offset)
		return
	}
	vb, err := parseValueBound(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	filter := map[string]string{}
	for k, vs := range q {
		switch k {
		case "m", "from", "to", "limit", "offset", "vmin", "vmax", "agg", "step":
			continue
		}
		if len(vs) > 0 {
			filter[k] = vs[0]
		}
	}
	// A value bound participates in the cache identity but not in the
	// tag filter; an unbounded query keeps its pre-bound key bytes.
	id := tsdb.Key(m, filter)
	if vb != nil {
		id += fmt.Sprintf("|v[%g,%g]", vb.Min, vb.Max)
	}
	key := readcache.Key{
		Kind:   "query",
		ID:     id,
		From:   from.UnixNano(),
		To:     to.UnixNano(),
		Stamp:  s.DB.ViewStamp(m, filter),
		Limit:  limit,
		Offset: offset,
	}
	// The ETag is derived from the key alone, so an If-None-Match hit
	// costs neither a cache lookup nor a store read (docs/SERVING.md §7).
	etag := etagFor(key)
	if clientHasCurrent(r, etag) {
		writeNotModified(w, etag)
		return
	}
	v, _, err := s.cache.Do(key, func() (any, error) {
		views := s.DB.QueryViewWhere(m, filter, from, to, vb)
		page := pageOf(views, limit, offset)
		return appendBody(func(dst []byte) ([]byte, error) {
			return appendQueryBody(dst, page, len(views), limit, offset)
		})
	})
	if err != nil {
		writeComputeError(w, err)
		return
	}
	w.Header().Set("ETag", etag)
	writeJSONBody(w, v.([]byte))
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

// congestionFilter is the tag filter selecting every series that
// contributes to a congestion analysis of (link, vp): both sides, one
// vp or all of them. Its ViewStamp is the cache-invalidation handle.
func congestionFilter(link, vp string) map[string]string {
	f := map[string]string{"link": link}
	if vp != "" {
		f["vp"] = vp
	}
	return f
}

func (s *Server) handleCongestion(w http.ResponseWriter, r *http.Request) {
	p := parseParams(r)
	link, vp := p.Required("link"), p.Get("vp")
	from := p.Time("from")
	days := p.PositiveInt("days", 50)
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
		Stamp:   s.DB.ViewStamp("tslp", congestionFilter(link, vp)),
	}
	// Checked before cache.Do: an If-None-Match hit never runs the
	// detector, never touches the cache (docs/SERVING.md §7).
	etag := etagFor(key)
	if clientHasCurrent(r, etag) {
		writeNotModified(w, etag)
		return
	}
	compute := func() (any, error) { return s.computeCongestion(link, vp, from, cfg) }
	var v any
	var err error
	var res readcache.Result
	if s.swr {
		v, res, err = s.cache.DoStale(key, compute)
	} else {
		v, _, err = s.cache.Do(key, compute)
		res = readcache.Result{ServedKey: key}
	}
	if err != nil {
		writeComputeError(w, err)
		return
	}
	if res.Stale {
		// A superseded body: advertise the predecessor's ETag (so a
		// client revalidating against it still matches what it holds)
		// and mark the response stale (docs/DETECTION.md §7).
		w.Header().Set("ETag", etagFor(res.ServedKey))
		w.Header().Set("Warning", `110 - "stale-while-revalidate"`)
		w.Header().Set("X-Stale", "true")
	} else {
		w.Header().Set("ETag", etag)
	}
	writeJSONBody(w, v.([]byte))
}

// computeCongestion produces the response body for one (link, vp, from,
// cfg) request by advancing the persistent incremental accumulator for
// that shape (docs/DETECTION.md §3): only points written since the
// accumulator's last advance are folded, and an advance that changes
// nothing reuses the previous encoded body verbatim. Exactly the work
// the cache and coalescing exist to avoid repeating.
func (s *Server) computeCongestion(link, vp string, from time.Time, cfg analysis.AutocorrConfig) ([]byte, error) {
	s.computes.Add(1)
	return s.advanceDetector(link, vp, from, cfg)
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
	// count, format versions, compaction depth); absent when the server
	// was not given one (WithStorageDir) or the directory holds no
	// committed manifest yet.
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
	if s.storageDir == "" {
		return nil
	}
	info, err := tsdb.ReadDirInfo(s.storageDir)
	if err != nil {
		return nil
	}
	return &info
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Since:              s.started.UTC(),
		Cache:              s.cache.Stats(),
		CongestionComputes: s.computes.Load(),
		Detector:           s.detectorStats(),
		StoreVersion:       s.DB.StoreVersion(),
		Generation:         s.DB.SnapshotGeneration(),
		Storage:            s.storageInfo(),
		Endpoints:          s.met.snapshot(),
	}
	if ls, ok := s.DB.LazyReadStats(); ok {
		resp.LazyRead = &ls
	}
	if s.replication != nil {
		rh := s.replication()
		resp.Replication = &rh
	}
	writeJSON(w, resp)
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
	if s.replication != nil {
		rh := s.replication()
		resp.Replication = &rh
		if rh.AppliedGeneration == 0 {
			resp.Status = "starting"
			resp.Error = &ErrorDetail{
				Code:    CodeUnavailable,
				Message: "follower has not applied a leader snapshot yet",
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(resp)
			return
		}
	}
	writeJSON(w, resp)
}
