package api

// The scatter query front (docs/SERVING.md §9): a thin routing tier
// that stands in front of N replica apiservers, polls their
// /api/v1/health for generation lag, and serves reads from healthy
// replicas within a staleness threshold — hedging to the next-best
// replica when the first is slow and retrying once on a distinct
// replica when one fails. The front holds no store: every data
// response is a replica's bytes, re-served with routing provenance
// (X-Served-By, X-Replica-Lag) attached, and every upstream failure is
// re-wrapped in the §7 error envelope so clients see one contract no
// matter which tier failed.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interdomain/internal/replication"
)

// Front routing defaults; see FrontOptions.
const (
	// DefaultHealthEvery is the replica health-poll cadence when
	// FrontOptions.HealthEvery is zero.
	DefaultHealthEvery = 2 * time.Second
	// DefaultStalenessLag is the generation-lag eligibility threshold
	// when FrontOptions.StalenessLag is zero.
	DefaultStalenessLag = 1
	// hedgeFloor is the adaptive hedge timer's minimum, and its value
	// before enough latency samples exist to estimate a p90.
	hedgeFloor = 25 * time.Millisecond
	// latencyWindow is how many recent primary-fetch latencies the
	// adaptive hedge timer estimates its p90 over.
	latencyWindow = 64
	// maxExactBody bounds the buffer fetch sizes from a replica's
	// Content-Length; a longer declared body is read incrementally, so
	// a lying header cannot make the front allocate it up front.
	maxExactBody = 64 << 20
	// maxPooledBody bounds the body buffers upstreamPool keeps.
	maxPooledBody = 1 << 20
)

// ServedByHeader and ReplicaLagHeader carry routing provenance on
// every front response: which replica's bytes these are (userinfo
// stripped) and how many generations that replica lagged the freshest
// known state when chosen (docs/SERVING.md §9).
const (
	ServedByHeader   = "X-Served-By"
	ReplicaLagHeader = "X-Replica-Lag"
)

// FrontOptions configures NewFront.
type FrontOptions struct {
	// HealthEvery is the cadence of the replica health poller (0 means
	// DefaultHealthEvery).
	HealthEvery time.Duration
	// StalenessLag is the routing eligibility threshold: a healthy
	// replica whose generation lag exceeds it receives no reads while
	// a fresher replica exists (0 means DefaultStalenessLag).
	StalenessLag uint64
	// HedgeAfter fixes the hedge timer: how long the primary fetch may
	// run before a duplicate request goes to the next-best replica. 0
	// means adaptive — the p90 of recent fetch latencies.
	HedgeAfter time.Duration
	// Client is the HTTP client for replica traffic (nil means a
	// client with a 30-second overall timeout).
	Client *http.Client
	// Logf, when set, receives routing events worth an operator's
	// attention: replicas turning unhealthy or healthy, all-stale
	// serving. Nil disables logging.
	Logf func(format string, args ...interface{})
}

// replicaState is one replica behind the front: its address, the
// poller's latest verdict, and the routing counters /api/v1/stats
// reports.
type replicaState struct {
	url   string // raw base URL, for requests
	shown string // userinfo-stripped, the only form logged or served

	mu         sync.Mutex
	healthy    bool
	generation uint64
	lag        uint64 // generations behind the freshest known state
	lastPoll   time.Time
	lastErr    string

	routed    atomic.Uint64 // responses served from this replica
	hedged    atomic.Uint64 // hedge requests sent to this replica
	retried   atomic.Uint64 // retry requests sent to this replica
	unhealthy atomic.Uint64 // failed health polls
}

// Front is the health-aware scatter query front. Create with NewFront,
// start the poller with Run (or drive it manually with PollNow), and
// serve it as an http.Handler.
type Front struct {
	replicas []*replicaState
	client   *http.Client
	every    time.Duration
	staleLag uint64
	hedge    time.Duration
	logf     func(format string, args ...interface{})

	rr          atomic.Uint64 // round-robin cursor
	unavailable atomic.Uint64 // requests refused with no usable replica

	// latMu guards the latency ring behind the adaptive hedge timer and
	// its sorted copy; p90 is the timer it yields, kept as samples
	// arrive so a request reads it without the lock.
	latMu   sync.Mutex
	lats    [latencyWindow]time.Duration
	latSort [latencyWindow]time.Duration
	latN    int
	latNext int
	p90     atomic.Int64
}

// NewFront returns a front over the given replica base URLs. At least
// one replica is required; duplicates are kept (they count as extra
// routing weight, which is occasionally useful but usually a mistake).
func NewFront(replicas []string, opts FrontOptions) (*Front, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("api: front needs at least one replica URL")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	every := opts.HealthEvery
	if every <= 0 {
		every = DefaultHealthEvery
	}
	staleLag := opts.StalenessLag
	if staleLag == 0 {
		staleLag = DefaultStalenessLag
	}
	f := &Front{
		client:   client,
		every:    every,
		staleLag: staleLag,
		hedge:    opts.HedgeAfter,
		logf:     opts.Logf,
	}
	for _, r := range replicas {
		r = strings.TrimRight(r, "/")
		f.replicas = append(f.replicas, &replicaState{
			url:   r,
			shown: replication.RedactURL(r),
		})
	}
	return f, nil
}

// Run polls replica health on the configured cadence until ctx is
// cancelled, starting with an immediate poll so the front routes
// correctly from its first request.
func (f *Front) Run(ctx context.Context) {
	f.PollNow(ctx)
	t := time.NewTicker(f.every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.PollNow(ctx)
		}
	}
}

// PollNow health-checks every replica once, concurrently, and updates
// the routing state before returning. Tests use it for deterministic
// routing without a running poller.
func (f *Front) PollNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range f.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.pollReplica(ctx, rep)
		}()
	}
	wg.Wait()
	f.recomputeLags()
}

// pollReplica probes one replica's /api/v1/health. A 200 is healthy; a
// 503 "starting" follower or any error is not. The generation comes
// from the health body, and the replication block's lag (distance to
// the replica's own leader) is folded into the front's lag estimate by
// recomputeLags.
func (f *Front) pollReplica(ctx context.Context, rep *replicaState) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/api/v1/health", nil)
	if err != nil {
		f.markPoll(rep, false, 0, 0, err.Error())
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.markPoll(rep, false, 0, 0, replication.RedactURL(err.Error()))
		return
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		f.markPoll(rep, false, 0, 0, fmt.Sprintf("bad health body: %v", err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("health answered %s", resp.Status)
		if h.Error != nil {
			msg = h.Error.Message
		}
		f.markPoll(rep, false, h.Generation, 0, msg)
		return
	}
	var leaderLag uint64
	if h.Replication != nil {
		leaderLag = h.Replication.LagGenerations
	}
	f.markPoll(rep, true, h.Generation, leaderLag, "")
}

// markPoll records one poll result on a replica.
func (f *Front) markPoll(rep *replicaState, healthy bool, gen, leaderLag uint64, errMsg string) {
	rep.mu.Lock()
	was := rep.healthy
	rep.healthy = healthy
	rep.generation = gen
	rep.lag = leaderLag
	rep.lastPoll = time.Now()
	rep.lastErr = errMsg
	rep.mu.Unlock()
	if !healthy {
		rep.unhealthy.Add(1)
	}
	if f.logf != nil && was != healthy {
		if healthy {
			f.logf("front: replica %s healthy at generation %d", rep.shown, gen)
		} else {
			f.logf("front: replica %s unhealthy: %s", rep.shown, errMsg)
		}
	}
}

// recomputeLags finalizes each replica's lag after a poll round: a
// replica reporting its own leader distance keeps it; otherwise lag is
// its distance to the freshest generation seen across the fleet this
// round (a front over leaders has no replication block to read).
func (f *Front) recomputeLags() {
	var maxGen uint64
	for _, rep := range f.replicas {
		rep.mu.Lock()
		if rep.healthy && rep.generation > maxGen {
			maxGen = rep.generation
		}
		rep.mu.Unlock()
	}
	for _, rep := range f.replicas {
		rep.mu.Lock()
		if rep.healthy && rep.lag == 0 && rep.generation < maxGen {
			rep.lag = maxGen - rep.generation
		}
		rep.mu.Unlock()
	}
}

// replicaSnapshot is one replica's routing-relevant state at pick time.
type replicaSnapshot struct {
	rep     *replicaState
	healthy bool
	gen     uint64
	lag     uint64
}

// pick orders the replicas for one request: the round-robin rotation
// of the eligible set (healthy, lag within threshold), or — when every
// healthy replica is over the threshold — all healthy replicas
// freshest-first with stale=true so the caller attaches the Warning
// header. An empty slice means no replica can serve at all.
func (f *Front) pick() (cands []*replicaSnapshot, stale bool) {
	snaps := make([]*replicaSnapshot, 0, len(f.replicas))
	for _, rep := range f.replicas {
		rep.mu.Lock()
		s := &replicaSnapshot{rep: rep, healthy: rep.healthy, gen: rep.generation, lag: rep.lag}
		rep.mu.Unlock()
		if s.healthy {
			snaps = append(snaps, s)
		}
	}
	if len(snaps) == 0 {
		return nil, false
	}
	eligible := snaps[:0:0]
	for _, s := range snaps {
		if s.lag <= f.staleLag {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) == 0 {
		// Every healthy replica is over the staleness threshold: serve
		// the freshest anyway, flagged (docs/SERVING.md §9).
		sort.Slice(snaps, func(i, j int) bool { return snaps[i].gen > snaps[j].gen })
		return snaps, true
	}
	start := int(f.rr.Add(1)) % len(eligible)
	return append(eligible[start:len(eligible):len(eligible)], eligible[:start]...), false
}

// upstream is one buffered replica response: the front only ever
// serves fully read bodies, so a replica dying mid-body is a retryable
// transport error here, never truncated bytes on the client's wire.
// An upstream comes from upstreamPool and goes back to it through
// release once its body is written or dropped.
type upstream struct {
	snap   *replicaSnapshot
	status int
	header http.Header
	body   []byte
}

// upstreamPool recycles upstreams and their body buffers, so a body of
// at most maxPooledBody bytes is read into a buffer an earlier response
// left behind.
var upstreamPool = sync.Pool{New: func() any { return new(upstream) }}

// release hands u and its body buffer back for reuse. Nothing may read
// u after it; a buffer over maxPooledBody is left to the collector.
func (u *upstream) release() {
	body := u.body[:0]
	if cap(body) > maxPooledBody {
		body = nil
	}
	*u = upstream{body: body}
	upstreamPool.Put(u)
}

// fetch performs one buffered GET against a replica, forwarding the
// client's request-target verbatim when it is origin-form.
func (f *Front) fetch(ctx context.Context, snap *replicaSnapshot, r *http.Request) (*upstream, error) {
	target := r.RequestURI
	if !strings.HasPrefix(target, "/") {
		target = r.URL.RequestURI()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, snap.rep.url+target, nil)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"If-None-Match", "Accept", "Accept-Encoding"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	u := upstreamPool.Get().(*upstream)
	switch n := resp.ContentLength; {
	case n >= 0 && n <= maxExactBody:
		if int64(cap(u.body)) < n {
			u.body = make([]byte, n)
		}
		u.body = u.body[:n]
		_, err = io.ReadFull(resp.Body, u.body)
	default:
		u.body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		u.release()
		// Mid-body death: a short read against the Content-Length, or a
		// chunked body cut before its last chunk.
		return nil, fmt.Errorf("reading body from %s: %w", snap.rep.shown, err)
	}
	// The header map is this response's own; nothing else holds it.
	u.snap, u.status, u.header = snap, resp.StatusCode, resp.Header
	return u, nil
}

// hedgeDelay returns the current hedge timer: the fixed FrontOptions
// value, or the p90 of recent primary-fetch latencies (bounded below
// by hedgeFloor) when adapting.
func (f *Front) hedgeDelay() time.Duration {
	if f.hedge > 0 {
		return f.hedge
	}
	return max(time.Duration(f.p90.Load()), hedgeFloor)
}

// observeLatency feeds the adaptive hedge timer: the sample replaces
// the oldest in the ring and in the sorted copy (one binary search and
// one shift each), and the p90 is re-read from the sorted copy once at
// least 8 samples exist.
func (f *Front) observeLatency(d time.Duration) {
	f.latMu.Lock()
	defer f.latMu.Unlock()
	sorted := f.latSort[:f.latN]
	if f.latN == latencyWindow {
		i, _ := slices.BinarySearch(sorted, f.lats[f.latNext])
		sorted = slices.Delete(sorted, i, i+1)
	} else {
		f.latN++
	}
	f.lats[f.latNext] = d
	f.latNext = (f.latNext + 1) % latencyWindow
	i, _ := slices.BinarySearch(sorted, d)
	sorted = slices.Insert(sorted, i, d)
	if len(sorted) >= 8 {
		f.p90.Store(int64(sorted[len(sorted)*9/10]))
	}
}

// route serves one read through the candidate list: primary fetch,
// hedge to the next candidate after the hedge delay, retry once on a
// distinct candidate when a fetch fails outright or a replica answers
// 5xx. 4xx and 3xx answers pass through — they are the replica
// speaking the API contract, not a replica failure. Returns nil when
// every attempt failed.
//
// The primary runs on the calling goroutine. Only a hedge gets one of
// its own, from the hedge timer, which is armed only when a second
// candidate exists; a retry runs on the goroutine whose attempt failed.
// The first success wins and cancels every other attempt in flight.
func (f *Front) route(r *http.Request, cands []*replicaSnapshot) *upstream {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	rc := &race{f: f, r: r, cands: cands, ctx: ctx, cancel: cancel, next: 1, pending: 1}
	if len(cands) > 1 {
		rc.mu.Lock()
		rc.timer = time.AfterFunc(f.hedgeDelay(), rc.hedge)
		rc.mu.Unlock()
	}
	rc.run(cands[0], true)
	rc.mu.Lock()
	if !rc.done {
		// Another attempt is still in flight: wait for the verdict.
		rc.wait = make(chan struct{})
		rc.mu.Unlock()
		<-rc.wait
		rc.mu.Lock()
	}
	won := rc.won
	rc.mu.Unlock()
	return won
}

// race is one routed read's attempts. All of them share ctx, which is
// cancelled as soon as one wins or the last one fails.
type race struct {
	f      *Front
	r      *http.Request
	cands  []*replicaSnapshot
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	timer   *time.Timer   // the hedge timer, nil without a second candidate
	next    int           // index of the next candidate to try
	pending int           // attempts claimed and not yet finished
	retried bool          // the one retry has been sent
	done    bool          // won is final
	won     *upstream     // the winning answer; nil when every attempt failed
	wait    chan struct{} // closed at the verdict when route is waiting for it
}

// run fetches from snap and, when that fails and the retry is still
// unspent, retries on the next candidate on the same goroutine. Only
// the primary's successful fetches feed the adaptive hedge timer.
func (rc *race) run(snap *replicaSnapshot, primary bool) {
	for snap != nil {
		t0 := time.Now()
		res, err := rc.f.fetch(rc.ctx, snap, rc.r)
		if err == nil && primary {
			rc.f.observeLatency(time.Since(t0))
		}
		snap, primary = rc.finish(res, err), false
	}
}

// hedge is the hedge timer's callback, so it runs at most once: it
// sends the duplicate request to the next candidate unless the race
// is over or none is left.
func (rc *race) hedge() {
	rc.mu.Lock()
	if rc.done || rc.next >= len(rc.cands) {
		rc.mu.Unlock()
		return
	}
	snap := rc.claimLocked()
	rc.mu.Unlock()
	snap.rep.hedged.Add(1)
	rc.run(snap, false)
}

// claimLocked takes the next candidate for a new attempt.
func (rc *race) claimLocked() *replicaSnapshot {
	snap := rc.cands[rc.next]
	rc.next++
	rc.pending++
	return snap
}

// finish records one attempt's outcome. A success wins unless another
// attempt already has, in which case its answer is released. A failure
// returns the candidate the caller should retry on, if the retry is
// unspent; the last attempt to fail with nothing left to try ends the
// race with no winner. A loser's failure — usually its cancellation —
// is not logged.
func (rc *race) finish(res *upstream, err error) (retry *replicaSnapshot) {
	ok := err == nil && res.status < 500
	rc.mu.Lock()
	over := rc.done
	rc.pending--
	switch {
	case over:
	case ok:
		rc.won = res
		rc.endLocked()
	case !rc.retried && rc.next < len(rc.cands):
		// One retry on a replica that has not seen this request yet
		// (docs/SERVING.md §9).
		rc.retried = true
		retry = rc.claimLocked()
		retry.rep.retried.Add(1)
	case rc.pending == 0:
		rc.endLocked()
	}
	rc.mu.Unlock()
	if ok && !over {
		return nil // res is the answer; route hands it to ServeHTTP
	}
	if !over && rc.f.logf != nil {
		if err != nil {
			rc.f.logf("front: fetch failed: %s", replication.RedactURL(err.Error()))
		} else {
			rc.f.logf("front: replica %s answered %d", res.snap.rep.shown, res.status)
		}
	}
	if res != nil {
		res.release()
	}
	return retry
}

// endLocked delivers the verdict: it stops the hedge timer, cancels
// every attempt still in flight and wakes route if it is waiting.
func (rc *race) endLocked() {
	rc.done = true
	if rc.timer != nil {
		rc.timer.Stop()
	}
	rc.cancel()
	if rc.wait != nil {
		close(rc.wait)
	}
}

// ServeHTTP implements http.Handler: the front's own health and the
// stats interception are served locally, everything else is routed to
// a replica.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/health" {
		f.serveHealth(w)
		return
	}
	cands, stale := f.pick()
	if len(cands) == 0 {
		f.unavailable.Add(1)
		writeError(w, http.StatusServiceUnavailable, "no healthy replica behind the front")
		return
	}
	res := f.route(r, cands)
	if res == nil {
		f.unavailable.Add(1)
		writeError(w, http.StatusServiceUnavailable, "every routed replica failed")
		return
	}
	res.snap.rep.routed.Add(1)
	if r.URL.Path == "/api/v1/stats" && res.status == http.StatusOK {
		f.serveStats(w, res)
		return
	}
	// The upstream header's keys are already canonical and its slices
	// are this request's own, so they are taken as they are.
	h := w.Header()
	for k, vs := range res.header {
		h[k] = vs
	}
	h.Set(ServedByHeader, res.snap.rep.shown)
	h.Set(ReplicaLagHeader, strconv.FormatUint(res.snap.lag, 10))
	if res.status != http.StatusNotModified {
		h.Set("Content-Length", strconv.Itoa(len(res.body)))
	}
	if stale {
		h.Set("Warning", `110 - "all replicas beyond staleness threshold"`)
		if f.logf != nil {
			f.logf("front: all replicas stale, serving freshest (%s at lag %d)", res.snap.rep.shown, res.snap.lag)
		}
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
	res.release()
}

// FrontReplicaStats is one replica's row in the stats front block.
type FrontReplicaStats struct {
	// Replica is the replica's base URL, userinfo stripped.
	Replica string `json:"replica"`
	// Healthy, Generation and LagGenerations mirror the poller's last
	// verdict.
	Healthy        bool   `json:"healthy"`
	Generation     uint64 `json:"generation"`
	LagGenerations uint64 `json:"lag_generations"`
	// Routed counts responses served from this replica; Hedged and
	// Retried count extra requests sent to it by the hedge timer and
	// the failure retry; Unhealthy counts failed health polls.
	Routed    uint64 `json:"routed"`
	Hedged    uint64 `json:"hedged"`
	Retried   uint64 `json:"retried"`
	Unhealthy uint64 `json:"unhealthy"`
	// LastError is the replica's most recent poll failure, empty while
	// healthy.
	LastError string `json:"last_error,omitempty"`
}

// FrontStats is the "front" block the front injects into /api/v1/stats
// responses (docs/SERVING.md §9).
type FrontStats struct {
	// Replicas lists per-replica routing counters.
	Replicas []FrontReplicaStats `json:"replicas"`
	// Unavailable counts requests refused because no replica could
	// serve them.
	Unavailable uint64 `json:"unavailable"`
	// HedgeAfterMs is the hedge timer currently in force (fixed or
	// adaptive).
	HedgeAfterMs float64 `json:"hedge_after_ms"`
	// StalenessLag is the routing eligibility threshold.
	StalenessLag uint64 `json:"staleness_lag"`
}

// frontStats snapshots the front's routing counters.
func (f *Front) frontStats() FrontStats {
	fs := FrontStats{
		Unavailable:  f.unavailable.Load(),
		HedgeAfterMs: float64(f.hedgeDelay()) / float64(time.Millisecond),
		StalenessLag: f.staleLag,
	}
	for _, rep := range f.replicas {
		rep.mu.Lock()
		row := FrontReplicaStats{
			Replica:        rep.shown,
			Healthy:        rep.healthy,
			Generation:     rep.generation,
			LagGenerations: rep.lag,
			LastError:      rep.lastErr,
		}
		rep.mu.Unlock()
		row.Routed = rep.routed.Load()
		row.Hedged = rep.hedged.Load()
		row.Retried = rep.retried.Load()
		row.Unhealthy = rep.unhealthy.Load()
		fs.Replicas = append(fs.Replicas, row)
	}
	return fs
}

// serveStats re-serves a replica's stats body with the front's routing
// block injected, so one scrape of the front covers both tiers.
func (f *Front) serveStats(w http.ResponseWriter, res *upstream) {
	snap := res.snap
	var doc map[string]interface{}
	err := json.Unmarshal(res.body, &doc)
	res.release()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "replica stats body: %v", err)
		return
	}
	doc["front"] = f.frontStats()
	w.Header().Set(ServedByHeader, snap.rep.shown)
	w.Header().Set(ReplicaLagHeader, strconv.FormatUint(snap.lag, 10))
	writeJSON(w, http.StatusOK, doc)
}

// serveHealth reports the front's own readiness: ok while at least one
// replica is routable, 503 otherwise, with one "replica" peer per
// replica in the nested peers array (docs/SERVING.md §8, §9).
func (f *Front) serveHealth(w http.ResponseWriter) {
	rh := &ReplicationHealth{LastSyncAgeSeconds: -1}
	var healthy int
	var maxGen uint64
	for _, rep := range f.replicas {
		rep.mu.Lock()
		peer := PeerHealth{
			Role:               "replica",
			Address:            rep.shown,
			Generation:         rep.generation,
			LagGenerations:     rep.lag,
			Healthy:            rep.healthy,
			LastSyncAgeSeconds: -1,
			LastError:          rep.lastErr,
		}
		if !rep.lastPoll.IsZero() {
			peer.LastSyncAgeSeconds = time.Since(rep.lastPoll).Seconds()
		}
		if rep.healthy {
			healthy++
			if rep.generation > maxGen {
				maxGen = rep.generation
			}
		}
		rep.mu.Unlock()
		rh.Peers = append(rh.Peers, peer)
	}
	rh.AppliedGeneration = maxGen
	resp := HealthResponse{
		Status:      "ok",
		Generation:  maxGen,
		Replication: rh,
	}
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		resp.Status = "unavailable"
		resp.Error = &ErrorDetail{
			Code:    CodeUnavailable,
			Message: "no healthy replica behind the front",
		}
	}
	writeJSON(w, status, resp)
}
