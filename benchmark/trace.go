package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own files, round the calls into
// each layer; spans inside the program are a later change (ROADMAP
// item 4). The two span trees:
//
//	client.request › front.serve › front.upstream › replica.serve
//	publish › leader.write_batch, leader.snapshot_dir, front.poll,
//	          probe.read, follower.tail_once › exporter.serve
const (
	spanClient   = "client.request"
	spanFront    = "front.serve"
	spanUpstream = "front.upstream"
	spanReplica  = "replica.serve"

	spanPublish  = "publish"
	spanWrite    = "leader.write_batch"
	spanSnapshot = "leader.snapshot_dir"
	spanTail     = "follower.tail_once"
	spanExporter = "exporter.serve"
	spanPoll     = "front.poll"
	spanProbe    = "probe.read"
)

// traceHeader carries the trace id between tiers. The front forwards
// only a fixed header set upstream, so inside it the id travels in the
// request context and the recording RoundTripper puts it back on the
// wire.
const traceHeader = "X-Bench-Trace"

type traceKey struct{}

func withTrace(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

func traceOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceKey{}).(uint64)
	return id
}

func headerTrace(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	return id
}

// span is one timed interval at a layer boundary. Spans of one request
// (or one publish round) share Trace; Parent names the span that caused
// this one. Start and End are nanoseconds since the tracer was made.
type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	// on gates recording, so set-up and warm-up traffic leave no spans.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span; a zero trace id (untraced traffic such as health
// polls) is dropped, and a nil tracer records nothing.
func (t *tracer) add(trace uint64, name, parent string, start, end time.Time) {
	if t == nil || trace == 0 || !t.on.Load() {
		return
	}
	s := span{Trace: trace, Name: name, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes a run's spans as one JSON array into its work
// directory and returns the file's path.
func writeSpans(cfg runConfig, spans []span) (string, error) {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// interval is a half-open [start, end) stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs, overlaps counted once.
func unionLen(ivs []interval) int64 {
	return coveredOutside(ivs, nil)
}

// coveredOutside is the length covered by ivs and by no interval of
// holes.
func coveredOutside(ivs, holes []interval) int64 {
	type edge struct {
		at    int64
		delta [2]int // change in open ivs, open holes
	}
	var edges []edge
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, [2]int{1, 0}}, edge{iv.end, [2]int{-1, 0}})
	}
	for _, iv := range holes {
		edges = append(edges, edge{iv.start, [2]int{0, 1}}, edge{iv.end, [2]int{0, -1}})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var total, last int64
	var open, hole int
	for _, e := range edges {
		if open > 0 && hole == 0 {
			total += e.at - last
		}
		last = e.at
		open += e.delta[0]
		hole += e.delta[1]
	}
	return total
}

// intervalsByName splits one trace into the stretches each span name
// covers (own) and the stretches its children cover (kids).
func intervalsByName(trace []span) (own, kids map[string][]interval) {
	own, kids = map[string][]interval{}, map[string][]interval{}
	for _, s := range trace {
		iv := interval{s.Start, s.End}
		own[s.Name] = append(own[s.Name], iv)
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], iv)
		}
	}
	return own, kids
}

// selfTimes is the time each span name of one trace spent outside its
// children: the stretch its spans cover minus the stretch spans naming
// it as parent cover. Taking unions keeps the sum equal to the root's
// duration even when children run side by side (two followers tailing,
// a hedged upstream request).
func selfTimes(own, kids map[string][]interval) map[string]int64 {
	out := make(map[string]int64, len(own))
	for name, ivs := range own {
		out[name] = coveredOutside(ivs, kids[name])
	}
	return out
}

// byTrace groups spans by trace id.
func byTrace(spans []span) map[uint64][]span {
	out := map[uint64][]span{}
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// spanSummary is what the traced run reports from one span tree: the
// median self time of each span name over the traces rooted at root, and
// how closely the self times of a trace add up to its root span.
type spanSummary struct {
	selfP50 map[string]float64 // ms
	durP50  map[string]float64 // ms, union of the name's spans
	sumOver float64            // median over traces of Σ self / root
	traces  int
}

func summarize(spans []span, root string) spanSummary {
	self := map[string][]float64{}
	dur := map[string][]float64{}
	var sums []float64
	n := 0
	for _, tr := range byTrace(spans) {
		own, kids := intervalsByName(tr)
		rootLen := unionLen(own[root])
		if rootLen == 0 {
			continue
		}
		n++
		var total int64
		for name, d := range selfTimes(own, kids) {
			self[name] = append(self[name], float64(d)/1e6)
			total += d
		}
		for name, ivs := range own {
			dur[name] = append(dur[name], float64(unionLen(ivs))/1e6)
		}
		sums = append(sums, float64(total)/float64(rootLen))
	}
	out := spanSummary{selfP50: map[string]float64{}, durP50: map[string]float64{}, sumOver: median(sums), traces: n}
	for name, v := range self {
		out.selfP50[name] = median(v)
	}
	for name, v := range dur {
		out.durP50[name] = median(v)
	}
	return out
}

// layers is the benchmark-owned middleware of the traced run: it wraps
// each tier's handler and the front's and followers' transports, records
// spans, and keeps the per-request observations the api.* and front.*
// metrics are computed from. A nil *layers wraps nothing.
type layers struct {
	tr *tracer
	// direct says the clients talk to a replica without the front, so
	// replica.serve hangs under client.request.
	direct bool

	mu       sync.Mutex
	replica  []replicaObs
	exporter []float64 // ms per exporter request

	connsOpened atomic.Int64
}

// replicaObs is one request as a replica's handler served it.
type replicaObs struct {
	kind   reqKind
	status int
	bytes  int
	ms     float64
}

func newLayers() *layers { return &layers{tr: newTracer()} }

// reset forgets the observations so far; the timed phases call it so
// set-up and warm-up traffic stay out of the numbers.
func (l *layers) reset() {
	l.mu.Lock()
	l.replica, l.exporter = nil, nil
	l.mu.Unlock()
	l.connsOpened.Store(0)
	l.tr.take()
}

func (l *layers) observations() ([]replicaObs, []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]replicaObs(nil), l.replica...), append([]float64(nil), l.exporter...)
}

// countingWriter counts the body bytes and keeps the status a handler
// wrote.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// wrapFront times the front's handler and moves the trace id from the
// request header into the context the front hands its upstream fetch.
func (l *layers) wrapFront(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := headerTrace(r)
		if id != 0 {
			r = r.WithContext(withTrace(r.Context(), id))
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		l.tr.add(id, spanFront, spanClient, t0, time.Now())
	})
}

// wrapReplica times one replica's api.Server. A request that came
// through the front hangs under front.upstream; one sent straight to the
// replica (cold-scan) hangs under client.request.
func (l *layers) wrapReplica(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		t1 := time.Now()
		parent := spanUpstream
		if l.direct {
			parent = spanClient
		}
		l.tr.add(headerTrace(r), spanReplica, parent, t0, t1)
		kind, ok := kindOf(r)
		if !ok || !l.tr.on.Load() {
			return // health polls and stats scrapes are not read traffic
		}
		obs := replicaObs{kind: kind, status: cw.status, bytes: cw.bytes, ms: ms(t1.Sub(t0))}
		l.mu.Lock()
		l.replica = append(l.replica, obs)
		l.mu.Unlock()
	})
}

// kindOf classifies a read request the way the request stream does;
// ok is false for anything the stream never sends.
func kindOf(r *http.Request) (kind reqKind, ok bool) {
	switch r.URL.Path {
	case "/dashboard":
		return kindDashboard, true
	case "/api/v1/congestion":
		return kindCongestion, true
	case "/api/v1/query":
		if strings.Contains(r.URL.RawQuery, "agg=") {
			return kindAgg, true
		}
		return kindQuery, true
	}
	return 0, false
}

// wrapExporter times the leader's exporter.
func (l *layers) wrapExporter(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		l.tr.add(headerTrace(r), spanExporter, spanTail, t0, t1)
		if l.tr.on.Load() {
			l.mu.Lock()
			l.exporter = append(l.exporter, ms(t1.Sub(t0)))
			l.mu.Unlock()
		}
	})
}

// recordingTransport is an http.RoundTripper that copies the trace id
// from the request context to the wire and, when name is set, records a
// span from the call to the end of the response body. It wraps
// http.DefaultTransport, which is what a nil client Transport means, so
// connection pooling is exactly the default client's.
type recordingTransport struct {
	l      *layers
	name   string
	parent string
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := traceOf(req.Context())
	if id == 0 {
		return http.DefaultTransport.RoundTrip(req)
	}
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused && rt.l.tr.on.Load() {
				rt.l.connsOpened.Add(1)
			}
		},
	})
	req = req.Clone(ctx) // a RoundTripper must not modify the caller's request
	req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || rt.name == "" {
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		rt.l.tr.add(id, rt.name, rt.parent, t0, time.Now())
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed, so the span covers
// reading the response and not just its headers.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// frontClient is the front's client in the traced run: the default
// client's timeout, the default transport behind the recorder.
func (l *layers) frontClient() *http.Client {
	if l == nil {
		return nil
	}
	return &http.Client{Timeout: 30 * time.Second,
		Transport: &recordingTransport{l: l, name: spanUpstream, parent: spanFront}}
}

// followerClient only forwards the publish round's trace id to the
// exporter; the follower's own work is timed round TailOnce.
func (l *layers) followerClient() *http.Client {
	if l == nil {
		return nil
	}
	return &http.Client{Timeout: 30 * time.Second, Transport: &recordingTransport{l: l}}
}
