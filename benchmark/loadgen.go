package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// target is where the generator sends a workload's reads, and what it
// remembers between requests.
type target struct {
	base string
	hc   *http.Client
	// viaFront says responses must carry the front's X-Served-By.
	viaFront bool
	// etags holds, per hot key, the ETag last seen; revalidating
	// requests send it back.
	etags []atomic.Pointer[string]
	// tr, when set, gets a client.request span per request.
	tr      *tracer
	traceID atomic.Uint64
}

// newTarget returns a target whose clients share one transport with at
// most nproc connections, like nproc readers each holding one open.
func newTarget(base string, viaFront bool, keys int, tr *tracer) *target {
	n := runtime.GOMAXPROCS(0)
	return &target{
		base: base, viaFront: viaFront, tr: tr,
		etags: make([]atomic.Pointer[string], keys),
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n,
		}},
	}
}

func (t *target) close() { t.hc.CloseIdleConnections() }

// bodySample is a response kept for the oracle check after the phase.
type bodySample struct {
	path string
	body []byte
}

// worker is one generator goroutine's private state: no locks on the
// request path.
type worker struct {
	t       *target
	buf     bytes.Buffer
	lat     []sample
	late    []sample // due → sent, open loop only
	ok      int
	failed  int
	n       int
	samples []bodySample
	firstEr error
}

// sampleEvery is how often a worker keeps a 200 body for the oracle.
const sampleEvery = 97

// do sends one request, reads the body to EOF and checks the response:
// 200 with a body, or 304 to a revalidation, through the front with its
// provenance header. It returns when the body ended.
func (w *worker) do(ctx context.Context, rq request) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.t.base+rq.path, nil)
	if err != nil {
		return err
	}
	sentETag := false
	if rq.reval && rq.key >= 0 {
		if e := w.t.etags[rq.key].Load(); e != nil {
			req.Header.Set("If-None-Match", *e)
			sentETag = true
		}
	}
	var id uint64
	var t0 time.Time
	if w.t.tr != nil {
		id = w.t.traceID.Add(1)
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
		t0 = time.Now()
	}
	resp, err := w.t.hc.Do(req)
	if err != nil {
		return err
	}
	w.buf.Reset()
	_, err = io.Copy(&w.buf, resp.Body)
	resp.Body.Close()
	if w.t.tr != nil {
		w.t.tr.add(id, spanClient, "", t0, time.Now())
	}
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusNotModified && sentETag:
	case resp.StatusCode == http.StatusOK && w.buf.Len() > 0:
		if e := resp.Header.Get("ETag"); e != "" && rq.key >= 0 {
			w.t.etags[rq.key].Store(&e)
		}
		w.n++
		if w.n%sampleEvery == 0 && resp.Header.Get("X-Stale") == "" {
			w.samples = append(w.samples, bodySample{rq.path, append([]byte(nil), w.buf.Bytes()...)})
		}
	default:
		return fmt.Errorf("%s: status %d, %d body bytes", rq.path, resp.StatusCode, w.buf.Len())
	}
	if w.t.viaFront && resp.Header.Get("X-Served-By") == "" {
		return fmt.Errorf("%s: response through the front has no X-Served-By", rq.path)
	}
	return nil
}

func (w *worker) note(err error) {
	if err == nil {
		w.ok++
		return
	}
	w.failed++
	if w.firstEr == nil {
		w.firstEr = err
	}
}

// phase is what one timed phase of a serving workload produced.
type phase struct {
	wall    time.Duration
	ok      int
	failed  int
	unsent  int // open loop: due but never sent before the hard stop
	lat     []sample
	late    []sample
	samples []bodySample
	err     error // the first failure, for the report
}

func (p *phase) attempted() int { return p.ok + p.failed + p.unsent }

// add appends phase q to p; q's clock started at offset on p's.
func (p *phase) add(q *phase, offset time.Duration) {
	for _, s := range q.lat {
		s.at += offset
		p.lat = append(p.lat, s)
	}
	for _, s := range q.late {
		s.at += offset
		p.late = append(p.late, s)
	}
	p.wall += q.wall
	p.ok += q.ok
	p.failed += q.failed
	p.unsent += q.unsent
	p.samples = append(p.samples, q.samples...)
	if p.err == nil {
		p.err = q.err
	}
}

func collect(workers []*worker, wall time.Duration) *phase {
	p := &phase{wall: wall}
	for _, w := range workers {
		p.ok += w.ok
		p.failed += w.failed
		p.lat = append(p.lat, w.lat...)
		p.late = append(p.late, w.late...)
		p.samples = append(p.samples, w.samples...)
		if p.err == nil {
			p.err = w.firstEr
		}
	}
	return p
}

// closedLoop runs nproc clients for d, each sending its next request
// only when the previous one's body has ended. Client i draws from
// streams[i].
func closedLoop(ctx context.Context, t *target, streams []*stream, d time.Duration) *phase {
	workers := make([]*worker, len(streams))
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{t: t}
		workers[i] = w
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(stop) {
					return
				}
				err := w.do(ctx, s.next())
				w.note(err)
				w.lat = append(w.lat, sample{at: t0.Sub(start), lat: time.Since(t0)})
			}
		}(streams[i])
	}
	wg.Wait()
	return collect(workers, time.Since(start))
}

// closedLoopRate is a closed loop's throughput as the stopwatch had it:
// completions counted in fixed 100 ms sub-intervals, the upper-quartile
// interval's rate reported. The traced run compares two of them taken
// back to back; the end-to-end figure is closedSlices'.
func closedLoopRate(p *phase, d time.Duration) float64 {
	const width = 100 * time.Millisecond
	n := int(d / width)
	if n < 1 {
		return ratio(float64(p.ok), p.wall.Seconds())
	}
	counts := make([]float64, n)
	for _, s := range p.lat {
		if w := int((s.at + s.lat) / width); w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	sort.Float64s(counts)
	return percentile(counts, 75)
}

// openLoopWorkers is how many goroutines carry the open loop's requests.
// Well above the connection bound on purpose: a request whose due time
// has come is handed to the transport at once and waits there, inside
// its own latency, so loadgen.late_ms_p99 measures the generator alone.
const openLoopWorkers = 64

// openLoop sends reqs on a fixed schedule — request i is due at
// start + i/rate whatever happened to the ones before it — and times
// each from its due time. Each worker claims the next request, sleeps
// until it is due and sends it. The sleep is the runtime's own timer: on
// two cores a yield loop starves the network poller of the program
// under test and a nanosleep pins a P, and both cost milliseconds; the
// timer costs up to one when the process is otherwise idle, which
// loadgen.late_ms_p99 reports. Nothing due is dropped silently: past
// the hard stop (the schedule's length again after its end, five seconds
// at least) unsent requests are counted.
func openLoop(ctx context.Context, t *target, reqs []request, rate float64) *phase {
	gap := time.Duration(float64(time.Second) / rate)
	length := time.Duration(len(reqs)) * gap
	start := time.Now()
	hardStop := start.Add(length + max(length, 5*time.Second))
	var next atomic.Int64
	workers := make([]*worker, openLoopWorkers)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{t: t}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				time.Sleep(time.Until(due))
				if time.Now().After(hardStop) {
					return
				}
				w.late = append(w.late, sample{at: due.Sub(start), lat: time.Since(due)})
				err := w.do(ctx, reqs[i])
				w.note(err)
				w.lat = append(w.lat, sample{at: due.Sub(start), lat: time.Since(due)})
			}
		}()
	}
	wg.Wait()
	p := collect(workers, time.Since(start))
	p.unsent = len(reqs) - p.ok - p.failed
	if p.unsent > 0 && p.err == nil {
		p.err = fmt.Errorf("open loop: %d due requests were never sent", p.unsent)
	}
	return p
}
