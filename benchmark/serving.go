package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"interdomain/internal/api"
)

// servingPlan is what differs between hot-front and cold-scan.
type servingPlan struct {
	// hot selects the hot key mix through the front; otherwise the cold
	// scan goes straight to replica 0.
	hot bool
	// rate is the open loop's fixed arrival rate, requests per second.
	rate float64
	// limitMs is the workload's latency limit on the open loop's p99;
	// a response slower than that (or failed) misses it, and the
	// generator may itself run late by a fifth of it at most.
	limitMs float64
	// closedLatency reports the end-to-end latencies from the closed loop
	// at the reference machine's speed, not from the open loop. Cold-scan
	// needs it: its requests are a millisecond and a half of computation
	// each, and at a fifth of the machine's capacity the cores idle
	// between them; for minutes at a time the sandbox then runs such
	// bursts a fifth slower (medians of ten runs: p50 1.59 then 1.88 ms,
	// p95 2.79 then 3.59 ms) with the reference loop, which keeps the
	// cores busy, seeing nothing. Saturated, the same requests follow the
	// reference loop. Hot-front's open loop is mostly waits and held
	// within 4% across the same sets.
	closedLatency bool
}

// The fixed open-loop rates, about 40% of what two cores sustain in the
// closed loop on each mix, so latency is read off the flat part of the
// curve and a regression shows as latency before it shows as a backlog.
var (
	hotFrontPlan = servingPlan{hot: true, rate: 3000, limitMs: 20}
	coldScanPlan = servingPlan{hot: false, rate: 400, limitMs: 50, closedLatency: true}
)

// Share of -seconds each timed phase gets: closed loop (its speed
// probes included), then open loop; the untimed warm-up before them is a
// tenth as long as both.
const (
	closedShare = 0.4
	openShare   = 0.6
	warmupShare = 0.1
	// setupRepeats is how often the fixture is built; setup_s is the
	// median and the last build is the one the run uses.
	setupRepeats = 3
	// closedSlice is about how long the closed loop runs between two
	// speed probes.
	closedSlice = time.Second
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// buildRepeated builds the fleet setupRepeats times (once when traced,
// whose run reports no set-up time) and returns the last with the median
// build time, each build's taken at the reference machine's speed
// (speed.go).
func buildRepeated(ctx context.Context, cfg runConfig, lay *layers, speed *speedMeter) (*fleet, float64, error) {
	n := setupRepeats
	if cfg.trace {
		n = 1
	}
	var times []float64
	for i := 0; ; i++ {
		var f *fleet
		var err error
		_, index := speed.span(func() { f, err = buildFleet(ctx, cfg.spec, uint64(cfg.seed), cfg.workdir, lay) })
		if err != nil {
			return nil, 0, err
		}
		times = append(times, f.times.total.Seconds()*index)
		if i == n-1 {
			return f, median(times), nil
		}
		f.close()
	}
}

// clientStreams returns one request stream per closed-loop client, each
// on its own seed derived from the run's.
func clientStreams(cfg runConfig, hot *hotKeys, salt int64) []*stream {
	out := make([]*stream, runtime.GOMAXPROCS(0))
	for i := range out {
		out[i] = newStream(cfg.spec, cfg.seed*1000+salt+int64(i), hot)
	}
	return out
}

// openRequests draws the open loop's whole schedule before it starts,
// so the generator does no formatting while it is being timed.
func openRequests(cfg runConfig, hot *hotKeys, rate float64, d time.Duration) []request {
	return drawRequests(newStream(cfg.spec, cfg.seed*1000+500, hot), int(rate*d.Seconds()))
}

// drawRequests takes the next n requests of a stream.
func drawRequests(s *stream, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = s.next()
	}
	return reqs
}

// warm touches every hot key once (so each has an ETag to revalidate
// and a cache entry) and then runs the closed loop untimed.
func warm(ctx context.Context, t *target, cfg runConfig, hot *hotKeys) error {
	w := &worker{t: t}
	if hot != nil {
		for _, rq := range hot.reqs {
			if err := w.do(ctx, rq); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if p := closedLoop(ctx, t, clientStreams(cfg, hot, 900), seconds(cfg.seconds*warmupShare)); p.err != nil {
		return fmt.Errorf("warm-up: %w", p.err)
	}
	return nil
}

// heapWatch reports live_heap_mb: the 95th percentile, over the timed
// phases, of the live heap the most recent collection found — the
// footprint near its peak, without the one cycle in a run that happens
// to catch a transient. For the serving workloads that is the store plus
// the caches, for the batch workloads a job's working set, which a
// reading taken after the last job would miss. It polls the runtime's
// own figure for the last cycle's marked bytes every 20 ms, which stops
// nothing.
type heapWatch struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// liveMB stops the watcher and returns the figure in MiB.
func (h *heapWatch) liveMB() float64 {
	close(h.stop)
	<-h.done
	return percentile(sortedCopy(h.samples), 95) / (1 << 20)
}

// checkOracle compares kept response bodies byte for byte with what an
// in-process api.Server over the leader's own store answers.
func checkOracle(f *fleet, samples []bodySample, rep *report) {
	oracle := api.New(f.leader)
	defer oracle.Close()
	for _, s := range samples {
		w := httptest.NewRecorder()
		oracle.ServeHTTP(w, httptest.NewRequest("GET", s.path, nil))
		rep.attempted++
		if w.Code != 200 || !bytes.Equal(w.Body.Bytes(), s.body) {
			rep.fail("oracle mismatch on %s (oracle status %d, %d vs %d bytes)", s.path, w.Code, w.Body.Len(), len(s.body))
		}
	}
}

// sloMisses counts open-loop requests that failed, were never sent, or
// took longer than the limit from their due time.
func sloMisses(p *phase, limitMs float64) int {
	n := p.failed + p.unsent
	for _, s := range p.lat {
		if ms(s.lat) > limitMs {
			n++
		}
	}
	return n
}

// latencyWindow is the sub-interval the open loop's percentiles are
// taken in (quietTenth): a quarter of a second, or as long as it takes
// the rate to put 200 samples in it, so the p95 of a window always has
// ten samples beyond it. The reported p95 is a tail indicator that a
// disturbed stretch cannot move, not the whole phase's 95th percentile.
func latencyWindow(rate float64) time.Duration {
	return max(250*time.Millisecond, time.Duration(200/rate*float64(time.Second)))
}

// openLoopLatency reports the open loop's p50 and p95 from due time,
// each summarized over sub-intervals of the given width by quietTenth.
func openLoopLatency(lat []sample, d, width time.Duration) (p50, p95 float64) {
	win := windowed(lat, width, windowCount(d, width))
	return quietTenth(win, 50), quietTenth(win, 95)
}

func windowCount(d, width time.Duration) int {
	if n := int(d / width); n > 1 {
		return n
	}
	return 1
}

// notePhase folds a phase's failures into the report.
func notePhase(rep *report, name string, p *phase) {
	rep.attempted += p.attempted()
	if n := p.failed + p.unsent; n > 0 {
		rep.failed += n
		rep.problems = append(rep.problems, fmt.Sprintf("%s: %d of %d operations failed, first: %v", name, n, p.attempted(), p.err))
	}
}

// checkGenerator fails the run when the generator itself ran late by
// more than a fifth of the workload's latency limit: latencies measured
// by a late generator describe the generator. Lateness is summarized
// like latency, as the quiet tenth of the sub-intervals' p99.
func checkGenerator(rep *report, p *phase, d, width time.Duration, limitMs float64) float64 {
	late := quietTenth(windowed(p.late, width, windowCount(d, width)), 99)
	if late > limitMs/5 {
		rep.fail("generator ran late: p99 %.2f ms past due, limit %.2f ms", late, limitMs/5)
	}
	return late
}

// runServing is hot-front and cold-scan.
func runServing(ctx context.Context, cfg runConfig, plan servingPlan) (*report, error) {
	rep := newReport()
	var lay *layers
	if cfg.trace {
		lay = newLayers()
		lay.direct = !plan.hot
	}
	speed := newSpeedMeter()
	f, setupS, err := buildRepeated(ctx, cfg, lay, speed)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := f.checkDigests(); err != nil {
		rep.fail("after set-up: %v", err)
	}

	var hot *hotKeys
	base, keys := f.replicas[0].url, 0
	if plan.hot {
		hot = newHotKeys(cfg.spec)
		base, keys = f.frontSrv.url, len(hot.reqs)
	}
	t := newTarget(base, plan.hot, keys, nil) // traceServing hands it the tracer
	defer t.close()

	if err := warm(ctx, t, cfg, hot); err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS // the fixed-length warm-up is not part of it

	closedD, openD := seconds(cfg.seconds*closedShare), seconds(cfg.seconds*openShare)
	width := latencyWindow(plan.rate)
	if cfg.trace {
		return rep, traceServing(ctx, cfg, plan, f, t, hot, rep, speed, closedD, openD)
	}

	heap := watchHeap()
	closed, atSpeed, raw := closedSlices(ctx, t, clientStreams(cfg, hot, 0), closedD, speed)
	notePhase(rep, "closed loop", closed)
	open := openLoop(ctx, t, openRequests(cfg, hot, plan.rate, openD), plan.rate)
	notePhase(rep, "open loop", open)
	rep.metrics["live_heap_mb"] = heap.liveMB()
	checkGenerator(rep, open, openD, width, plan.limitMs)

	rep.metrics["throughput_per_s"] = atSpeed.rate
	openP50, openP95 := openLoopLatency(open.lat, openD, width)
	if plan.closedLatency {
		rep.metrics["latency_p50_ms"], rep.metrics["latency_p95_ms"] = atSpeed.p50, atSpeed.p95
	} else {
		rep.metrics["latency_p50_ms"], rep.metrics["latency_p95_ms"] = openP50, openP95
	}
	rep.note("closed loop: %d clients, %d verified responses in %.2fs, %.0f a second as timed, machine speed index %.3f",
		runtime.GOMAXPROCS(0), closed.ok, closed.wall.Seconds(), raw, speed.index())
	rep.note("open loop: %.0f req/s, %d latency samples in %s windows, p50 %.3f ms and p95 %.3f ms over the quiet tenth, %d missed the %.0f ms limit",
		plan.rate, len(open.lat), width, openP50, openP95, sloMisses(open, plan.limitMs), plan.limitMs)

	checkOracle(f, append(closed.samples, open.samples...), rep)
	return rep, nil
}

// closedFigures summarizes a sliced closed loop: the median slice's
// verified responses per second and the median of the slices' request
// latency percentiles, each slice's taken at the reference machine's
// speed (speed.go).
type closedFigures struct {
	rate, p50, p95 float64
}

// closedSlices runs the closed loop for d in all, in slices of about
// closedSlice with a speed probe before and after each, and returns the
// slices as one phase with its figures at the reference machine's speed
// and its throughput as the stopwatch had it.
func closedSlices(ctx context.Context, t *target, streams []*stream, d time.Duration, speed *speedMeter) (all *phase, atSpeed closedFigures, raw float64) {
	n := max(1, int(d/(closedSlice+refProbe)))
	each := max(d/time.Duration(n)-refProbe, d/time.Duration(2*n))
	all = &phase{}
	var rates, raws, p50s, p95s []float64
	for i := 0; i < n && ctx.Err() == nil; i++ {
		var p *phase
		_, index := speed.span(func() { p = closedLoop(ctx, t, streams, each) })
		r := ratio(float64(p.ok), p.wall.Seconds())
		raws, rates = append(raws, r), append(rates, r/index)
		lat := windowed(p.lat, time.Hour, 1)[0]
		p50s, p95s = append(p50s, percentile(lat, 50)*index), append(p95s, percentile(lat, 95)*index)
		all.add(p, all.wall)
	}
	return all, closedFigures{median(rates), median(p50s), median(p95s)}, median(raws)
}

// traceServing is the traced run of a serving workload: the same phases
// with span recording on, the layers' counters differenced across them,
// then the layer probes.
func traceServing(ctx context.Context, cfg runConfig, plan servingPlan, f *fleet, t *target, hot *hotKeys,
	rep *report, speed *speedMeter, closedD, openD time.Duration) error {
	lay := f.lay
	m := rep.metrics
	setupMetrics(m, f)

	// Recording off, then on, over the same closed loop: the difference
	// is what the spans cost.
	bare := closedLoop(ctx, t, clientStreams(cfg, hot, 0), closedD/2)
	notePhase(rep, "closed loop, recording off", bare)

	before, err := f.counters(ctx)
	if err != nil {
		return err
	}
	lay.reset()
	lay.tr.on.Store(true)
	t.tr = lay.tr
	closed := closedLoop(ctx, t, clientStreams(cfg, hot, 0), closedD/2)
	notePhase(rep, "closed loop", closed)
	open := openLoop(ctx, t, openRequests(cfg, hot, plan.rate, openD), plan.rate)
	notePhase(rep, "open loop", open)
	lay.tr.on.Store(false)
	after, err := f.counters(ctx)
	if err != nil {
		return err
	}

	m["trace.overhead_ratio"] = 1 - ratio(closedLoopRate(closed, closedD/2), closedLoopRate(bare, closedD/2))
	m["loadgen.late_ms_p99"] = checkGenerator(rep, open, openD, latencyWindow(plan.rate), plan.limitMs)
	readLatencyMetrics(m, open)
	speed.probe()
	m["machine.speed_index"] = speed.index()
	m["loadgen.sent"] = float64(closed.attempted() + open.attempted() - open.unsent)
	m["loadgen.slo_miss_ratio"] = ratio(float64(sloMisses(open, plan.limitMs)), float64(open.attempted()))

	spans := lay.tr.take()
	sum := summarize(spans, spanClient)
	m["trace.spans"] = float64(len(spans))
	m["trace.self_sum_ratio"] = sum.sumOver
	m["loadgen.client_self_ms_p50"] = sum.selfP50[spanClient]
	if plan.hot {
		m["front.self_ms_p50"] = sum.selfP50[spanFront]
		m["front.upstream_ms_p50"] = sum.durP50[spanUpstream]
		m["front.hop_ms_p50"] = sum.selfP50[spanUpstream]
		m["front.conns_opened"] = float64(lay.connsOpened.Load())
	}
	path, err := writeSpans(cfg, spans)
	if err != nil {
		return err
	}
	rep.note("%d spans of %d requests written to %s", len(spans), sum.traces, path)
	rep.note("client.request p50 %.3f ms; self times p50: client %.3f, front %.3f, upstream hop %.3f, replica %.3f ms",
		sum.durP50[spanClient], sum.selfP50[spanClient], sum.selfP50[spanFront], sum.selfP50[spanUpstream], sum.selfP50[spanReplica])

	replicaMetrics(m, lay)
	counterMetrics(m, after.sub(before), len(f.replicas), plan.hot)

	if !plan.hot {
		if err := restartProbe(ctx, f, m); err != nil {
			return err
		}
	}
	probeStream := newStream(cfg.spec, cfg.seed*1000+700, hot)
	if err := layerProbes(f, probeStream, probeCount(cfg), m); err != nil {
		return err
	}
	checkOracle(f, append(closed.samples, open.samples...), rep)
	m["loadgen.error_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	return nil
}

// readLatencyMetrics reports an open loop's latency from due time over
// the whole phase, every disturbed stretch included: what the end-to-end
// figures' quiet windows leave out.
func readLatencyMetrics(m map[string]float64, p *phase) {
	all := windowed(p.lat, time.Hour, 1)[0]
	m["loadgen.read_ms_p50"] = percentile(all, 50)
	m["loadgen.read_ms_p99"] = percentile(all, 99)
}

// setupMetrics reports where the fixture build spent its time.
func setupMetrics(m map[string]float64, f *fleet) {
	m["tsdb.write_batch_pts_per_s"] = ratio(float64(f.spec.points()), f.times.write.Seconds())
	m["tsdb.full_snapshot_s"] = f.times.snapshot.Seconds()
	m["replication.initial_sync_s"] = f.times.sync.Seconds()
}

// replicaMetrics turns the replica middleware's observations into the
// api.* metrics.
func replicaMetrics(m map[string]float64, lay *layers) {
	obs, exp := lay.observations()
	var all []float64
	kind := make([][]float64, numKinds)
	var notModified, bytesOut float64
	for _, o := range obs {
		all = append(all, o.ms)
		kind[o.kind] = append(kind[o.kind], o.ms)
		if o.status == 304 {
			notModified++
		}
		bytesOut += float64(o.bytes)
	}
	s := sortedCopy(all)
	m["api.serve_ms_p50"] = percentile(s, 50)
	m["api.serve_ms_p99"] = percentile(s, 99)
	m["api.congestion_ms_p50"] = median(kind[kindCongestion])
	m["api.query_ms_p50"] = median(kind[kindQuery])
	m["api.agg_ms_p50"] = median(kind[kindAgg])
	m["api.dashboard_ms_p50"] = median(kind[kindDashboard])
	m["api.not_modified_ratio"] = ratio(notModified, float64(len(obs)))
	m["api.resp_bytes_mean"] = ratio(bytesOut, float64(len(obs)))
	m["replication.exporter_ms_p50"] = median(exp)
}

// counterMetrics turns a counter difference into the count metrics.
func counterMetrics(m map[string]float64, d counterSet, replicas int, viaFront bool) {
	for _, name := range []string{
		"readcache.evictions", "readcache.coalesced", "readcache.stale_serves", "readcache.bg_refreshes",
		"analysis.detector_runs", "analysis.incremental_folds", "analysis.full_recomputes", "analysis.points_folded",
		"tsdb.blocks_scanned", "tsdb.blocks_skipped", "tsdb.blocks_decoded", "tsdb.decoded_bytes", "tsdb.summary_only_buckets",
		"replication.delta_segments", "replication.delta_fallbacks",
	} {
		m[name] = d[name]
	}
	m["readcache.hit_ratio"] = ratio(d["readcache.hits"], d["readcache.hits"]+d["readcache.misses"]+d["readcache.coalesced"])
	if viaFront {
		m["front.hedged"] = d["front.hedged"]
		m["front.retried"] = d["front.retried"]
		m["front.unavailable"] = d["front.unavailable"]
		m["front.balance"] = frontBalance(d, replicas)
	}
}
