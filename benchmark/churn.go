package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// Churn's fixed schedule: one publish round a second, and an open-loop
// reader sending the hot-front mix through the front at a third of
// hot-front's rate while the rounds run. The operation churn's
// end-to-end figures describe is the publish round — how long after a
// sample was due every reader can see it — with the reads as the load it
// runs beside: a round keeps one core busy for about a quarter of its
// second (publishWorkers) and then invalidates every cached answer, so
// the reads split into two regimes whose boundary moves with the
// round's length, and no percentile of them held still (the reads due
// while a round ran spread 40% to 70% from run to run at the p50). The
// traced run reports them over the whole phase (loadgen.read_ms_p50,
// loadgen.read_ms_p99, loadgen.slo_miss_ratio). The latency limit is
// looser than hot-front's: the publisher, the followers, the front, the
// replicas and the generator share the cores.
const (
	churnCadence = time.Second
	churnRate    = 1000
	churnLimitMs = 100
	// churnSegment is how many rounds run between two speed probes
	// (speed.go); the reader pauses for a probe like the publisher.
	churnSegment = 5
	// publishTraceBase keeps round ids apart from request ids.
	publishTraceBase = 1 << 40
)

// round is what one publish round did.
type round struct {
	latency  time.Duration // due → new sample read back through the front
	atSpeed  float64       // latency in ms at the reference machine's speed (speed.go)
	late     bool          // started well after its due time: the previous round overran
	cycles   []replication.CycleStats
	snapshot tsdb.DirStats
	newBytes int64 // segment bytes the snapshot wrote (traced run only)
}

// publisher drives churn's write path through the real tiers.
type publisher struct {
	f  *fleet
	tr *tracer // nil when untraced
	hc *http.Client
}

// publish runs round r: one new five-minute sample on every series →
// incremental SnapshotDir → every follower TailOnce, one after the
// other → Front.PollNow → a raw query through the front over the
// round's own five minutes, which must return the new point of both
// sides of the probed link.
func (p *publisher) publish(ctx context.Context, r int, due time.Time) (round, error) {
	f := p.f
	id := uint64(publishTraceBase + r)
	out := round{}
	t0 := time.Now()
	out.late = t0.Sub(due) > churnCadence/100

	step := f.spec.steps() + r
	at := netsim.Epoch.Add(time.Duration(step) * cadence)
	batch := make([]tsdb.BatchPoint, 0, f.spec.series())
	for l := 0; l < f.spec.links; l++ {
		for s := range sides {
			batch = append(batch, tsdb.BatchPoint{Measurement: measurement, Tags: f.tags[l][s],
				Time: at, Value: sampleValue(f.seed, l, s, step)})
		}
	}
	f.leader.WriteBatch(batch)
	t1 := time.Now()
	p.tr.add(id, spanWrite, spanPublish, t0, t1)

	var before map[string]int64
	if p.tr != nil {
		before = segmentSizes(f.leaderDir)
	}
	t1 = time.Now()
	st, err := f.leader.SnapshotDir(f.leaderDir, tsdb.DirOptions{Incremental: true, Workers: publishWorkers})
	if err != nil {
		return out, fmt.Errorf("round %d snapshot: %w", r, err)
	}
	t2 := time.Now()
	p.tr.add(id, spanSnapshot, spanPublish, t1, t2)
	out.snapshot = st
	if p.tr != nil {
		for name, size := range segmentSizes(f.leaderDir) {
			if _, had := before[name]; !had {
				out.newBytes += size
			}
		}
		t2 = time.Now()
	}

	for i, fol := range f.followers {
		s0 := time.Now()
		cs, err := fol.TailOnce(withTrace(ctx, id))
		p.tr.add(id, spanTail, spanPublish, s0, time.Now())
		if err != nil {
			return out, fmt.Errorf("round %d follower %d: %w", r, i, err)
		}
		out.cycles = append(out.cycles, cs)
	}

	t3 := time.Now()
	f.front.PollNow(ctx)
	t4 := time.Now()
	p.tr.add(id, spanPoll, spanPublish, t3, t4)

	link := r % f.spec.links
	err = p.probe(ctx, link, step, at)
	t5 := time.Now()
	p.tr.add(id, spanProbe, spanPublish, t4, t5)
	if err != nil {
		return out, fmt.Errorf("round %d probe: %w", r, err)
	}
	out.latency = t5.Sub(due)
	// The root span starts when the round did, so its children tile it;
	// the wait a late start adds is in latency, not in the span.
	p.tr.add(id, spanPublish, "", t0, t5)
	return out, nil
}

// probe reads the round's sample back through the front. Like the
// poll before it, it carries no trace id: the tiers it crosses are the
// read path's spans, and the round's tree times it as one leaf.
func (p *publisher) probe(ctx context.Context, link, step int, at time.Time) error {
	rq := queryRequest(linkID(link), at, at.Add(cadence))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.f.frontSrv.url+rq.path, nil)
	if err != nil {
		return err
	}
	var qr api.QueryResponse
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		return err
	}
	if len(qr.Series) != len(sides) {
		return fmt.Errorf("%d series for link %s at %s, want %d", len(qr.Series), linkID(link), at.Format(time.RFC3339), len(sides))
	}
	for _, s := range qr.Series {
		side := 0
		if s.Tags["side"] == "near" {
			side = 1
		}
		want := sampleValue(p.f.seed, link, side, step)
		if len(s.Values) != 1 || s.Values[0] != want || !s.Times[0].Equal(at) {
			return fmt.Errorf("link %s %s: read back %v at %v, want %v at %v", linkID(link), s.Tags["side"], s.Values, s.Times, want, at)
		}
	}
	return nil
}

// segmentSizes lists the segment files of a snapshot directory.
func segmentSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out // an unreadable directory shows up as a failed snapshot
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		if info, err := e.Info(); err == nil {
			out[e.Name()] = info.Size()
		}
	}
	return out
}

// runChurn is the churn workload.
func runChurn(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	var lay *layers
	var tr *tracer
	if cfg.trace {
		lay = newLayers()
		tr = lay.tr
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
	hot := newHotKeys(cfg.spec)
	t := newTarget(f.frontSrv.url, true, len(hot.reqs), tr)
	defer t.close()
	if err := warm(ctx, t, cfg, hot); err != nil {
		return nil, err
	}
	m := rep.metrics
	m["setup_s"] = setupS

	rounds := max(2, int(seconds(cfg.seconds)/churnCadence)/churnSegment*churnSegment)
	length := time.Duration(rounds) * churnCadence
	readStream := newStream(cfg.spec, cfg.seed*1000+500, hot)

	var before counterSet
	if cfg.trace {
		setupMetrics(m, f)
		if before, err = f.counters(ctx); err != nil {
			return nil, err
		}
		lay.reset()
		tr.on.Store(true)
	}

	// Segments of churnSegment rounds, each between two speed probes; in
	// a segment the reader's open loop and the publisher run side by side.
	heap := watchHeap()
	pub := &publisher{f: f, tr: tr, hc: &http.Client{Timeout: 30 * time.Second}}
	defer pub.hc.CloseIdleConnections()
	reader := &phase{}
	var done []round
	var pubErr error
	for r0 := 0; r0 < rounds && pubErr == nil && ctx.Err() == nil; r0 += churnSegment {
		n := min(churnSegment, rounds-r0)
		reqs := drawRequests(readStream, churnRate*n*int(churnCadence/time.Second))
		var seg []round
		_, index := speed.span(func() {
			var part *phase
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				part = openLoop(ctx, t, reqs, churnRate)
			}()
			start := time.Now()
			for r := r0; r < r0+n && ctx.Err() == nil; r++ {
				due := start.Add(time.Duration(r-r0) * churnCadence)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				rd, err := pub.publish(ctx, r, due)
				if err != nil {
					pubErr = err
					break
				}
				seg = append(seg, rd)
			}
			wg.Wait()
			reader.add(part, time.Duration(r0)*churnCadence)
		})
		for _, rd := range seg {
			rd.atSpeed = ms(rd.latency) * index
			done = append(done, rd)
		}
	}
	liveMB := heap.liveMB()
	if cfg.trace {
		tr.on.Store(false)
	}

	notePhase(rep, "reader", reader)
	rep.attempted += rounds
	if pubErr != nil {
		rep.failed += rounds - len(done)
		rep.problems = append(rep.problems, pubErr.Error())
	}
	latePast := checkGenerator(rep, reader, length, churnCadence, churnLimitMs)
	if err := f.checkDigests(); err != nil {
		rep.fail("after the last round: %v", err)
	}
	checkHotKeys(ctx, f, t, hot, rep)

	var lat, atSpeed []float64
	var late float64
	for _, rd := range done {
		lat = append(lat, ms(rd.latency))
		atSpeed = append(atSpeed, rd.atSpeed)
		if rd.late {
			late++
		}
	}
	pubP50 := median(lat)
	rep.note("%d publish rounds every %s, due→visible p50 %.1f ms as timed, machine speed index %.3f; reader %d req/s, %d latency samples",
		len(done), churnCadence, pubP50, speed.index(), churnRate, len(reader.lat))

	if !cfg.trace {
		// The round is the operation: samples made visible per second of
		// publish-path time, and the rounds' due→visible times, all at the
		// reference machine's speed.
		sort.Float64s(atSpeed)
		m["throughput_per_s"] = ratio(float64(cfg.spec.series()), mean(atSpeed)/1e3)
		m["latency_p50_ms"], m["latency_p95_ms"] = percentile(atSpeed, 50), percentile(atSpeed, 95)
		m["live_heap_mb"] = liveMB
		return rep, nil
	}

	after, err := f.counters(ctx)
	if err != nil {
		return nil, err
	}
	d := after.sub(before)
	counterMetrics(m, d, len(f.replicas), true)
	replicaMetrics(m, lay)
	m["publish.p50_ms"] = pubP50
	m["publish.max_ms"] = percentile(sortedCopy(lat), 100)
	m["publish.late_rounds"] = late
	m["loadgen.late_ms_p99"] = latePast
	readLatencyMetrics(m, reader)
	m["machine.speed_index"] = speed.index()
	m["loadgen.sent"] = float64(reader.attempted() - reader.unsent)
	m["loadgen.slo_miss_ratio"] = ratio(float64(sloMisses(reader, churnLimitMs)), float64(reader.attempted()))
	m["front.conns_opened"] = float64(lay.connsOpened.Load())

	var written, reused, newBytes float64
	for _, rd := range done {
		written += float64(rd.snapshot.Written)
		newBytes += float64(rd.newBytes)
		for _, c := range rd.cycles {
			reused += float64(c.SegmentsReused)
		}
	}
	m["tsdb.snapshot_segments_written"] = written
	m["tsdb.snapshot_bytes_written"] = newBytes
	m["replication.segments_reused"] = reused
	m["replication.bytes_per_round"] = ratio(d["replication.bytes"], float64(len(done)))
	if info, err := tsdb.ReadDirInfo(f.leaderDir); err == nil {
		m["tsdb.disk_bytes_per_point"] = ratio(float64(info.Bytes), float64(info.Points))
	}

	spans := lay.tr.take()
	reads := summarize(spans, spanClient)
	pubs := summarize(spans, spanPublish)
	m["trace.spans"] = float64(len(spans))
	m["trace.self_sum_ratio"] = pubs.sumOver
	m["loadgen.client_self_ms_p50"] = reads.selfP50[spanClient]
	m["front.self_ms_p50"] = reads.selfP50[spanFront]
	m["front.upstream_ms_p50"] = reads.durP50[spanUpstream]
	m["front.hop_ms_p50"] = reads.selfP50[spanUpstream]
	m["tsdb.snapshot_ms_p50"] = pubs.durP50[spanSnapshot]
	m["replication.tail_ms_p50"] = pubs.durP50[spanTail]
	path, err := writeSpans(cfg, spans)
	if err != nil {
		return nil, err
	}
	rep.note("%d spans of %d requests and %d rounds written to %s", len(spans), reads.traces, pubs.traces, path)

	var unchanged []float64
	for i := 0; i < 5; i++ {
		for _, fol := range f.followers {
			var cs replication.CycleStats
			var terr error
			unchanged = append(unchanged, timeIt(func() { cs, terr = fol.TailOnce(ctx) }))
			if terr != nil || !cs.Unchanged {
				rep.fail("idle tail cycle: unchanged=%v err=%v", cs.Unchanged, terr)
			}
		}
	}
	m["replication.unchanged_tail_ms_p50"] = median(unchanged)

	if err := layerProbes(f, newStream(cfg.spec, cfg.seed*1000+700, hot), probeCount(cfg), m); err != nil {
		return nil, err
	}
	m["loadgen.error_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	return rep, nil
}

// checkHotKeys fetches every hot key through the front once the store
// has stopped moving and compares it with the oracle over the leader. A
// stale-while-revalidate answer is retried until the refresh lands.
func checkHotKeys(ctx context.Context, f *fleet, t *target, hot *hotKeys, rep *report) {
	oracle := api.New(f.leader)
	defer oracle.Close()
	for _, rq := range hot.reqs {
		rep.attempted++
		var body []byte
		var err error
		for try := 0; try < 200; try++ {
			var stale bool
			if body, stale, err = fetch(ctx, t, rq.path); err != nil || !stale {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		w := httptest.NewRecorder()
		oracle.ServeHTTP(w, httptest.NewRequest("GET", rq.path, nil))
		if err != nil || !bytes.Equal(body, w.Body.Bytes()) {
			rep.fail("after the last round %s differs from the oracle (%d vs %d bytes, err %v)", rq.path, len(body), w.Body.Len(), err)
		}
	}
}

// fetch GETs one path and says whether the answer was marked stale.
func fetch(ctx context.Context, t *target, path string) (body []byte, stale bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != 200 {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, resp.Header.Get("X-Stale") != "", err
}
