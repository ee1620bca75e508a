package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
}

// The expected figures are Python's: statistics.quantiles(v, n=4) gives
// [2.75, 5.5, 8.25] for 1..10 and [1.0, 2.0, 6.0] for [1, 2, 2, 10].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	if got, want := quartileSpread([]float64{1, 2, 2, 10}), (8.0-1.25)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread([1 2 2 10]) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestQuietTenthIgnoresStalledWindows(t *testing.T) {
	var samples []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if w == 2 {
				lat = 80 * time.Millisecond // one stalled sub-interval
			}
			samples = append(samples, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	// A backlog draining after the schedule folds into the last window.
	samples = append(samples, sample{at: 7 * time.Second, lat: time.Millisecond})
	win := windowed(samples, time.Second, 5)
	if len(win[4]) != 101 {
		t.Fatalf("last window holds %d samples, want 101", len(win[4]))
	}
	if got := quietTenth(win, 99); got != 1 {
		t.Errorf("quietTenth p99 = %v ms, want 1", got)
	}
	all := windowed(samples, 10*time.Second, 1)
	if got := percentile(all[0], 99); got != 80 {
		t.Errorf("whole-phase p99 = %v ms, want 80", got)
	}
}

// Two spans that follow at once share the probe between them; after a
// pause the next span probes afresh. The index is the mean of a span's
// two scores over the nominal score, so scaling a duration by it and a
// rate by its inverse cancel.
func TestSpeedMeterSpans(t *testing.T) {
	m := newSpeedMeter()
	ran := 0
	w1, i1 := m.span(func() { ran++ })
	w2, i2 := m.span(func() { ran++ })
	if ran != 2 || len(m.samples) != 3 {
		t.Fatalf("two back-to-back spans ran fn %d times and probed %d times, want 2 and 3", ran, len(m.samples))
	}
	if want := (m.samples[0] + m.samples[1]) / 2 / refNominal; i1 != want || i1 <= 0 {
		t.Errorf("first span's index = %v, want %v", i1, want)
	}
	if want := (m.samples[1] + m.samples[2]) / 2 / refNominal; i2 != want {
		t.Errorf("second span's index = %v, want %v", i2, want)
	}
	if w1 > refProbe || w2 > refProbe {
		t.Errorf("empty spans took %v and %v: the probes are inside the timed stretch", w1, w2)
	}
	time.Sleep(refProbe/5 + 10*time.Millisecond)
	m.span(func() {})
	if len(m.samples) != 5 {
		t.Errorf("a span after a pause left %d scores, want 5 (its own two probes)", len(m.samples))
	}
	if got, want := m.index(), median(m.samples)/refNominal; got != want {
		t.Errorf("index = %v, want %v", got, want)
	}
	a, b := newRefState(), newRefState()
	if a.unit() != b.unit() {
		t.Error("the reference unit is not a function of its fixed input")
	}
}

func TestPhaseAddShiftsClock(t *testing.T) {
	p := &phase{}
	p.add(&phase{wall: time.Second, ok: 3, lat: []sample{{at: 100 * time.Millisecond, lat: time.Millisecond}}}, p.wall)
	p.add(&phase{wall: time.Second, ok: 2, failed: 1, lat: []sample{{at: 100 * time.Millisecond, lat: time.Millisecond}}}, p.wall)
	if p.ok != 5 || p.failed != 1 || p.wall != 2*time.Second || p.attempted() != 6 {
		t.Errorf("merged phase: ok %d failed %d wall %v", p.ok, p.failed, p.wall)
	}
	if len(p.lat) != 2 || p.lat[1].at != 1100*time.Millisecond {
		t.Errorf("second phase's sample sits at %v, want 1.1s", p.lat[1].at)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	spec := fixtureSpec{links: 16, days: 10}
	for _, hot := range []*hotKeys{newHotKeys(spec), nil} {
		a, b, c := newStream(spec, 42, hot), newStream(spec, 42, hot), newStream(spec, 43, hot)
		same, differ := true, false
		kinds := map[reqKind]int{}
		for i := 0; i < 2000; i++ {
			ra, rb, rc := a.next(), b.next(), c.next()
			same = same && ra == rb
			differ = differ || ra.path != rc.path
			kinds[ra.kind]++
			if !strings.HasPrefix(ra.path, "/") {
				t.Fatalf("path %q", ra.path)
			}
		}
		if !same {
			t.Errorf("hot=%v: one seed gave two request streams", hot != nil)
		}
		if !differ {
			t.Errorf("hot=%v: two seeds gave one request stream", hot != nil)
		}
		if hot != nil && (kinds[kindDashboard] == 0 || kinds[kindCongestion] < kinds[kindQuery]) {
			t.Errorf("hot mix %v: want mostly congestion and some dashboard", kinds)
		}
		if hot == nil && kinds[kindDashboard] != 0 {
			t.Errorf("cold mix %v has dashboard requests", kinds)
		}
	}
	if got, want := len(newHotKeys(fullFixture).reqs), 193; got != want {
		t.Errorf("full fixture has %d hot keys, want %d", got, want)
	}
}

func TestSampleValueIsPureAndPlateaus(t *testing.T) {
	if sampleValue(7, 3, 1, 100) != sampleValue(7, 3, 1, 100) {
		t.Fatal("sampleValue is not a function of its arguments")
	}
	if sampleValue(7, 3, 1, 100) == sampleValue(8, 3, 1, 100) {
		t.Error("seed does not reach the values")
	}
	evening, noon := 20*12, 12*12 // five-minute steps into the day
	if d := sampleValue(7, 4, 0, evening) - sampleValue(7, 4, 0, noon); d < 13 {
		t.Errorf("far side of link 4 rises %.1f ms in the evening, want the 15 ms plateau", d)
	}
	if d := sampleValue(7, 5, 0, evening) - sampleValue(7, 5, 0, noon); math.Abs(d) > 1 {
		t.Errorf("link 5 has no plateau, yet rises %.1f ms", d)
	}
}

// An open loop charges a stall to every request that was due while it
// lasted: with one connection and a first response held for 200 ms, the
// request due at 100 ms is answered no sooner than 200 ms, so its
// latency from due time is at least 100 ms — although the server itself
// answered it at once.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var first atomic.Bool
	const stall = 200 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	defer ts.Close()
	tg := &target{base: ts.URL, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	defer tg.close()

	reqs := make([]request, 30) // 100 requests a second: due every 10 ms for 300 ms
	for i := range reqs {
		reqs[i] = request{key: -1, path: "/"}
	}
	p := openLoop(context.Background(), tg, reqs, 100)
	if p.failed != 0 || p.unsent != 0 || p.ok != len(reqs) {
		t.Fatalf("ok %d failed %d unsent %d: %v", p.ok, p.failed, p.unsent, p.err)
	}
	var stalled, after int
	for _, s := range p.lat {
		switch {
		case s.at == 100*time.Millisecond:
			if s.lat < stall-s.at-20*time.Millisecond {
				t.Errorf("request due at %v took %v from due time, want at least %v", s.at, s.lat, stall-s.at)
			}
			stalled++
		case s.at >= 280*time.Millisecond:
			if s.lat > 60*time.Millisecond {
				t.Errorf("request due at %v, after the stall drained, took %v", s.at, s.lat)
			}
			after++
		}
	}
	if stalled != 1 || after == 0 {
		t.Fatalf("found %d requests due at 100 ms and %d after 280 ms", stalled, after)
	}
	late := windowed(p.late, time.Second, 1)[0]
	if percentile(late, 50) > 20 {
		t.Errorf("generator itself ran %v ms late at the median", percentile(late, 50))
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	msec := func(n int64) int64 { return n * 1e6 }
	spans := []span{
		{Trace: 1, Name: spanClient, Start: 0, End: msec(10)},
		{Trace: 1, Name: spanFront, Parent: spanClient, Start: msec(1), End: msec(9)},
		// A hedged request: two upstream fetches overlapping.
		{Trace: 1, Name: spanUpstream, Parent: spanFront, Start: msec(2), End: msec(6)},
		{Trace: 1, Name: spanUpstream, Parent: spanFront, Start: msec(4), End: msec(8)},
		{Trace: 1, Name: spanReplica, Parent: spanUpstream, Start: msec(3), End: msec(5)},
		{Trace: 1, Name: spanReplica, Parent: spanUpstream, Start: msec(5), End: msec(7)},
		// Another request's spans must not leak in.
		{Trace: 2, Name: spanClient, Start: 0, End: msec(4)},
	}
	self := selfTimes(intervalsByName(byTrace(spans)[1]))
	want := map[string]int64{spanClient: msec(2), spanFront: msec(2), spanUpstream: msec(2), spanReplica: msec(4)}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d ns, want %d", name, self[name], w)
		}
	}
	sum := summarize(spans, spanClient)
	if sum.traces != 2 || sum.sumOver != 1 {
		t.Errorf("summarize: %d traces, self times sum to %v of the root; want 2 and 1", sum.traces, sum.sumOver)
	}
	if got := sum.durP50[spanUpstream]; got != 6 {
		t.Errorf("upstream covers %v ms, want 6", got)
	}
}

func TestTracerDropsUntracedAndGatedSpans(t *testing.T) {
	var nilTracer *tracer
	nilTracer.add(1, "x", "", time.Now(), time.Now()) // must not panic
	tr := newTracer()
	tr.add(1, "gated", "", time.Now(), time.Now())
	tr.on.Store(true)
	tr.add(0, "untraced", "", time.Now(), time.Now())
	tr.add(1, "kept", "", time.Now(), time.Now())
	if got := tr.take(); len(got) != 1 || got[0].Name != "kept" {
		t.Errorf("tracer kept %v", got)
	}
	if got := tr.take(); len(got) != 0 {
		t.Errorf("take did not forget: %v", got)
	}
}

func TestCounterDifferencing(t *testing.T) {
	before := counterSet{"readcache.hits": 100, "front.routed.0": 10, "front.routed.1": 10}
	after := counterSet{"readcache.hits": 160, "readcache.misses": 40, "front.routed.0": 40, "front.routed.1": 25}
	d := after.sub(before)
	if d["readcache.hits"] != 60 || d["readcache.misses"] != 40 {
		t.Errorf("difference %v", d)
	}
	if got := frontBalance(d, 2); got != 0.5 {
		t.Errorf("balance = %v, want 0.5 (15 against 30 routed)", got)
	}
	m := map[string]float64{}
	counterMetrics(m, d, 2, true)
	if got := m["readcache.hit_ratio"]; got != 0.6 {
		t.Errorf("hit ratio = %v, want 0.6", got)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in
// metrics.go and main.go are what the program prints. They must say the
// same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the tables %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(gated), len(endToEnd), len(perLayer))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v against %q (%d characters)", i, doc.Workloads[i], w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %d: %+v against %+v", i, j, d)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer %d: %+v against %+v", i, j, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %s is used twice", d.name)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("contract basics: setup_s %v, run_seconds %d, paths %v", seen["setup_s"], doc.RunSeconds, doc.Paths)
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, on a
// shrunken fixture for a fraction of a second: every tier stands up,
// every check passes, and every metric the contract names is reported.
// The runs overlap; much of each is waiting on a schedule.
func TestSmokeAllWorkloads(t *testing.T) {
	small := fixtureSpec{links: 8, days: 6, blockCacheBytes: 256 << 10}
	batch := batchSpec{studyDays: 50, campaignVPs: 2, campaignHours: 1, minJobs: 1}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if w.name == "study" && traced {
				continue // the traced study only re-times the same job
			}
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				cfg := runConfig{workload: w.name, seed: 9, seconds: 0.5, trace: traced, workdir: t.TempDir(), spec: small, batch: batch}
				rep, err := w.run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range rep.problems {
					// A loaded test machine may starve the generator; that
					// invalidates a measurement, not the harness.
					if !strings.HasPrefix(p, "generator ran late") {
						t.Error(p)
					}
				}
				res, err := result(rep, traced)
				if err != nil {
					t.Fatal(err)
				}
				if rep.attempted < 1 {
					t.Error("attempted nothing")
				}
				if !traced {
					for name, v := range res.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end %s = %v, want above zero", name, v.Value)
						}
					}
					return
				}
				for _, name := range tracedMustMove[w.name] {
					if !(res.Metrics[name].Value > 0) {
						t.Errorf("%s = %v, want above zero", name, res.Metrics[name].Value)
					}
				}
			})
		}
	}
}

// tracedMustMove names, per workload, per-layer metrics that cannot be
// zero if the layer they watch did its work.
var tracedMustMove = map[string][]string{
	"hot-front": {"machine.speed_index", "loadgen.read_ms_p50", "loadgen.read_ms_p99", "front.self_ms_p50", "front.hop_ms_p50", "front.balance", "api.serve_ms_p50", "api.not_modified_ratio",
		"readcache.hit_ratio", "trace.spans", "trace.self_sum_ratio", "api.inproc_miss_ms_p50", "tsdb.view_stamp_us_p50",
		"analysis.full_fold_ms_p50", "readcache.do_hit_ns", "tsdb.write_batch_pts_per_s", "replication.initial_sync_s"},
	"cold-scan": {"machine.speed_index", "loadgen.read_ms_p50", "api.serve_ms_p50", "api.query_ms_p50", "api.agg_ms_p50", "api.congestion_ms_p50", "tsdb.blocks_decoded",
		"tsdb.decoded_bytes", "analysis.full_recomputes", "restart.ms_p50", "tsdb.restore_lazy_ms", "tsdb.query_view_ms_p50",
		"tsdb.query_agg_ms_p50", "blockenc.decode_ns_per_point", "blockenc.encode_ns_per_point", "trace.self_sum_ratio"},
	"churn": {"machine.speed_index", "loadgen.read_ms_p50", "loadgen.read_ms_p99", "publish.p50_ms", "publish.max_ms", "replication.tail_ms_p50", "replication.bytes_per_round",
		"replication.delta_segments", "replication.segments_reused", "replication.exporter_ms_p50",
		"replication.unchanged_tail_ms_p50", "tsdb.snapshot_ms_p50", "tsdb.snapshot_segments_written",
		"tsdb.snapshot_bytes_written", "tsdb.disk_bytes_per_point", "readcache.stale_serves", "trace.self_sum_ratio"},
	"collect": {"machine.speed_index", "netsim.events", "netsim.events_per_s", "netsim.warmup_s", "netsim.shard_speedup", "bdrmap.links",
		"tslp.points", "lossprobe.targets", "pipeline.workers", "scenario.build_s"},
}
