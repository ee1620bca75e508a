// Package bench is the benchmark harness regenerating every table and
// figure of the paper's evaluation. Run it with:
//
//	go test -bench=. -benchmem
//
// Longitudinal benchmarks (Tables 1/3/4, Figures 7/8/9) share one cached
// 650-day fluid-mode study; the first of them pays its cost (~30s), the
// rest are incremental. Paper-vs-measured headlines are emitted through
// b.Log and custom metrics; EXPERIMENTS.md records a full comparison.
package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/api"
	"interdomain/internal/core"
	"interdomain/internal/experiments"
	"interdomain/internal/netsim"
	"interdomain/internal/probe"
	"interdomain/internal/scenario"
	"interdomain/internal/testnet"
	"interdomain/internal/tsdb"
)

const benchSeed = 1

func fullStudy(b *testing.B) *experiments.Study {
	b.Helper()
	s, err := experiments.CachedStudy(context.Background(), benchSeed, experiments.StudyDays)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- Table benchmarks -------------------------------------------------

func BenchmarkTable1LossCorrelation(b *testing.B) {
	s := fullStudy(b)
	var r experiments.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.Table1(s)
	}
	b.StopTimer()
	total := float64(r.SignificantMonthLinks)
	if total > 0 {
		b.ReportMetric(100*float64(r.FarHigherLocalized)/total, "%localized")
		b.ReportMetric(100*float64(r.Contradicting)/total, "%contradicting")
	}
	b.Logf("paper: 81%% localized, 8%% far-only, 11%% contradicting of 145 month-links")
	b.Logf("measured: %d month-links -> %d localized, %d far-only, %d contradicting",
		r.SignificantMonthLinks, r.FarHigherLocalized, r.FarHigherOnly, r.Contradicting)
}

func BenchmarkTable2NDTThroughput(b *testing.B) {
	var rows []experiments.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table2(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("paper: L1 26.79->7.85 p<.001 | L2 23.75->23.55 n.s. | L3 23.92->23.04 p<.001")
	for _, r := range rows {
		b.Logf("measured: %s uncong=%.2f cong=%.2f p=%.3g", r.Link, r.UncongMbps, r.CongMbps, r.PValue)
	}
}

func BenchmarkTable3CongestionSummary(b *testing.B) {
	s := fullStudy(b)
	var rows []experiments.Table3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(s)
	}
	b.StopTimer()
	b.Logf("paper: only 5-25%% of each AP's T&CPs ever congested; day-link %% small (Cox max 8.41)")
	for _, r := range rows {
		b.Logf("measured: %-12s observed=%d congested=%d dayLinks=%.2f%%", r.AP, r.ObservedTCPs, r.CongestedTCPs, r.PctCongestedDayLinks)
	}
}

func BenchmarkTable4ProviderMatrix(b *testing.B) {
	s := fullStudy(b)
	var cells []experiments.Table4Cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells = experiments.Table4(s)
	}
	b.StopTimer()
	find := func(ap, tcp string) float64 {
		for _, c := range cells {
			if c.AP == ap && c.TCP == tcp {
				return c.Pct
			}
		}
		return -1
	}
	b.ReportMetric(find("CenturyLink", "Google"), "CL-Google%")
	b.ReportMetric(find("Comcast", "Google"), "Comcast-Google%")
	b.ReportMetric(find("AT&T", "Tata"), "ATT-Tata%")
	b.Logf("paper:    CenturyLink-Google 94.09 | Comcast-Google 21.63 | AT&T-Tata 51.46 | Comcast-Tata 39.82")
	b.Logf("measured: CenturyLink-Google %.2f | Comcast-Google %.2f | AT&T-Tata %.2f | Comcast-Tata %.2f",
		find("CenturyLink", "Google"), find("Comcast", "Google"), find("AT&T", "Tata"), find("Comcast", "Tata"))
}

// --- Figure benchmarks ------------------------------------------------

func BenchmarkFigure3TimeSeries(b *testing.B) {
	var d *experiments.TimeSeriesData
	var err error
	for i := 0; i < b.N; i++ {
		d, err = experiments.Figure3(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(d.CongestionWindows)), "windows")
	b.Logf("paper: Verizon-Google latency elevated + loss during shaded evening windows, 3 days")
	b.Logf("measured: %d congestion windows across %d days", len(d.CongestionWindows), d.Days)
}

func BenchmarkFigure4YouTubeCDF(b *testing.B) {
	var r *experiments.YouTubeResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.FigureYouTube(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := r.Summary()
	b.ReportMetric(s.MedianThrCong, "medThrCong")
	b.ReportMetric(s.MedianThrUncong, "medThrUncong")
	b.Logf("paper: median ON-throughput 12.4 -> 9.2 Mbps (-25.4%%); startup +20.0%%")
	b.Logf("measured: ON-throughput %.1f -> %.1f Mbps; startup %.2fs -> %.2fs",
		s.MedianThrUncong, s.MedianThrCong, s.MedianStartUncong, s.MedianStartCong)
}

func BenchmarkFigure5FailureRates(b *testing.B) {
	var r *experiments.YouTubeResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.FigureYouTube(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	worst := 0.0
	for _, l := range r.PerLink {
		if l.FailCong > worst {
			worst = l.FailCong
		}
	}
	b.ReportMetric(100*worst, "maxFail%")
	b.Logf("paper: failure rates higher during congestion on almost all links; Ark VP ~30%%")
	b.Logf("measured: %d links, worst congested failure rate %.1f%%", len(r.PerLink), 100*worst)
}

func BenchmarkFigure6NDTTimeSeries(b *testing.B) {
	var d *experiments.TimeSeriesData
	var err error
	for i := 0; i < b.N; i++ {
		d, err = experiments.Figure6(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(d.Throughput)), "ndtTests")
	b.Logf("paper: Comcast-Tata diurnal latency plateaus with synchronized NDT throughput collapse")
	b.Logf("measured: %d NDT tests, %d congestion windows over %d days", len(d.Throughput), len(d.CongestionWindows), d.Days)
}

func BenchmarkFigure7TemporalEvolution(b *testing.B) {
	s := fullStudy(b)
	var pts []experiments.Fig7Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure7(s)
	}
	b.StopTimer()
	// Headline dynamic: Comcast-Google dissipates by month 16 (Jul 2017)
	// while Comcast-Tata/NTT rise in the latter half of 2017.
	var cgEarly, cgLate, ctLate float64
	for _, p := range pts {
		switch {
		case p.AP == "Comcast" && p.TCP == "Google" && p.Month >= 8 && p.Month < 12:
			cgEarly += p.Pct / 4
		case p.AP == "Comcast" && p.TCP == "Google" && p.Month >= 17:
			cgLate += p.Pct / 5
		case p.AP == "Comcast" && p.TCP == "Tata" && p.Month >= 16:
			ctLate += p.Pct / 6
		}
	}
	b.ReportMetric(cgEarly, "ComcastGoogleDec16%")
	b.ReportMetric(cgLate, "ComcastGoogleLate17%")
	b.ReportMetric(ctLate, "ComcastTataLate17%")
	b.Logf("paper: Comcast-Google peaks Dec 2016, gone by Jul 2017; Comcast-Tata persists late 2017")
	b.Logf("measured: Comcast-Google %.0f%% (late 2016) -> %.0f%% (late 2017); Comcast-Tata late 2017 %.0f%%",
		cgEarly, cgLate, ctLate)
}

func BenchmarkFigure8MeanCongestion(b *testing.B) {
	s := fullStudy(b)
	var pts []experiments.Fig8Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure8(s)
	}
	b.StopTimer()
	maxCL := 0.0
	for _, p := range pts {
		if p.TCP == "Google" && p.AP == "CenturyLink" && p.MeanPct > maxCL {
			maxCL = p.MeanPct
		}
	}
	b.ReportMetric(maxCL, "CLGoogleMeanMax%")
	b.Logf("paper: CenturyLink-Google mean congestion 20-40%% of the day for 13 months")
	b.Logf("measured: CenturyLink-Google peak monthly mean %.0f%% of the day", maxCL)
}

func BenchmarkFigure9TimeOfDay(b *testing.B) {
	s := fullStudy(b)
	var hists []experiments.Fig9Hist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hists = experiments.Figure9(s)
	}
	b.StopTimer()
	for _, h := range hists {
		if h.Label == "east-weekday" || h.Label == "west-weekday" {
			b.ReportMetric(float64(h.PeakHour()), h.Label+"-peakH")
		}
	}
	b.Logf("paper: east-coast mode 8pm local, west-coast 7pm; weekends look like weekdays")
	for _, h := range hists {
		b.Logf("measured: %-14s peak=%02dh fccFrac=%.2f n=%d", h.Label, h.PeakHour(), h.FCCPeakFraction(), h.N)
	}
}

// --- Validation and ablations ------------------------------------------

func BenchmarkOperatorValidation(b *testing.B) {
	s := fullStudy(b)
	var o experiments.OperatorValidation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o = experiments.ValidateOperator(s, 10)
	}
	b.StopTimer()
	b.ReportMetric(100*o.Agreement(), "agreement%")
	b.Logf("paper: 20/20 links agree with operator utilization data")
	b.Logf("measured: %d/%d agree (TP=%d TN=%d FP=%d FN=%d)",
		o.TruePositives+o.TrueNegatives, o.Checked, o.TruePositives, o.TrueNegatives, o.FalsePositives, o.FalseNegatives)
}

func BenchmarkAblationFlowID(b *testing.B) {
	var r experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblationFlowID(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(r.With, "pinned_ms")
	b.ReportMetric(r.Without, "unpinned_ms")
	b.Logf("%s: %s", r.Name, r.Verdict)
}

func BenchmarkAblationMinFilter(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationMinFilter(benchSeed)
	}
	b.StopTimer()
	b.ReportMetric(100*r.With, "minElev%")
	b.ReportMetric(100*r.Without, "meanElev%")
	b.Logf("%s: %s", r.Name, r.Verdict)
}

func BenchmarkAblationDetectors(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationDetectors(benchSeed)
	}
	b.StopTimer()
	b.Logf("%s: levelshift=%v autocorr=%v — %s", r.Name, r.With > 0, r.Without > 0, r.Verdict)
}

func BenchmarkAblationDestinations(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationDestinations(benchSeed)
	}
	b.StopTimer()
	b.ReportMetric(100*r.With, "vis3dest%")
	b.ReportMetric(100*r.Without, "vis1dest%")
	b.Logf("%s: %s", r.Name, r.Verdict)
}

func BenchmarkAsymmetryDetection(b *testing.B) {
	var r *experiments.AsymmetryResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AsymmetryStudy(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(r.SharedCorrelation, "sharedCorr")
	b.ReportMetric(r.IndependentCorrelation, "indepCorr")
	b.Logf("§7 techniques: shared-path corr=%.3f vs independent=%.3f; detour gap %.1fms flagged=%v",
		r.SharedCorrelation, r.IndependentCorrelation, r.DetourDeltaMs, r.DetourFlagged)
}

func BenchmarkMapitCoverage(b *testing.B) {
	var r *experiments.MapitResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.MapitStudy(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Remote), "remoteLinks")
	b.Logf("§9 bdrmap+MAP-IT: %d links (%d correct, %d wrong), %d beyond any VP border", r.Links, r.Correct, r.Wrong, r.Remote)
}

// --- Micro-benchmarks on the substrates ---------------------------------

func BenchmarkProbeRoundTrip(b *testing.B) {
	n := testnet.Build(testnet.Config{Seed: 1})
	dst := n.In.ASes[testnet.ContentASN].Hosts[0].Ifaces[0].Addr
	at := netsim.Epoch.Add(10 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.In.Net.Ping(n.VP, dst, uint16(i), at)
	}
}

func BenchmarkTraceroute(b *testing.B) {
	n := testnet.Build(testnet.Config{Seed: 1})
	e := probe.NewEngine(n.In.Net, n.VP)
	dst := n.In.ASes[testnet.ContentASN].Hosts[0].Ifaces[0].Addr
	at := netsim.Epoch.Add(10 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Traceroute(dst, 7, at)
	}
}

func BenchmarkFluidQueueDay(b *testing.B) {
	n := testnet.Build(testnet.Config{Seed: 1})
	link := n.CongestedIC.Link
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.InvalidateQueueCache()
		link.QueueDelay(netsim.Day(3).Add(21*time.Hour), netsim.BtoA)
	}
}

func BenchmarkAutocorrelation50Days(b *testing.B) {
	cfg := analysis.DefaultAutocorr()
	rng := netsim.NewRNG(3)
	s := analysis.NewBinSeries(netsim.Epoch, 15*time.Minute, cfg.WindowDays*cfg.BinsPerDay)
	for i := range s.Values {
		v := 20 + rng.Float64()
		if i%96 >= 80 && i%96 < 90 {
			v += 25
		}
		s.Values[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Autocorrelation(s, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCUSUMBootstrapDay(b *testing.B) {
	rng := netsim.NewRNG(5)
	vals := make([]float64, 288)
	for i := range vals {
		vals[i] = 15 + rng.Float64()
		if i >= 150 && i < 174 {
			vals[i] += 30
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.DetectChangePointsCUSUM(vals, analysis.DefaultCUSUM())
	}
}

func BenchmarkMDATraceroute(b *testing.B) {
	n := testnet.Build(testnet.Config{Seed: 1, ParallelNYC: 3})
	e := probe.NewEngine(n.In.Net, n.VP)
	dst := n.In.ASes[testnet.TransitASN].Hosts[0].Ifaces[0].Addr
	at := netsim.Epoch.Add(10 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MDATraceroute(dst, at, uint16(i))
	}
}

func BenchmarkLevelShiftDay(b *testing.B) {
	rng := netsim.NewRNG(4)
	s := analysis.NewBinSeries(netsim.Epoch, 5*time.Minute, 288)
	for i := range s.Values {
		s.Values[i] = 15 + rng.Float64()
		if i >= 150 && i < 174 {
			s.Values[i] += 30
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.DetectLevelShifts(s, analysis.DefaultLevelShift())
	}
}

// persistDB lazily builds the store the persistence benchmarks share:
// several hundred series spanning five segment windows, the shape a
// week of campaign data has. BenchmarkSnapshotDirParallel and
// BenchmarkRestoreDirParallel measure the segmented layer: encode and
// decode fanned out per (shard, window) on the pipeline pool
// (docs/PERSISTENCE.md §7). Like the campaign pair, the achievable
// speedup is bounded by GOMAXPROCS.
var persistDB = struct {
	once sync.Once
	db   *tsdb.DB
}{}

func persistStore(b *testing.B) *tsdb.DB {
	b.Helper()
	persistDB.once.Do(func() {
		db := tsdb.Open()
		batch := make([]tsdb.BatchPoint, 0, 4096)
		for s := 0; s < 400; s++ {
			tags := map[string]string{
				"vp":   fmt.Sprintf("vp-%02d", s%16),
				"link": fmt.Sprintf("l-%03d", s),
				"side": []string{"near", "far"}[s%2],
			}
			for p := 0; p < 600; p++ {
				batch = append(batch, tsdb.BatchPoint{
					Measurement: "tslp",
					Tags:        tags,
					Time:        netsim.Epoch.Add(time.Duration(p) * 12 * time.Minute),
					Value:       float64(s*600 + p),
				})
				if len(batch) == cap(batch) {
					db.WriteBatch(batch)
					batch = batch[:0]
				}
			}
		}
		db.WriteBatch(batch)
		persistDB.db = db
	})
	return persistDB.db
}

func BenchmarkSnapshotDirParallel(b *testing.B) {
	db := persistStore(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentCompression is self-checking: each iteration
// snapshots the persist fixture and fails unless the columnar encoding
// (docs/PERSISTENCE.md §2) is at least 4.1x smaller on disk than the
// raw columns (16 bytes a point) — the storage engine's floor, within
// 20% of the 5.1x it measures; byte counts are deterministic, so the
// floor cannot flap. bench-smoke runs it under -benchtime=1x in CI.
func BenchmarkSegmentCompression(b *testing.B) {
	db := persistStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
			b.Fatal(err)
		}
		info, err := tsdb.ReadDirInfo(dir)
		if err != nil {
			b.Fatal(err)
		}
		raw := int64(info.Points) * 16
		ratio := float64(raw) / float64(info.Bytes)
		if ratio < 4.1 {
			b.Fatalf("compression ratio %.2fx below the 4.1x floor (raw %d B, on disk %d B)",
				ratio, raw, info.Bytes)
		}
		b.ReportMetric(ratio, "x-compression")
	}
}

func BenchmarkRestoreDirParallel(b *testing.B) {
	db := persistStore(b)
	dir := b.TempDir()
	if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tsdb.Open().RestoreDir(dir, tsdb.DirOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSDBWrite(b *testing.B) {
	db := tsdb.Open()
	tags := map[string]string{"vp": "v", "link": "l", "side": "far"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Write("tslp", tags, netsim.Epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
}

func BenchmarkTSDBQueryRange(b *testing.B) {
	db := tsdb.Open()
	tags := map[string]string{"vp": "v", "link": "l", "side": "far"}
	for i := 0; i < 100000; i++ {
		db.Write("tslp", tags, netsim.Epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	from := netsim.Epoch.Add(10 * time.Hour)
	to := from.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Query("tslp", tags, from, to)
	}
}

func BenchmarkScenarioBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := scenario.Build(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLongitudinal runs a 100-day fluid study over the full scenario at
// the given worker count; pairing the two benchmarks below measures the
// speedup of the (VP, interconnect) fan-out. Both produce byte-identical
// results (TestParallelDeterminism asserts this).
func benchLongitudinal(b *testing.B, workers int) {
	in, _, err := scenario.Build(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	vps := scenario.VPs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg, err := core.RunLongitudinal(context.Background(), in, vps, netsim.Epoch, 100,
			core.LongitudinalConfig{Seed: benchSeed + 1, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(lg.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRunLongitudinalSequential(b *testing.B) { benchLongitudinal(b, 1) }

func BenchmarkRunLongitudinalParallel(b *testing.B) { benchLongitudinal(b, 0) }

// benchCampaign runs a packet-mode campaign — concurrent bdrmaps, TSLP
// rounds, 1 Hz loss probing over the full scenario — on the given
// scheduler (workers 0 = sequential netsim.Scheduler). Pairing the two
// benchmarks below measures the sharded scheduler's per-tick VP
// partitioning; TestParallelDeterminismPacket asserts both produce a
// bit-identical store. The speedup is bounded by GOMAXPROCS: on a
// single-CPU runner the pair instead measures pure dispatch overhead
// (the parallel run should stay within a few percent of sequential).
func benchCampaign(b *testing.B, workers int) {
	cfg := experiments.CampaignConfig{Seed: benchSeed, VPs: 8, Hours: 4, Workers: workers}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCampaign(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Points == 0 || res.Targets == 0 {
			b.Fatalf("campaign measured nothing: %+v", res)
		}
		b.ReportMetric(float64(res.Events)/float64(b.Elapsed().Seconds())/float64(b.N), "events/s")
	}
}

func BenchmarkCampaignSequential(b *testing.B) { benchCampaign(b, 0) }

func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 8) }

// --- Serving-tier benchmarks (docs/SERVING.md §6) -----------------------

// serveStore lazily builds the store the serving benchmarks share: 8
// links with 50 days of far/near TSLP each, the working set one
// /api/v1/congestion analysis reads. serveLinks names them.
var serveStore = struct {
	once sync.Once
	db   *tsdb.DB
}{}

var serveLinks = []string{"l-0", "l-1", "l-2", "l-3", "l-4", "l-5", "l-6", "l-7"}

func serveDB(b *testing.B) *tsdb.DB {
	b.Helper()
	serveStore.once.Do(func() {
		db := tsdb.Open()
		rng := netsim.NewRNG(9)
		batch := make([]tsdb.BatchPoint, 0, 4096)
		flush := func() {
			db.WriteBatch(batch)
			batch = batch[:0]
		}
		for _, link := range serveLinks {
			farTags := map[string]string{"vp": "v", "link": link, "side": "far"}
			nearTags := map[string]string{"vp": "v", "link": link, "side": "near"}
			for d := 0; d < 50; d++ {
				for bin := 0; bin < 96; bin++ {
					at := netsim.Day(d).Add(time.Duration(bin) * 15 * time.Minute)
					far := 20 + rng.Float64()
					if bin >= 80 && bin < 90 {
						far += 30
					}
					batch = append(batch,
						tsdb.BatchPoint{Measurement: "tslp", Tags: farTags, Time: at, Value: far},
						tsdb.BatchPoint{Measurement: "tslp", Tags: nearTags, Time: at, Value: 5 + rng.Float64()})
					if len(batch) >= cap(batch)-2 {
						flush()
					}
				}
			}
		}
		flush()
		serveStore.db = db
	})
	return serveStore.db
}

func congestionRequest(link string) *http.Request {
	return httptest.NewRequest("GET",
		"/api/v1/congestion?link="+link+"&vp=v&from="+netsim.Epoch.Format(time.RFC3339)+"&days=50", nil)
}

func serveOne(b *testing.B, srv *api.Server, req *http.Request) {
	b.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != 200 {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkCongestionEndpointCold measures the uncached path: every
// iteration purges the read cache, so each request runs the full
// QueryView -> BinSeries -> autocorrelation pipeline and re-encodes.
func BenchmarkCongestionEndpointCold(b *testing.B) {
	srv := api.New(serveDB(b))
	defer srv.Close()
	req := congestionRequest("l-0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.PurgeCache()
		serveOne(b, srv, req)
	}
}

// BenchmarkCongestionEndpointWarm measures the cached path: after one
// priming request every iteration serves the memoized body. The
// cold/warm pair is the headline number of the versioned read path.
func BenchmarkCongestionEndpointWarm(b *testing.B) {
	srv := api.New(serveDB(b))
	defer srv.Close()
	req := congestionRequest("l-0")
	serveOne(b, srv, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne(b, srv, req)
	}
	b.StopTimer()
	if n := srv.CongestionComputes(); n != 1 {
		b.Fatalf("warm benchmark ran the detector %d times", n)
	}
}

// BenchmarkCongestionEndpointParallel hammers a warm server from every
// proc at once, rotating across the links: the concurrent-load shape a
// public dashboard produces. Coalescing plus the cache should keep
// detector runs at one per link regardless of client count.
func BenchmarkCongestionEndpointParallel(b *testing.B) {
	srv := api.New(serveDB(b))
	defer srv.Close()
	for _, l := range serveLinks {
		serveOne(b, srv, congestionRequest(l))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, congestionRequest(serveLinks[i%len(serveLinks)]))
			if w.Code != 200 {
				b.Fatalf("status %d", w.Code)
			}
			i++
		}
	})
	b.StopTimer()
	if n := srv.CongestionComputes(); n != uint64(len(serveLinks)) {
		b.Fatalf("parallel benchmark ran the detector %d times, want %d", n, len(serveLinks))
	}
}

// BenchmarkQueryEndpointWarm measures the memoized raw-series query
// path (zero-copy views + cached encoded body).
func BenchmarkQueryEndpointWarm(b *testing.B) {
	srv := api.New(serveDB(b))
	defer srv.Close()
	url := "/api/v1/query?m=tslp&link=l-0&side=far&from=" + netsim.Epoch.Format(time.RFC3339) +
		"&to=" + netsim.Day(2).Format(time.RFC3339)
	req := httptest.NewRequest("GET", url, nil)
	serveOne(b, srv, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne(b, srv, req)
	}
}
