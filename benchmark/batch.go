package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"interdomain/internal/core"
	"interdomain/internal/experiments"
	"interdomain/internal/netsim"
	"interdomain/internal/pipeline"
	"interdomain/internal/scenario"
)

// batchSpec sizes one job of the two batch workloads.
type batchSpec struct {
	studyDays     int
	campaignVPs   int
	campaignHours int
	// minJobs is how many jobs a run makes at least, however short
	// -seconds is.
	minJobs int
}

// fullBatch is what study and collect run. The issue's 650-day study
// and 8-VP, 8-hour campaign take tens of seconds each; under the
// run-time cap a job is one autocorrelation window of the study (50
// days) and one probed hour of a 4-VP campaign (after its fixed
// two-hour warm-up), about two seconds each, and a run repeats the job
// for -seconds.
var fullBatch = batchSpec{studyDays: 50, campaignVPs: 4, campaignHours: 1, minJobs: 2}

// scenarioBuilds is how often set-up builds the §6 ecosystem; the median
// is setup_s.
const scenarioBuilds = 15

// golden holds, for the default seed, the digests the two batch
// workloads must reproduce on any machine and any worker count.
//
//go:embed golden.json
var goldenJSON []byte

type goldenDigests struct {
	Seed    int64  `json:"seed"`
	Study   string `json:"study_tables_fnv64a"`
	Collect string `json:"collect_digest"`
}

func golden() (goldenDigests, error) {
	var g goldenDigests
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// scenarioSetup builds the simulated ecosystem scenarioBuilds times
// between two speed probes and returns the median build time, as timed
// and at the reference machine's speed (speed.go): the batch workloads'
// set-up.
func scenarioSetup(seed uint64, speed *speedMeter) (timed, atSpeed float64, err error) {
	var times []float64
	_, index := speed.span(func() {
		for i := 0; i < scenarioBuilds && err == nil; i++ {
			t0 := time.Now()
			_, _, err = scenario.Build(seed)
			times = append(times, time.Since(t0).Seconds())
		}
	})
	return median(times), median(times) * index, err
}

// repeatJobs runs job until d has passed, min times at least, each
// between two speed probes, and returns each run's wall time in
// milliseconds, as timed and at the reference machine's speed.
func repeatJobs(ctx context.Context, d time.Duration, min int, speed *speedMeter, job func() error) (jobs batchRun, err error) {
	heap := watchHeap()
	defer func() { jobs.liveMB = heap.liveMB() }()
	start := time.Now()
	for len(jobs.walls) < min || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return jobs, err
		}
		var jerr error
		wall, index := speed.span(func() { jerr = job() })
		if jerr != nil {
			return jobs, jerr
		}
		jobs.walls = append(jobs.walls, ms(wall))
		jobs.atSpeed = append(jobs.atSpeed, ms(wall)*index)
	}
	return jobs, nil
}

// batchRun is the timed stretch of a batch workload.
type batchRun struct {
	walls   []float64 // each job's wall time, ms
	atSpeed []float64 // the same at the reference machine's speed (speed.go)
	liveMB  float64
}

// batchMetrics fills the end-to-end set of a batch workload, all at the
// reference machine's speed: units of work per second of job time, and
// the jobs' wall times.
func batchMetrics(m map[string]float64, unitsPerJob float64, jobs batchRun, setupS float64) {
	m["setup_s"] = setupS
	m["throughput_per_s"] = ratio(unitsPerJob, mean(jobs.atSpeed)/1e3)
	s := sortedCopy(jobs.atSpeed)
	m["latency_p50_ms"] = median(s)
	m["latency_p95_ms"] = percentile(s, 95)
	m["live_heap_mb"] = jobs.liveMB
}

// studyTables renders the three tables a study job computes; its hash
// is what jobs, seeds and machines are compared by.
func studyTables(s *experiments.Study) (string, []experiments.Table3Row) {
	t3 := experiments.Table3(s)
	return experiments.RenderTable1(experiments.Table1(s)) +
		experiments.RenderTable3(t3) +
		experiments.RenderTable4(experiments.Table4(s)), t3
}

func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// runStudy is the study workload: the paper's headline computation,
// fluid-mode TSLP over the §6 ecosystem fanned out on pipeline, then the
// loss-validation and per-provider tables.
func runStudy(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	m := rep.metrics
	seed := uint64(cfg.seed)
	speed := newSpeedMeter()
	buildS, setupS, err := scenarioSetup(seed, speed)
	if err != nil {
		return nil, err
	}

	studyDays := cfg.batch.studyDays
	var tables []string
	var linkDays float64
	var table3 []experiments.Table3Row
	var longS, tablesS []float64
	job := func() error {
		// NewStudy, taken apart so the traced run can time its halves.
		in, table, err := scenario.Build(seed)
		if err != nil {
			return err
		}
		t1 := time.Now()
		lg, err := core.RunLongitudinal(ctx, in, scenario.VPs(), netsim.Epoch, studyDays, core.LongitudinalConfig{Seed: seed + 1})
		if err != nil {
			return err
		}
		t2 := time.Now()
		s := &experiments.Study{Seed: seed, Days: studyDays, In: in, Table: table, LG: lg}
		var text string
		text, table3 = studyTables(s)
		tables = append(tables, text)
		linkDays = float64(len(lg.Results) * studyDays)
		longS = append(longS, t2.Sub(t1).Seconds())
		tablesS = append(tablesS, time.Since(t2).Seconds())
		return nil
	}
	jobs, err := repeatJobs(ctx, seconds(cfg.seconds), cfg.batch.minJobs, speed, job)
	if err != nil {
		return nil, err
	}
	walls := jobs.walls

	// Every job ran the same seed: the tables must agree to the byte
	// whatever the pipeline's scheduling did, show congestion somewhere,
	// and at the default seed match the committed digest.
	rep.attempted += len(walls)
	for i, text := range tables {
		if text != tables[0] {
			rep.fail("study job %d rendered different tables from job 0 on the same seed", i)
		}
	}
	congested := 0
	for _, row := range table3 {
		if row.PctCongestedDayLinks < 0 || row.PctCongestedDayLinks > 100 {
			rep.fail("Table 3 %s: %.2f%% congested day-links", row.AP, row.PctCongestedDayLinks)
		}
		congested += row.CongestedTCPs
	}
	if congested == 0 {
		rep.fail("Table 3 shows no congested provider pair in %d days", studyDays)
	}
	g, err := golden()
	if err != nil {
		return nil, err
	}
	digest := fnvHex(tables[0])
	if cfg.seed == g.Seed && cfg.batch == fullBatch && digest != g.Study {
		rep.fail("study tables digest %s differs from the committed %s at seed %d", digest, g.Study, g.Seed)
	}
	rep.note("%d jobs of %.0f VP-link-days (%d days), tables digest %s", len(walls), linkDays, studyDays, digest)

	if !cfg.trace {
		batchMetrics(m, linkDays, jobs, setupS)
		return rep, nil
	}
	m["scenario.build_s"] = buildS
	m["core.longitudinal_s"] = median(longS)
	m["experiments.tables_s"] = median(tablesS)
	m["pipeline.workers"] = float64(pipeline.DefaultWorkers())
	m["loadgen.sent"] = float64(len(walls))
	m["machine.speed_index"] = speed.index()
	m["loadgen.error_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	return rep, nil
}

// runCollect is the collect workload: the measurement loop itself —
// bdrmap discovery, packet-mode TSLP rounds and 1 Hz loss probing on the
// sharded scheduler, committing through tsdb.Staged.
func runCollect(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	m := rep.metrics
	seed := uint64(cfg.seed)
	speed := newSpeedMeter()
	buildS, setupS, err := scenarioSetup(seed, speed)
	if err != nil {
		return nil, err
	}
	ccfg := experiments.CampaignConfig{Seed: seed, VPs: cfg.batch.campaignVPs, Hours: cfg.batch.campaignHours, Workers: runtime.GOMAXPROCS(0)}
	simSeconds := float64((2 + ccfg.Hours) * 3600) // the warm-up's two hours count

	var results []experiments.CampaignResult
	job := func() error {
		res, err := experiments.RunCampaign(ctx, ccfg)
		results = append(results, res)
		return err
	}
	jobs, err := repeatJobs(ctx, seconds(cfg.seconds), cfg.batch.minJobs, speed, job)
	if err != nil {
		return nil, err
	}
	walls := jobs.walls

	rep.attempted += len(walls)
	first := results[0]
	for i, res := range results {
		if res.Digest != first.Digest {
			rep.fail("campaign job %d digest %016x differs from job 0's %016x on the same seed", i, res.Digest, first.Digest)
		}
	}
	if first.Links == 0 || first.Targets == 0 || first.Points == 0 {
		rep.fail("campaign discovered %d links, armed %d loss targets, stored %d points", first.Links, first.Targets, first.Points)
	}
	g, err := golden()
	if err != nil {
		return nil, err
	}
	digest := fmt.Sprintf("%016x", first.Digest)
	if cfg.seed == g.Seed && cfg.batch == fullBatch && digest != g.Collect {
		rep.fail("campaign digest %s differs from the committed %s at seed %d", digest, g.Collect, g.Seed)
	}
	rep.note("%d jobs of %d VPs × %dh (+2h warm-up), %d events, digest %s", len(walls), ccfg.VPs, ccfg.Hours, first.Events, digest)

	if !cfg.trace {
		batchMetrics(m, simSeconds, jobs, setupS)
		return rep, nil
	}

	// The traced run also runs the sequential scheduler, whose store
	// must be the sharded one's to the bit, and the warm-up alone.
	seq := ccfg
	seq.Workers = 0
	var seqRes experiments.CampaignResult
	seqMs := timeIt(func() { seqRes, err = experiments.RunCampaign(ctx, seq) })
	if err != nil {
		return nil, err
	}
	rep.attempted++
	if seqRes.Digest != first.Digest {
		rep.fail("sequential scheduler digest %016x differs from the sharded %016x", seqRes.Digest, first.Digest)
	}
	warm := ccfg
	warm.Hours = 0
	warmMs := timeIt(func() { _, err = experiments.RunCampaign(ctx, warm) })
	if err != nil {
		return nil, err
	}
	jobMs := median(walls)
	m["scenario.build_s"] = buildS
	m["netsim.events"] = float64(first.Events)
	m["netsim.events_per_s"] = ratio(float64(first.Events), jobMs/1e3)
	m["netsim.warmup_s"] = warmMs / 1e3
	m["netsim.probing_s"] = (jobMs - warmMs) / 1e3
	m["netsim.shard_speedup"] = ratio(seqMs, jobMs)
	m["bdrmap.links"] = float64(first.Links)
	m["tslp.points"] = float64(first.Points)
	m["lossprobe.targets"] = float64(first.Targets)
	m["pipeline.workers"] = float64(ccfg.Workers)
	m["loadgen.sent"] = float64(len(walls))
	m["machine.speed_index"] = speed.index()
	m["loadgen.error_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	return rep, nil
}
