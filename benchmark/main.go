// Command benchmark is the repository's benchmark (ROADMAP item 1): one
// process that builds a paper-shaped store, stands the real serving
// tiers up on loopback TCP, drives five named workloads from a seeded
// generator, checks every output, and prints every metric by name and
// unit. README.md in this directory says what each workload and metric
// is for; BENCHMARK.json at the repository root is the contract, and
// names the three workloads a driver gates changes on.
//
//	go run ./benchmark                                  every workload, untraced then traced
//	go run ./benchmark -workload hot-front -trace 0     one run, end-to-end metrics
//	go run ./benchmark -workload churn -trace 1         one traced run, per-layer metrics
//	go run ./benchmark -aa 10 -out benchmark/results/BENCH_11.json
//
// The last line of a single run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Any failed operation
// or correctness check makes the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// spec and batch size the inputs; only the tests shrink them.
	spec  fixtureSpec
	batch batchSpec
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// gated workloads are the ones BENCHMARK.json lists, names and
	// reasons repeated there: a driver runs each some twenty times per
	// change inside one hour, which pays for three runs long enough to be
	// steady, not for five. The other two run by hand and under -aa.
	gated bool
	run   func(ctx context.Context, cfg runConfig) (*report, error)
}

// workloads is the benchmark's fixed list.
var workloads = []workload{
	{"hot-front", "zipf(1.1) reads of 193 hot keys through the front: routing, the upstream hop, cache hits and 304s do the work, so a front or HTTP-path change shows here and only here",
		true, func(ctx context.Context, cfg runConfig) (*report, error) { return runServing(ctx, cfg, hotFrontPlan) }},
	{"cold-scan", "uniform reads of ~10^4 keys straight at one replica: cache misses, block decode, view build, detector folds and JSON encode dominate and the front does nothing",
		true, func(ctx context.Context, cfg runConfig) (*report, error) { return runServing(ctx, cfg, coldScanPlan) }},
	{"churn", "a publisher writes, snapshots and syncs both followers once a second beside an open-loop reader, so a read-side gain bought with write-side cost shows",
		true, runChurn},
	{"study", "the paper's headline computation: fluid-mode TSLP over the simulated ecosystem with the batch detectors and tables; the serving backend is idle",
		false, runStudy},
	{"collect", "the measurement loop itself: bdrmap, packet-mode TSLP and 1 Hz loss probing on the sharded scheduler; inference and serving are idle",
		false, runCollect},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// report is what a run produced.
type report struct {
	metrics map[string]float64
	// attempted and failed count operations: requests, publish rounds,
	// jobs, and every correctness comparison made outside the timed
	// windows.
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note records a line of context for the human-readable output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// resultLine is the contract's result object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result shapes a report into the contract's object: with tracing off
// exactly the end-to-end metrics, with it on exactly the per-layer ones.
func result(rep *report, trace bool) (resultLine, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("workload reported no %s", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// runOne runs one workload once and prints its metrics, one per line,
// then the result object. It returns whether the run was correct.
func runOne(ctx context.Context, cfg runConfig) (resultLine, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return resultLine{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return resultLine{}, err
	}
	rep, err := w.run(ctx, cfg)
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res, err := result(rep, cfg.trace)
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("== %s, %s, seed %d, %gs\n", cfg.workload, mode, cfg.seed, cfg.seconds)
	for _, n := range rep.notes {
		fmt.Println("   " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-36s %16.6f %s\n", "error_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	for _, p := range rep.problems {
		fmt.Println("FAILED: " + p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Println(string(line))
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		secs    = flag.Float64("seconds", 26, "length of a run's timed phases")
		trace   = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: one of each")
		aa      = flag.Int("aa", 0, "run the end-to-end set this many times per workload and print the spread")
		out     = flag.String("out", "", "with -aa: also write the table to this file as JSON")
		workdir = flag.String("workdir", "benchmark/.work", "directory for stores and trace files; made if missing")
	)
	flag.Parse()
	if flag.NArg() > 0 || *secs <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	cfg := runConfig{seed: *seed, seconds: *secs, workdir: *workdir, spec: fullFixture, batch: fullBatch}
	if *aa > 0 {
		if err := runAA(ctx, cfg, names, *aa, *out); err != nil {
			fatal(err)
		}
		return
	}
	modes := []bool{*trace == 1}
	if *trace == -1 {
		modes = []bool{false, true}
	}
	correct := true
	for _, n := range names {
		for _, traced := range modes {
			cfg.workload, cfg.trace = n, traced
			res, err := runOne(ctx, cfg)
			if err != nil {
				fatal(err)
			}
			correct = correct && res.Correct
		}
	}
	if !correct {
		stop()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
