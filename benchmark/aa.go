package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// aaRow is one end-to-end metric of one workload over the runs of an
// A/A set: the same code run again and again, each run on its own seed.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	Max      float64   `json:"max"`
	Spread   float64   `json:"quartile_spread"`
	Bound    float64   `json:"bound"`
	Values   []float64 `json:"values"`
}

// runAA runs the end-to-end set n times per workload, on seeds seed,
// seed+1, …, and prints min/median/max and the quartile spread (the
// inter-quartile distance over the median, as the acceptance check takes
// it) of every metric. A spread above a third of the metric's bound is
// flagged: the bound could not then tell a regression from noise.
func runAA(ctx context.Context, cfg runConfig, names []string, n int, out string) error {
	cfg.trace = false
	var rows []aaRow
	correct := true
	for _, name := range names {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.workload, c.seed = name, cfg.seed+int64(i)
			res, err := runOne(ctx, c)
			if err != nil {
				return err
			}
			correct = correct && res.Correct
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
		}
		for _, d := range endToEnd {
			s := sortedCopy(vals[d.name])
			rows = append(rows, aaRow{Workload: name, Metric: d.name, Unit: d.unit,
				Min: s[0], Median: median(s), Max: s[len(s)-1],
				Spread: quartileSpread(s), Bound: d.bound, Values: vals[d.name]})
		}
	}
	fmt.Printf("\n== A/A, %d runs per workload, %gs each, seeds %d..%d\n", n, cfg.seconds, cfg.seed, cfg.seed+int64(n)-1)
	fmt.Printf("%-10s %-18s %-5s %12s %12s %12s %8s %6s\n", "workload", "metric", "unit", "min", "median", "max", "spread", "bound")
	for _, r := range rows {
		flag := ""
		if r.Metric != "setup_s" && r.Spread > r.Bound/3 {
			flag = "  spread above a third of the bound"
		}
		fmt.Printf("%-10s %-18s %-5s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
			r.Workload, r.Metric, r.Unit, r.Min, r.Median, r.Max, 100*r.Spread, 100*r.Bound, flag)
	}
	if out != "" {
		env := map[string]any{"nproc": runtime.GOMAXPROCS(0), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH}
		doc := map[string]any{"environment": env, "runs": n, "seconds": cfg.seconds, "first_seed": cfg.seed, "rows": rows}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("at least one run of the A/A set failed its checks")
	}
	return nil
}
