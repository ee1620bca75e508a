// Command benchtables regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout, together with the
// paper's reported values for comparison.
//
// Usage:
//
//	benchtables [-seed N] [-days N] [-only table1,figure3,...] [-report file.md]
//
// The longitudinal experiments (tables 1, 3, 4; figures 7, 8, 9; operator
// validation) share one fluid-mode study; -days 650 covers March 2016
// through December 2017 like the paper, smaller values trade fidelity for
// speed. Only the paper's evaluation lives here: the serving and storage
// tiers are measured by the repository benchmark (go run ./benchmark) and
// their floors are package tests.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"interdomain/internal/experiments"
)

// sections names every -only value: the paper's tables, figures and
// studies.
var sections = map[string]bool{
	"table1": true, "table2": true, "table3": true, "table4": true,
	"figure3": true, "figure4": true, "figure5": true, "figure6": true,
	"figure7": true, "figure8": true, "figure9": true,
	"operator": true, "ablations": true, "asymmetry": true, "mapit": true,
}

func main() {
	seed := flag.Uint64("seed", 1, "determinism seed")
	days := flag.Int("days", experiments.StudyDays, "longitudinal study length in days")
	only := flag.String("only", "", "comma-separated subset (table1..4, figure3..9, operator, ablations, asymmetry, mapit)")
	report := flag.String("report", "", "also write a full Markdown measurement report here")
	flag.Parse()

	// Interrupts cancel the in-flight experiment instead of killing the
	// process mid-print; a second signal terminates immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !sections[k] {
				fatal(fmt.Errorf("-only: unknown section %q", k))
			}
			want[k] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	needStudy := sel("table1") || sel("table3") || sel("table4") ||
		sel("figure7") || sel("figure8") || sel("figure9") || sel("operator") || *report != ""

	var study *experiments.Study
	if needStudy {
		t0 := time.Now()
		var err error
		study, err = experiments.CachedStudy(ctx, *seed, *days)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== longitudinal study: %d days, %d VP-link results (%.1fs)\n\n",
			study.Days, len(study.LG.Results), time.Since(t0).Seconds())
	}

	if sel("table1") {
		section("Table 1 — correlation between congestion inference and loss",
			"paper: 145 month-links -> 81% far+localized, 8% far-only, 11% contradicting")
		fmt.Println(experiments.RenderTable1(experiments.Table1(study)))
	}
	if sel("table2") {
		section("Table 2 — NDT download throughput, congested vs uncongested",
			"paper: L1 26.79->7.85 (p<.001), L2 n.s. (reverse-path asymmetry), L3 small but significant")
		rows, err := experiments.Table2(ctx, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderTable2(rows))
	}
	if sel("table3") {
		section("Table 3 — congestion summary per access network",
			"paper: congestion not widespread; Cox max at 8.41% day-links; RCN 0.52%")
		fmt.Println(experiments.RenderTable3(experiments.Table3(study)))
	}
	if sel("table4") {
		section("Table 4 — % congested day-links per AP x T&CP",
			"paper: CenturyLink-Google 94.09, AT&T-Tata 51.46, Comcast-Tata 39.82, Comcast-Google 21.63")
		fmt.Println(experiments.RenderTable4(experiments.Table4(study)))
	}
	if sel("figure3") {
		section("Figure 3 — TSLP latency + loss time series (Verizon-Google)",
			"paper: evening latency plateaus with loss concentrated in shaded congested windows")
		d, err := experiments.Figure3(ctx, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderTimeSeries(d))
	}
	if sel("figure4") || sel("figure5") {
		section("Figures 4+5 — YouTube streaming under congestion",
			"paper: ON-throughput -25.4% median, startup +20.0%, failures higher during congestion")
		r, err := experiments.FigureYouTube(ctx, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderYouTube(r))
	}
	if sel("figure6") {
		section("Figure 6 — TSLP latency + NDT throughput (Comcast-Tata)",
			"paper: diurnal congestion with synchronized throughput collapse")
		d, err := experiments.Figure6(ctx, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderTimeSeries(d))
	}
	if sel("figure7") {
		section("Figure 7 — % day-links congested per month per AP-T&CP",
			"paper: most episodes dissipate within ~5 months; Comcast-Google gone by Jul 2017")
		fmt.Println(experiments.RenderFigure7(experiments.Figure7(study)))
	}
	if sel("figure8") {
		section("Figure 8 — mean day-link congestion per month (Google, Tata)",
			"paper: CenturyLink-Google 20-40% of the day for 13 months; others mostly < 20%")
		fmt.Println(experiments.RenderFigure8(experiments.Figure8(study)))
	}
	if sel("figure9") {
		section("Figure 9 — recurring congestion by local hour (Comcast VPs)",
			"paper: mass inside FCC 7-11pm peak; east mode 8pm, west 7pm; weekends like weekdays")
		fmt.Println(experiments.RenderFigure9(experiments.Figure9(study)))
	}
	if sel("operator") {
		section("§5.4 — operator validation against ground-truth utilization",
			"paper: 20/20 links consistent with operator utilization data")
		fmt.Println(experiments.RenderOperatorValidation(experiments.ValidateOperator(study, 10)))
	}
	if sel("ablations") {
		section("Ablations — design choices called out in DESIGN.md", "")
		rs, err := experiments.Ablations(ctx, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderAblations(rs))
	}
	if sel("asymmetry") {
		section("§7 — asymmetric-path detection techniques",
			"paper proposes baseline-delay comparison and TSLP time-series correlation")
		r, err := experiments.AsymmetryStudy(ctx, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderAsymmetry(r))
	}
	if sel("mapit") {
		section("§9 — MAP-IT: interdomain links beyond the VP's border",
			"paper proposes combining bdrmap with MAP-IT for links farther than one AS hop")
		r, err := experiments.MapitStudy(ctx, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderMapit(r))
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteReport(f, study); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *report)
	}
}

func section(title, paper string) {
	fmt.Println("== " + title)
	if paper != "" {
		fmt.Println("   " + paper)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtables:", err)
	os.Exit(1)
}
