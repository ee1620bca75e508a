// Command congestion analyzes a segment directory produced by tslpd: it lists
// the links with TSLP data and runs the level-shift and autocorrelation
// detectors over a chosen window, printing inferred congestion windows and
// day-link congestion percentages.
//
// Usage:
//
//	congestion -in datadir/ [-link <near-far>] [-vp <name>] [-days N]
//
// -in names a segment directory written by tslpd -datadir
// (docs/PERSISTENCE.md), opened read-only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
	"interdomain/internal/tslp"
)

func main() {
	inPath := flag.String("in", "", "segment directory (required)")
	link := flag.String("link", "", "link id (default: all)")
	vp := flag.String("vp", "", "vantage point filter")
	days := flag.Int("days", 1, "analysis window in days from the epoch")
	autocorr := flag.Bool("autocorr", false, "also run the autocorrelation method (needs >= 50 days of data; use -days 50)")
	flag.Parse()

	// An interrupt stops the per-link analysis loop at the next link
	// boundary so partial output stays well-formed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *inPath == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	if fi, err := os.Stat(*inPath); err != nil {
		fatal(err)
	} else if !fi.IsDir() {
		fatal(fmt.Errorf("-in must be a segment directory (docs/PERSISTENCE.md), %s is a file", *inPath))
	}
	db := tsdb.Open()
	if err := db.RestoreDir(*inPath, tsdb.DirOptions{}); err != nil {
		fatal(err)
	}

	links := db.TagValues(tslp.MeasLatency, "link")
	if len(links) == 0 {
		fatal(fmt.Errorf("snapshot holds no TSLP data"))
	}
	fmt.Printf("congestion: %d links with TSLP data\n", len(links))

	start := netsim.Epoch
	end := start.AddDate(0, 0, *days)
	bins := *days * 288
	acCfg := analysis.DefaultAutocorr()
	acCfg.WindowDays = *days
	for _, id := range links {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "congestion: interrupted, stopping after current link")
			break
		}
		if *link != "" && id != *link {
			continue
		}
		filter := map[string]string{"link": id, "side": "far"}
		if *vp != "" {
			filter["vp"] = *vp
		}
		// One query of the far series feeds both methods: level-shift's
		// five-minute bins and, with -autocorr, its fifteen-minute ones.
		far := analysis.NewBinSeries(start, 5*time.Minute, bins)
		var acFar *analysis.BinSeries
		if *autocorr {
			acFar = analysis.NewBinSeries(start, 15*time.Minute, acCfg.WindowDays*acCfg.BinsPerDay)
		}
		for _, s := range db.Query(tslp.MeasLatency, filter, start, end) {
			for _, p := range s.Points {
				far.Observe(p.Time, p.Value)
				if acFar != nil {
					acFar.Observe(p.Time, p.Value)
				}
			}
		}
		if far.Coverage() < 0.1 {
			continue
		}
		res := analysis.DetectLevelShifts(far, analysis.DefaultLevelShift())
		fmt.Printf("\nlink %s  coverage=%.0f%%  minRTT=%.1fms\n", id, 100*far.Coverage(), far.Min())
		if len(res.Episodes) == 0 {
			fmt.Println("  no level-shift episodes")
		}
		for _, ep := range res.Episodes {
			fmt.Printf("  elevated %s .. %s (%s)\n",
				ep.Start.Format("2006-01-02 15:04"), ep.End.Format("15:04"), ep.Duration())
		}

		if *autocorr {
			acNear := analysis.NewBinSeries(start, 15*time.Minute, acCfg.WindowDays*acCfg.BinsPerDay)
			nearFilter := map[string]string{"link": id, "side": "near"}
			if *vp != "" {
				nearFilter["vp"] = *vp
			}
			for _, s := range db.Query(tslp.MeasLatency, nearFilter, start, end) {
				for _, p := range s.Points {
					acNear.Observe(p.Time, p.Value)
				}
			}
			acRes, err := analysis.Autocorrelation(acFar, acNear, acCfg)
			if err != nil {
				fmt.Printf("  autocorrelation: %v\n", err)
				continue
			}
			congested := 0
			for _, d := range acRes.Days {
				if d.Classified && d.Congested {
					congested++
				}
			}
			fmt.Printf("  autocorrelation: recurring=%v congestedDays=%d/%d", acRes.Recurring, congested, len(acRes.Days))
			if acRes.RejectReason != "" {
				fmt.Printf(" (rejected: %s)", acRes.RejectReason)
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "congestion:", err)
	os.Exit(1)
}
