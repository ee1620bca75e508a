// Command tslpd runs the packet-mode measurement system end to end on the
// simulated U.S. broadband ecosystem: it deploys vantage points, runs
// bdrmap to discover interdomain links, probes them with TSLP every five
// minutes of virtual time, arms reactive loss probing on links with
// level-shift episodes, and persists the collected series for the
// congestion analyzer and API server.
//
// Usage:
//
//	tslpd [-seed N] [-hours H] [-vps comcast-nyc,verizon-nyc]
//	      [-datadir dir] [-snapshot-every 6h] [-retain 0]
//	      [-compact-after 24h] [-compact-windows 7]
//	      [-replica-addr :8081] [-lineout points.lp]
//
// With -datadir the store persists as a segment directory (one file per
// shard and time window; see docs/PERSISTENCE.md): tslpd restores from
// it on startup if it holds a snapshot, takes an incremental snapshot
// every -snapshot-every of virtual time — rewriting only segments whose
// (shard, window) changed — and, with -retain > 0, first ages out data
// older than the retention horizon. Because the simulation replays
// deterministically from the epoch, a restart with the same -seed sets
// a write floor at the restored maximum timestamp: the replayed prefix
// is dropped instead of inserted twice, so a resumed run's store equals
// an uninterrupted one.
//
// With -compact-after > 0 each snapshot is followed by a background
// level-compaction pass (docs/PERSISTENCE.md §8): windows colder
// than the horizon are merged, up to -compact-windows base windows per
// output segment, shrinking the file count without changing content.
//
// With -replica-addr (requires -datadir) tslpd is a replication leader
// (docs/REPLICATION.md): it exports the datadir's committed manifest
// and segments over HTTP while the run writes new snapshots, and keeps
// exporting after the final snapshot until interrupted, so followers
// started with apiserver -follow can converge at any time.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"interdomain/internal/core"
	"interdomain/internal/netsim"
	"interdomain/internal/replication"
	"interdomain/internal/scenario"
	"interdomain/internal/tsdb"
	"interdomain/internal/tslp"
)

func main() {
	seed := flag.Uint64("seed", 1, "determinism seed")
	hours := flag.Int("hours", 26, "virtual hours to run")
	vpsFlag := flag.String("vps", "comcast-nyc,verizon-nyc", "comma-separated <provider>-<metro> vantage points")
	lineOut := flag.String("lineout", "", "also export the data as InfluxDB line protocol (the public-release format)")
	reactive := flag.Bool("reactive", false, "enable reactive probing-set maintenance")
	datadir := flag.String("datadir", "", "segment directory for periodic incremental snapshots (docs/PERSISTENCE.md)")
	snapEvery := flag.Duration("snapshot-every", 6*time.Hour, "virtual-time cadence of -datadir snapshots")
	retain := flag.Duration("retain", 0, "drop data older than this horizon at each snapshot (0 keeps everything)")
	compactAfter := flag.Duration("compact-after", 0, "merge segment windows colder than this horizon after each snapshot (0 disables compaction)")
	compactWindows := flag.Int("compact-windows", tsdb.DefaultCompactWindows, "max base windows per compacted segment")
	replicaAddr := flag.String("replica-addr", "", "export -datadir to replication followers on this address (docs/REPLICATION.md)")
	lazy := flag.Bool("lazy", false, "resume -datadir in block-pruned lazy mode: segments are mapped, not decoded, and a series is only materialized when new points land on it (docs/PERSISTENCE.md §9)")
	flag.Parse()

	if *replicaAddr != "" && *datadir == "" {
		fatal(fmt.Errorf("-replica-addr requires -datadir"))
	}

	in, _, err := scenario.Build(*seed)
	if err != nil {
		fatal(err)
	}
	db := tsdb.Open()
	if *datadir != "" {
		if _, err := os.Stat(filepath.Join(*datadir, tsdb.ManifestName)); err == nil {
			if err := db.RestoreDir(*datadir, tsdb.DirOptions{Lazy: *lazy}); err != nil {
				fatal(err)
			}
			fmt.Printf("tslpd: resumed %d series (%d points) from %s\n", db.SeriesCount(), db.PointCount(), *datadir)
			// The simulation below re-runs deterministically from the
			// epoch, regenerating every point the restored snapshot
			// already holds; the write floor drops that replayed prefix
			// so a restart cannot double-insert it.
			if floor := db.MaxTime(); !floor.IsZero() {
				db.SetWriteFloor(floor)
				fmt.Printf("tslpd: replaying virtual time up to %s (points at or before it are already persisted)\n",
					floor.UTC().Format(time.RFC3339))
			}
		}
	}
	// Leader-side replication: export the datadir over HTTP for the
	// whole run. The exporter serves whatever manifest is committed —
	// 503 before the first snapshot, then each generation as it lands —
	// so it can start before any data exists.
	if *replicaAddr != "" {
		go func() {
			if err := newExporterServer(*replicaAddr, *datadir).ListenAndServe(); err != nil {
				fatal(fmt.Errorf("replica listener: %w", err))
			}
		}()
		fmt.Printf("tslpd: exporting %s to followers on %s\n", *datadir, *replicaAddr)
	}

	sys := core.NewSystem(in, db, netsim.Epoch)
	sys.ReactiveTSLP = *reactive

	providerASN := map[string]int{
		"comcast": scenario.Comcast, "att": scenario.ATT, "verizon": scenario.Verizon,
		"centurylink": scenario.CenturyLink, "cox": scenario.Cox, "twc": scenario.TWC,
		"charter": scenario.Charter, "rcn": scenario.RCN,
	}
	for _, spec := range strings.Split(*vpsFlag, ",") {
		spec = strings.TrimSpace(spec)
		i := strings.LastIndex(spec, "-")
		if i <= 0 {
			fatal(fmt.Errorf("bad VP spec %q, want <provider>-<metro>", spec))
		}
		asn, ok := providerASN[spec[:i]]
		if !ok {
			fatal(fmt.Errorf("unknown provider %q", spec[:i]))
		}
		if _, err := sys.AddVP(asn, spec[i+1:], netsim.Epoch); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("tslpd: %s\n", in)
	sys.Start()
	deadline := netsim.Epoch.Add(time.Duration(*hours) * time.Hour)

	// Periodic persistence: a global event (it runs alone, between tick
	// partitions) that ages the store out and takes an incremental
	// snapshot — only dirty (shard, window) segments are rewritten.
	if *datadir != "" {
		compact := func(t time.Time) {
			if *compactAfter <= 0 {
				return
			}
			cs, err := db.Compact(*datadir, tsdb.CompactOptions{
				ColdBefore: t.Add(-*compactAfter),
				MaxWindows: *compactWindows,
			})
			if err != nil {
				fatal(err)
			}
			if cs.Merged > 0 {
				fmt.Printf("tslpd: %s compaction gen %d: merged %d segments into %d (%d -> %d bytes)\n",
					t.Format("01-02 15:04"), cs.Generation, cs.Merged, cs.Written, cs.BytesIn, cs.BytesOut)
			}
		}
		snapshot := func(t time.Time) {
			if *retain > 0 {
				if n := db.Retain(t.Add(-*retain), t.AddDate(100, 0, 0)); n > 0 {
					fmt.Printf("tslpd: %s retention dropped %d points\n", t.Format("01-02 15:04"), n)
				}
			}
			st, err := db.SnapshotDir(*datadir, tsdb.DirOptions{Incremental: true})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("tslpd: %s snapshot gen %d: %d segments (%d written, %d reused, %d removed)\n",
				t.Format("01-02 15:04"), st.Generation, st.Segments, st.Written, st.Reused, st.Removed)
			compact(t)
		}
		sys.Sched.Every(netsim.Epoch.Add(*snapEvery), *snapEvery, snapshot)
	}
	t0 := time.Now()
	events := sys.RunUntil(deadline)
	fmt.Printf("tslpd: ran %d virtual hours (%d events) in %.1fs wall\n", *hours, events, time.Since(t0).Seconds())

	for _, sv := range sys.SortedVPs() {
		links := 0
		if sv.LastBdrmap != nil {
			links = len(sv.LastBdrmap.Links)
		}
		fmt.Printf("  vp %-22s links=%-3d tslpRounds=%-4d responseRate=%.1f%%\n",
			sv.VP.Name, links, sv.TSLP.RoundsRun, 100*sv.TSLP.ResponseRate())
		if sv.LastBdrmap == nil {
			continue
		}
		// Arm reactive loss probing on links with level-shift episodes in
		// the first day (§3.3's trigger).
		congested := map[string]bool{}
		for _, l := range sv.LastBdrmap.Links {
			id := tslp.LinkID(l)
			eps := sys.DetectEpisodes(sv.VP.Name, id, netsim.Epoch, 1)
			if len(eps) > 0 {
				congested[id] = true
				fmt.Printf("    level-shift episodes on %s: %d\n", id, len(eps))
			}
		}
		if n := sys.ArmLossProbing(sv, congested, nil); n > 0 {
			fmt.Printf("    armed loss probing on %d interfaces\n", n)
		}
	}
	fmt.Printf("tslpd: store holds %d series, %d points\n", db.SeriesCount(), db.PointCount())

	if *datadir != "" {
		st, err := db.SnapshotDir(*datadir, tsdb.DirOptions{Incremental: true})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("tslpd: final snapshot gen %d: %d segments (%d written, %d reused) in %s\n",
			st.Generation, st.Segments, st.Written, st.Reused, *datadir)
		if *compactAfter > 0 {
			cs, err := db.Compact(*datadir, tsdb.CompactOptions{
				ColdBefore: deadline.Add(-*compactAfter),
				MaxWindows: *compactWindows,
			})
			if err != nil {
				fatal(err)
			}
			if cs.Merged > 0 {
				fmt.Printf("tslpd: final compaction gen %d: merged %d segments into %d (%d -> %d bytes)\n",
					cs.Generation, cs.Merged, cs.Written, cs.BytesIn, cs.BytesOut)
			}
		}
	}
	if *lineOut != "" {
		f, err := os.Create(*lineOut)
		if err != nil {
			fatal(err)
		}
		n, err := db.ExportLines(f)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("tslpd: %d line-protocol points written to %s\n", n, *lineOut)
	}

	// Keep exporting the final generation so late-starting followers can
	// still converge; the run's data is already durable at this point.
	if *replicaAddr != "" {
		fmt.Printf("tslpd: run complete; still exporting %s on %s (interrupt to exit)\n", *datadir, *replicaAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

// Connection limits of the exporter listener, the header and idle
// limits of apiserver's listeners: a client that dribbles its request
// header gives its connection back after readHeaderTimeout, and a
// kept-alive connection outlives the 90 s after which the followers'
// transport drops it itself.
const (
	readHeaderTimeout = 3 * time.Second
	idleTimeout       = 120 * time.Second
)

// newExporterServer is the http.Server the -replica-addr listener
// exports dir with.
func newExporterServer(addr, dir string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           replication.NewExporter(dir),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tslpd:", err)
	os.Exit(1)
}
