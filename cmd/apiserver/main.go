// Command apiserver serves a tsdb segment directory over the system's public JSON
// query API (the InfluxDB/Grafana substitute; §1 contribution 4).
//
// Usage:
//
//	apiserver -in datadir/ [-addr :8080] [-pidfile path]
//	          [-follow http://leader:8081] [-tail-every 30s]
//	          [-replica-addr :8081] [-block-cache-mb 16]
//	          [-swr] [-swr-budget 5m]
//	apiserver -front http://r1:8080,http://r2:8080 [-addr :8080]
//	          [-front-health-every 2s] [-front-staleness 1]
//	          [-front-hedge-after 0]
//
// -in names a segment directory written by tslpd -datadir
// (docs/PERSISTENCE.md); it is opened read-only and mapped, not
// decoded: queries prune whole blocks by their summaries and decode
// only survivors on demand (docs/PERSISTENCE.md §9), /api/v1/stats
// reports the blocks scanned vs skipped, and follower hot-swaps reopen
// only changed segments. -block-cache-mb bounds the decoded-block
// cache in MiB (docs/PERSISTENCE.md §9.5); 0 keeps the built-in 16 MiB
// default. The budget applies to follower hot-swaps too.
//
// With -follow the server is a replication follower (docs/REPLICATION.md):
// -in names the local replica directory (created if absent), and the
// server tails the leader's manifest every -tail-every, fetches new
// segments, and hot-swaps the serving store after each committed
// generation. /api/v1/health reports the replication lag and answers
// 503 until the first leader snapshot has been applied.
//
// -replica-addr starts a second listener exporting this server's own
// segment directory to downstream followers — on a leader, point it at
// the tslpd datadir; on a follower it re-exports the replica directory
// for chained fan-out.
//
// The pid file defaults to apiserver.pid under os.TempDir() and is
// removed on graceful shutdown; -pidfile "" disables it.
//
// With -swr the congestion endpoint serves stale-while-revalidate
// (docs/DETECTION.md §7): a request invalidated by new writes is
// answered with the superseded cached body immediately — marked by an
// X-Stale header, a Warning header, and the predecessor's ETag — while
// the incremental detector refreshes in the background. -swr-budget
// bounds how old a superseded body may be served (0 means unbounded);
// /api/v1/stats counts stale serves and background refreshes under
// detector_incremental (docs/DETECTION.md §6).
//
// With -front the server holds no store at all: it is the scatter
// query front (docs/SERVING.md §9) over a comma-separated list of
// replica base URLs. It polls each replica's /api/v1/health every
// -front-health-every, routes reads to healthy replicas whose
// generation lag is within -front-staleness, hedges a slow primary
// fetch after -front-hedge-after (0 means adaptive, the p90 of recent
// latencies), and retries once on a distinct replica when a fetch
// fails or answers 5xx. Responses carry X-Served-By and X-Replica-Lag;
// /api/v1/stats gains a "front" block of routing counters. -in is not
// used in front mode.
//
// Every listener — the public one of every mode, -replica-addr and
// -debug-addr — bounds how long a connection may take to send its
// request header and its request, to read its response, and to sit
// idle (newServer). The limits are constants, chosen to sit outside
// what the front's and the followers' clients wait for, not flags; a
// CPU profile from -debug-addr must therefore be shorter than the
// write limit.
//
// -debug-addr starts a second listener (loopback by default) exposing
// net/http/pprof under /debug/pprof/ for CPU/heap/mutex profiling of
// the serving tier; see docs/SERVING.md §5 for a profiling walkthrough.
// It is off unless the flag is set, so profiling never shares a port
// with — or is reachable through — the public API.
//
// Endpoints: /api/v1/measurements, /api/v1/tags, /api/v1/query,
// /api/v1/congestion, /api/v1/stats, /api/v1/health, /dashboard,
// /healthz. See package interdomain/internal/api.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// shutdownGrace bounds how long in-flight requests may run after a
// termination signal before the listener is torn down.
const shutdownGrace = 5 * time.Second

// Connection limits of every listener in every mode. A client
// that dribbles its request line, stalls mid-request or never reads its
// response gives its connection back instead of holding a goroutine
// and a file descriptor for ever. Every endpoint is a body-less GET;
// the write limit sits above the 30 s after which the front and the
// followers' clients give up on a response, the idle limit above the
// 90 s after which their transport drops an idle connection itself, so
// the server is never the side that closes a connection in use.
const (
	readHeaderTimeout = 3 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newServer is the http.Server every listener of every mode listens
// with: the serving modes', the front's, the replica exporter's and
// the profiler's.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	inPath := flag.String("in", "", "segment directory (required; the replica directory with -follow)")
	addr := flag.String("addr", ":8080", "listen address")
	follow := flag.String("follow", "", "leader base URL to replicate from, e.g. http://leader:8081 (docs/REPLICATION.md)")
	tailEvery := flag.Duration("tail-every", replication.DefaultInterval, "manifest tail cadence with -follow")
	replicaAddr := flag.String("replica-addr", "", "listen address exporting -in to downstream followers")
	blockCacheMB := flag.Int64("block-cache-mb", 0,
		"decoded-block cache budget in MiB (0 means the built-in default; docs/PERSISTENCE.md §9.5)")
	swr := flag.Bool("swr", false,
		"serve stale-while-revalidate: answer invalidated congestion requests with the superseded body while recomputing in the background (docs/DETECTION.md §7)")
	swrBudget := flag.Duration("swr-budget", 5*time.Minute,
		"staleness budget with -swr: bodies older than this are never served stale (0 means unbounded)")
	debugAddr := flag.String("debug-addr", "",
		"pprof listen address, e.g. localhost:6060 (empty disables)")
	pidfile := flag.String("pidfile", filepath.Join(os.TempDir(), "apiserver.pid"),
		"pid file path (empty disables)")
	front := flag.String("front", "",
		"comma-separated replica base URLs: run as the scatter query front instead of serving a store (docs/SERVING.md §9)")
	frontHealthEvery := flag.Duration("front-health-every", api.DefaultHealthEvery,
		"replica health poll cadence with -front")
	frontStaleness := flag.Uint64("front-staleness", api.DefaultStalenessLag,
		"generation-lag routing threshold with -front")
	frontHedgeAfter := flag.Duration("front-hedge-after", 0,
		"hedge a slow primary fetch after this long with -front (0 means adaptive p90)")
	flag.Parse()

	if *front != "" {
		runFront(*front, *addr, *debugAddr, *pidfile, *frontHealthEvery, *frontStaleness, *frontHedgeAfter)
		return
	}
	if *inPath == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	if *pidfile != "" {
		if err := os.WriteFile(*pidfile, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
			fatal(err)
		}
		defer os.Remove(*pidfile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var opts []api.Option
	if *swr {
		opts = append(opts, api.WithStaleWhileRevalidate(*swrBudget))
		fmt.Printf("apiserver: stale-while-revalidate on, budget %s\n", *swrBudget)
	}
	cacheBytes := *blockCacheMB << 20
	if cacheBytes < 0 {
		fatal(fmt.Errorf("-block-cache-mb must be >= 0"))
	}
	var db *tsdb.DB
	var err error
	// tailing closes once the follower's loop has returned (at once
	// without -follow), so shutdown never closes the store under a swap.
	tailing := make(chan struct{})
	if *follow != "" {
		// Follower mode: -in is the replica directory. It may not exist
		// yet (first start) or may hold a committed generation (restart);
		// either way the follower resumes from whatever is there.
		db, err = openReplicaDir(*inPath, cacheBytes)
		if err != nil {
			fatal(err)
		}
		// The post-commit hot-swap maps only the segments each cycle
		// fetched.
		f := replication.New(*follow, *inPath, db, replication.Options{
			Interval:   *tailEvery,
			CacheBytes: cacheBytes,
			Logf:       log.Printf,
		})
		go func() {
			f.Run(ctx)
			close(tailing)
		}()
		opts = append(opts,
			api.WithReplication(func() api.ReplicationHealth {
				return replicationHealth(f)
			}),
			// The replica directory is the serving store's disk identity:
			// stats and health report its size, segment count and
			// compaction depth (docs/SERVING.md §4).
			api.WithStorageDir(*inPath),
		)
		fmt.Printf("apiserver: following %s into %s every %s\n", *follow, *inPath, *tailEvery)
	} else {
		db, err = openStore(*inPath, cacheBytes)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, api.WithStorageDir(*inPath))
		close(tailing)
	}

	if *replicaAddr != "" {
		go func() {
			if err := newServer(*replicaAddr, replication.NewExporter(*inPath)).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "apiserver: replica listener:", err)
			}
		}()
		fmt.Printf("apiserver: exporting %s to followers on %s\n", *inPath, *replicaAddr)
	}

	srv := newServer(*addr, api.New(db, opts...))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	if *debugAddr != "" {
		go func() {
			if err := newServer(*debugAddr, debugMux()).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "apiserver: debug listener:", err)
			}
		}()
		fmt.Printf("apiserver: pprof on http://%s/debug/pprof/\n", *debugAddr)
	}

	fmt.Printf("apiserver: serving %d series (%d points) on %s\n", db.SeriesCount(), db.PointCount(), *addr)
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight queries finish.
		fmt.Fprintln(os.Stderr, "apiserver: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fatal(err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		// Every request has drained and the follower has stopped: release
		// the store's segment mappings.
		<-tailing
		db.Close()
	}
}

// runFront runs the server as a storeless scatter query front over the
// given comma-separated replica URLs (docs/SERVING.md §9), with the
// same pid-file, pprof and graceful-shutdown conventions as the
// serving modes.
func runFront(replicas, addr, debugAddr, pidfile string, healthEvery time.Duration, staleness uint64, hedgeAfter time.Duration) {
	var urls []string
	for _, r := range strings.Split(replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			urls = append(urls, r)
		}
	}
	f, err := api.NewFront(urls, api.FrontOptions{
		HealthEvery:  healthEvery,
		StalenessLag: staleness,
		HedgeAfter:   hedgeAfter,
		Logf:         log.Printf,
	})
	if err != nil {
		fatal(err)
	}
	if pidfile != "" {
		if err := os.WriteFile(pidfile, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
			fatal(err)
		}
		defer os.Remove(pidfile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go f.Run(ctx)

	if debugAddr != "" {
		go func() {
			if err := newServer(debugAddr, debugMux()).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "apiserver: debug listener:", err)
			}
		}()
		fmt.Printf("apiserver: pprof on http://%s/debug/pprof/\n", debugAddr)
	}

	srv := newServer(addr, f)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("apiserver: fronting %d replica(s) on %s (health every %s, staleness %d)\n",
		len(urls), addr, healthEvery, staleness)
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "apiserver: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fatal(err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// openStore maps a segment directory (tslpd -datadir) read-only
// without decoding it, so startup is O(metadata). cacheBytes bounds
// the decoded-block cache (docs/PERSISTENCE.md §9.5); 0 means the tsdb
// default.
func openStore(path string, cacheBytes int64) (*tsdb.DB, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("-in must be a segment directory (docs/PERSISTENCE.md), %s is a file", path)
	}
	db := tsdb.Open()
	return db, db.RestoreDir(path, tsdb.DirOptions{BlockCacheBytes: cacheBytes})
}

// openReplicaDir opens the follower's local replica directory: restore
// from it when it holds a committed manifest (a restart resumes
// serving immediately at the applied generation), start empty when it
// does not (health answers 503 until the first tail cycle lands).
func openReplicaDir(dir string, cacheBytes int64) (*tsdb.DB, error) {
	db := tsdb.Open()
	if _, err := os.Stat(filepath.Join(dir, tsdb.ManifestName)); err == nil {
		if err := db.RestoreDir(dir, tsdb.DirOptions{BlockCacheBytes: cacheBytes}); err != nil {
			return nil, err
		}
		fmt.Printf("apiserver: resumed replica generation %d (%d series, %d points) from %s\n",
			db.SnapshotGeneration(), db.SeriesCount(), db.PointCount(), dir)
	}
	return db, nil
}

// replicationHealth converts a follower's status into the API's
// replication-health shape: the nested peers array (one "leader"
// entry) plus the deprecated flat fields, kept one release for old
// monitors (docs/SERVING.md §8). Status.Leader is already userinfo-
// redacted by the replication package.
func replicationHealth(f *replication.Follower) api.ReplicationHealth {
	st := f.Status()
	rh := api.ReplicationHealth{
		Leader:             st.Leader,
		LeaderGeneration:   st.LeaderGeneration,
		AppliedGeneration:  st.AppliedGeneration,
		LastSyncAgeSeconds: -1,
		LastError:          st.LastError,
	}
	if st.LeaderGeneration > st.AppliedGeneration {
		rh.LagGenerations = st.LeaderGeneration - st.AppliedGeneration
	}
	if !st.LastSync.IsZero() {
		rh.LastSyncAgeSeconds = time.Since(st.LastSync).Seconds()
	}
	rh.Peers = []api.PeerHealth{{
		Role:               "leader",
		Address:            st.Leader,
		Generation:         st.LeaderGeneration,
		LagGenerations:     rh.LagGenerations,
		Healthy:            st.LastError == "",
		LastSyncAgeSeconds: rh.LastSyncAgeSeconds,
		LastError:          st.LastError,
	}}
	return rh
}

// debugMux builds the pprof handler tree on a private mux rather than
// relying on net/http/pprof's DefaultServeMux registrations, so the
// profiler is reachable only through the -debug-addr listener even if
// some future code serves DefaultServeMux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apiserver:", err)
	os.Exit(1)
}
