package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"interdomain/internal/api"
	"interdomain/internal/netsim"
	"interdomain/internal/replication"
	"interdomain/internal/tsdb"
)

// fixtureSpec sizes the store the serving workloads read. The shape is
// the paper's: one tslp measurement, far and near series per link from
// one vantage point, a sample every five minutes (§3.1), every fourth
// link carrying a recurring evening plateau on its far side.
type fixtureSpec struct {
	links int
	days  int
	// blockCacheBytes bounds each follower's decoded-block cache. The
	// full-size fixture keeps it below the decoded set (16 bytes a
	// point), so cold-scan cannot fit its blocks in memory.
	blockCacheBytes int64
}

const (
	cadence     = 5 * time.Minute
	stepsPerDay = int(24 * time.Hour / cadence)
	measurement = "tslp"
	vantage     = "vp0"
	// replicaCount followers, each behind its own api.Server, sit behind
	// the front.
	replicaCount = 2
	// publishWorkers is the parallelism of the write path once the fleet
	// is up: churn's incremental snapshots and every follower's tail
	// cycle. In production the leader and each follower own a machine
	// and default to one worker per CPU; in one process on a two-core
	// sandbox that default lets every round take both cores from the
	// replicas and the generator, and churn's read tail then measures
	// the sandbox (88 ms at the p99, spreading 30% from run to run,
	// against 24 ms and 20% with the write path held to one core).
	publishWorkers = 1
)

// fullFixture is what the five workloads run on. The issue's 50 days
// and 16 MiB block cache are scaled down together by 2.5 so that three
// fixture builds, the timed phases and the checks of one run stay inside
// the run-time cap with room to spare; the ratios that shape the
// workloads are kept: 193 hot request keys plus 64 link-status entries
// against the 256-entry read cache, and 11.8 MB of decoded columns
// against a 6 MiB block cache.
var fullFixture = fixtureSpec{links: 64, days: 20, blockCacheBytes: 6 << 20}

func (s fixtureSpec) series() int { return 2 * s.links }
func (s fixtureSpec) steps() int  { return s.days * stepsPerDay }
func (s fixtureSpec) points() int { return s.series() * s.steps() }

// end is the first instant after the bulk-loaded data: a day boundary,
// so the first churn round opens a new segment window.
func (s fixtureSpec) end() time.Time { return netsim.Day(s.days) }

func linkID(l int) string { return fmt.Sprintf("L%02d", l) }

var sides = [2]string{"far", "near"}

// sampleValue is the latency, in milliseconds, of one (link, side) at
// one five-minute step: a per-series base, hash noise, and on every
// fourth link's far side a 15 ms plateau from 19:00 to 22:00 UTC. It is
// a pure function of the seed, so churn rounds extend the same series
// and every probe knows the value it must read back.
func sampleValue(seed uint64, link, side, step int) float64 {
	base := 8 + 20*unit(netsim.Hash64(seed, 0xba5e, uint64(link), uint64(side)))
	if side == 0 {
		base += 4
	}
	v := base + unit(netsim.Hash64(seed, 0x5a3b, uint64(link), uint64(side), uint64(step)))
	if side == 0 && link%4 == 0 {
		if h := (step % stepsPerDay) * int(cadence/time.Minute) / 60; h >= 19 && h < 22 {
			v += 15
		}
	}
	return v
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// seriesTags holds one tag map per (link, side); WriteBatch never
// mutates them, so every point of a series shares its map.
func seriesTags(spec fixtureSpec) [][2]map[string]string {
	tags := make([][2]map[string]string, spec.links)
	for l := range tags {
		for s, side := range sides {
			tags[l][s] = map[string]string{"link": linkID(l), "side": side, "vp": vantage}
		}
	}
	return tags
}

// writeSteps writes steps [from, to) of every series to db in probe
// order — one round of all links, then the next — in 4096-point batches.
func writeSteps(db *tsdb.DB, spec fixtureSpec, seed uint64, tags [][2]map[string]string, from, to int) {
	batch := make([]tsdb.BatchPoint, 0, 4096)
	for step := from; step < to; step++ {
		at := netsim.Epoch.Add(time.Duration(step) * cadence)
		for l := 0; l < spec.links; l++ {
			for s := range sides {
				batch = append(batch, tsdb.BatchPoint{
					Measurement: measurement, Tags: tags[l][s],
					Time: at, Value: sampleValue(seed, l, s, step),
				})
				if len(batch) == cap(batch) {
					db.WriteBatch(batch)
					batch = batch[:0]
				}
			}
		}
	}
	db.WriteBatch(batch)
}

// listener is one tier on loopback TCP.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

// listen serves h on an ephemeral loopback port until close.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close() // drops the listener and every connection
	<-l.done
}

// setupTimes is where the fixture build spent its time; the per-layer
// set-up metrics come from here.
type setupTimes struct {
	write, snapshot, sync, total time.Duration
}

// fleet is the real serving path on loopback: a leader store and its
// exporter, lazy followers, one api.Server per follower, and the front.
type fleet struct {
	spec fixtureSpec
	seed uint64
	tags [][2]map[string]string
	dir  string // everything the fleet writes lives under here

	leader    *tsdb.DB
	leaderDir string
	exporter  *listener

	followers   []*replication.Follower
	followerDBs []*tsdb.DB
	replicaDirs []string
	servers     []*api.Server
	replicas    []*listener

	front    *api.Front
	frontSrv *listener

	times setupTimes
	// lay is nil in the untraced run: the tiers then run bare.
	lay *layers
}

// buildFleet builds the store from the seed and stands every tier up.
// With lay set, each handler and the front's and followers' transports
// are wrapped in the benchmark's recording middleware.
func buildFleet(ctx context.Context, spec fixtureSpec, seed uint64, workdir string, lay *layers) (f *fleet, err error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(workdir, "fleet-")
	if err != nil {
		return nil, err
	}
	f = &fleet{spec: spec, seed: seed, tags: seriesTags(spec), dir: dir, lay: lay}
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	f.leader = tsdb.Open()
	writeSteps(f.leader, spec, seed, f.tags, 0, spec.steps())
	f.times.write = time.Since(t0)

	t1 := time.Now()
	f.leaderDir = filepath.Join(dir, "leader")
	if _, err = f.leader.SnapshotDir(f.leaderDir, tsdb.DirOptions{Incremental: true}); err != nil {
		return nil, fmt.Errorf("leader snapshot: %w", err)
	}
	f.times.snapshot = time.Since(t1)

	if f.exporter, err = listen(lay.wrapExporter(replication.NewExporter(f.leaderDir))); err != nil {
		return nil, err
	}

	t2 := time.Now()
	var urls []string
	for i := 0; i < replicaCount; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("replica%d", i))
		db := tsdb.Open()
		opts := replication.Options{Lazy: true, CacheBytes: spec.blockCacheBytes, Client: lay.followerClient()}
		// The initial sync runs with the default worker count, like a
		// follower joining a fleet; the follower that tails from then on
		// is a restart over the same directory, held to publishWorkers.
		if _, err = replication.New(f.exporter.url, rdir, db, opts).TailOnce(ctx); err != nil {
			return nil, fmt.Errorf("follower %d initial sync: %w", i, err)
		}
		opts.Workers = publishWorkers
		fol := replication.New(f.exporter.url, rdir, db, opts)
		srv := api.New(db,
			api.WithReplication(func() api.ReplicationHealth { return replicationHealth(fol) }),
			api.WithStorageDir(rdir),
			api.WithStaleWhileRevalidate(0))
		f.followers = append(f.followers, fol)
		f.followerDBs = append(f.followerDBs, db)
		f.replicaDirs = append(f.replicaDirs, rdir)
		f.servers = append(f.servers, srv)
		rep, lerr := listen(lay.wrapReplica(srv))
		if lerr != nil {
			return nil, lerr
		}
		f.replicas = append(f.replicas, rep)
		urls = append(urls, rep.url)
	}
	f.times.sync = time.Since(t2)

	// The untraced front keeps its default client; the traced one gets
	// the same default transport behind a recording RoundTripper.
	if f.front, err = api.NewFront(urls, api.FrontOptions{Client: lay.frontClient()}); err != nil {
		return nil, err
	}
	f.front.PollNow(ctx)
	if f.frontSrv, err = listen(lay.wrapFront(f.front)); err != nil {
		return nil, err
	}
	f.times.total = time.Since(t0)
	return f, nil
}

// replicationHealth is what cmd/apiserver reports for a follower, so the
// front sees the same health body it sees in production.
func replicationHealth(fol *replication.Follower) api.ReplicationHealth {
	st := fol.Status()
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
		Role: "leader", Address: st.Leader, Generation: st.LeaderGeneration,
		LagGenerations: rh.LagGenerations, Healthy: st.LastError == "",
		LastSyncAgeSeconds: rh.LastSyncAgeSeconds, LastError: st.LastError,
	}}
	return rh
}

// close stops every tier, waits for its goroutines, and removes the
// fleet's directory. Safe on a partly built fleet.
func (f *fleet) close() {
	for _, l := range append([]*listener{f.frontSrv, f.exporter}, f.replicas...) {
		if l != nil {
			l.close()
		}
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, db := range f.followerDBs {
		releaseStore(db, f.dir)
	}
	// The front's and followers' default clients pool connections on
	// http.DefaultTransport; drop them so nothing outlives the fleet.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	_ = os.RemoveAll(f.dir)
}

// releaseStore unmaps the segment files a lazily opened store holds.
// tsdb.DB has no Close, and a process that builds the fixture many times
// (-aa, the restart probe) would otherwise run into the kernel's limit
// on mappings; an eager RestoreDir of an empty directory is the public
// call that retires them. No reader may still be using db.
func releaseStore(db *tsdb.DB, scratch string) {
	dir, err := os.MkdirTemp(scratch, "empty-")
	if err != nil {
		return // nothing is lost but the mappings, until the process ends
	}
	defer os.RemoveAll(dir)
	if _, err := tsdb.Open().SnapshotDir(dir, tsdb.DirOptions{}); err == nil {
		_ = db.RestoreDir(dir, tsdb.DirOptions{}) // as above
	}
}

// checkDigests reports an error unless every follower store holds
// exactly the leader's content.
func (f *fleet) checkDigests() error {
	want := f.leader.Digest()
	var wg sync.WaitGroup
	got := make([]uint64, len(f.followerDBs))
	for i, db := range f.followerDBs {
		wg.Add(1)
		go func(i int, db *tsdb.DB) {
			defer wg.Done()
			got[i] = db.Digest()
		}(i, db)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			return fmt.Errorf("follower %d digest %016x differs from the leader's %016x", i, g, want)
		}
	}
	return nil
}
