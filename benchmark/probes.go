package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/api"
	"interdomain/internal/readcache"
	"interdomain/internal/tsdb"
	"interdomain/internal/tsdb/blockenc"
)

// probeCount is how many requests of the workload's own stream the
// layer probes replay: 2000 in a ten-second run.
func probeCount(cfg runConfig) int { return int(200 * cfg.seconds) }

// timeIt returns how long fn took, in milliseconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return ms(time.Since(t0))
}

// layerProbes replays requests of the workload's stream straight at the
// public functions a replica would call for them — on replica 0's own
// lazily opened store, after the timed phases — and at replica 0's
// Server through a recorder. Loopback minus in-process is the
// transport's share.
func layerProbes(f *fleet, s *stream, n int, m map[string]float64) error {
	db, srv := f.followerDBs[0], f.servers[0]
	shape := s.agg()
	var view, agg, stamp, fold, advance, autocorr, shift, hit, miss []float64
	var decodeNs, encodeNs []float64

	for i := 0; i < n; i++ {
		rq := s.next()

		// The server first, cache purged, then again for the hit.
		serve := func() (float64, error) {
			w := httptest.NewRecorder()
			d := timeIt(func() { srv.ServeHTTP(w, httptest.NewRequest("GET", rq.path, nil)) })
			if w.Code != 200 {
				return 0, fmt.Errorf("in-process %s: status %d", rq.path, w.Code)
			}
			return d, nil
		}
		srv.PurgeCache()
		d, err := serve()
		if err != nil {
			return err
		}
		miss = append(miss, d)
		if d, err = serve(); err != nil {
			return err
		}
		hit = append(hit, d*1e3)

		if rq.kind == kindDashboard {
			continue
		}
		filter := map[string]string{"link": rq.link}
		stamp = append(stamp, 1e3*timeIt(func() { db.ViewStamp(measurement, filter) }))
		switch rq.kind {
		case kindQuery:
			var views []tsdb.SeriesView
			view = append(view, timeIt(func() { views = db.QueryViewWhere(measurement, filter, rq.from, rq.to, nil) }))
			if i%50 == 0 && len(views) > 0 && views[0].Len() > 0 {
				enc, dec := codecProbe(views[0])
				encodeNs, decodeNs = append(encodeNs, enc), append(decodeNs, dec)
			}
		case kindAgg:
			var qerr error
			agg = append(agg, timeIt(func() { _, qerr = db.QueryAggregate(measurement, filter, rq.from, rq.to, shape.step, shape.fns) }))
			if qerr != nil {
				return qerr
			}
		case kindCongestion:
			cfg := analysis.DefaultAutocorr()
			cfg.WindowDays = rq.days
			bin := 24 * time.Hour / time.Duration(cfg.BinsPerDay)
			n := cfg.WindowDays * cfg.BinsPerDay
			to := rq.from.Add(time.Duration(n) * bin)
			side := func(name string) []tsdb.SeriesView {
				return db.QueryView(measurement, map[string]string{"link": rq.link, "side": name}, rq.from, to)
			}
			far, near := side("far"), side("near")
			inc := analysis.NewIncremental(rq.from, cfg)
			fold = append(fold, timeIt(func() { inc.Advance(db.Epoch(), far, near) }))
			advance = append(advance, 1e3*timeIt(func() { inc.Advance(db.Epoch(), far, near) }))

			bins := func(views []tsdb.SeriesView) *analysis.BinSeries {
				bs := analysis.NewBinSeries(rq.from, bin, n)
				for _, v := range views {
					for j, ns := range v.Times {
						bs.ObserveNanos(ns, v.Values[j])
					}
				}
				return bs
			}
			farBins, nearBins := bins(far), bins(near)
			autocorr = append(autocorr, timeIt(func() { _, _ = analysis.Autocorrelation(farBins, nearBins, cfg) }))
			shift = append(shift, timeIt(func() { analysis.DetectLevelShifts(farBins, analysis.DefaultLevelShift()) }))
		}
	}
	m["api.inproc_miss_ms_p50"] = median(miss)
	m["api.inproc_hit_us_p50"] = median(hit)
	m["tsdb.view_stamp_us_p50"] = median(stamp)
	m["tsdb.query_view_ms_p50"] = median(view)
	m["tsdb.query_agg_ms_p50"] = median(agg)
	m["analysis.full_fold_ms_p50"] = median(fold)
	m["analysis.advance_us_p50"] = median(advance)
	m["analysis.autocorr_ms_per_link"] = median(autocorr)
	m["analysis.levelshift_ms_per_link"] = median(shift)
	m["blockenc.encode_ns_per_point"] = median(encodeNs)
	m["blockenc.decode_ns_per_point"] = median(decodeNs)
	m["readcache.do_hit_ns"] = cacheHitProbe()
	return nil
}

// codecProbe encodes one view's columns into blocks and decodes them
// back, returning nanoseconds per point for each direction.
func codecProbe(v tsdb.SeriesView) (encodeNs, decodeNs float64) {
	var blocks []blockenc.Block
	enc := timeIt(func() { blocks = blockenc.BuildBlocks(v.Times, v.Values) })
	dec := timeIt(func() {
		for _, b := range blocks {
			_, _, _ = b.Decode() // freshly built blocks cannot be corrupt
		}
	})
	pts := float64(v.Len())
	return enc * 1e6 / pts, dec * 1e6 / pts
}

// cacheHitProbe is the cost of one readcache hit: the median, over 50
// batches, of 200 lookups of a stored key.
func cacheHitProbe() float64 {
	c := readcache.New(0)
	key := readcache.Key{Kind: "probe", ID: "k"}
	compute := func() (any, error) { return []byte("v"), nil }
	_, _, _ = c.Do(key, compute) // compute cannot fail
	var per []float64
	for b := 0; b < 50; b++ {
		d := timeIt(func() {
			for i := 0; i < 200; i++ {
				_, _, _ = c.Do(key, compute)
			}
		})
		per = append(per, d*1e6/200)
	}
	return median(per)
}

// restartRepeats is how often cold-scan opens the store afresh.
const restartRepeats = 20

// restartProbe is a replica restarting: a lazy RestoreDir of replica
// 0's directory into a new store, a new Server over it, and the first
// congestion answer, restartRepeats times.
func restartProbe(ctx context.Context, f *fleet, m map[string]float64) error {
	rq := congestionRequest(linkID(0), f.spec.end().AddDate(0, 0, -f.spec.days), f.spec.days)
	var restore, total []float64
	for i := 0; i < restartRepeats && ctx.Err() == nil; i++ {
		t0 := time.Now()
		db := tsdb.Open()
		if err := db.RestoreDir(f.replicaDirs[0], tsdb.DirOptions{Lazy: true, BlockCacheBytes: f.spec.blockCacheBytes}); err != nil {
			return fmt.Errorf("restart probe: %w", err)
		}
		restore = append(restore, ms(time.Since(t0)))
		srv := api.New(db)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", rq.path, nil))
		total = append(total, ms(time.Since(t0)))
		srv.Close()
		releaseStore(db, f.dir)
		if w.Code != 200 {
			return fmt.Errorf("restart probe: first answer status %d", w.Code)
		}
	}
	m["tsdb.restore_lazy_ms"] = median(restore)
	m["restart.ms_p50"] = median(total)
	return ctx.Err()
}
