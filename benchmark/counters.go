package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"interdomain/internal/api"
)

// counterSet is a reading of the counters the layers already export,
// keyed by the name this benchmark gives them. Every entry is
// cumulative, so a timed phase's work is the difference of two readings.
type counterSet map[string]float64

// sub returns a-b entry by entry.
func (a counterSet) sub(b counterSet) counterSet {
	out := make(counterSet, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// getJSON decodes one of the program's own JSON endpoints.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters reads every exported counter of the fleet: the read caches
// (Server.CacheStats), the detector block of each replica's
// /api/v1/stats, the lazy read path (DB.LazyReadStats), the followers
// (Follower.Status) and the front block the front injects into
// /api/v1/stats. Per-replica counters are summed.
func (f *fleet) counters(ctx context.Context) (counterSet, error) {
	c := counterSet{}
	for i, srv := range f.servers {
		cs := srv.CacheStats()
		c["readcache.hits"] += float64(cs.Hits)
		c["readcache.misses"] += float64(cs.Misses)
		c["readcache.evictions"] += float64(cs.Evictions)
		c["readcache.coalesced"] += float64(cs.Coalesced)
		c["readcache.stale_serves"] += float64(cs.StaleServes)
		c["readcache.bg_refreshes"] += float64(cs.BackgroundRefreshes)

		var st api.StatsResponse
		if err := getJSON(ctx, f.replicas[i].url+"/api/v1/stats", &st); err != nil {
			return nil, err
		}
		c["analysis.detector_runs"] += float64(st.CongestionComputes)
		c["analysis.incremental_folds"] += float64(st.Detector.Folds - st.Detector.FullRecomputes)
		c["analysis.full_recomputes"] += float64(st.Detector.FullRecomputes)
		c["analysis.points_folded"] += float64(st.Detector.PointsFolded)

		if ls, ok := f.followerDBs[i].LazyReadStats(); ok {
			c["tsdb.blocks_scanned"] += float64(ls.BlocksScanned)
			c["tsdb.blocks_skipped"] += float64(ls.BlocksSkipped)
			c["tsdb.blocks_decoded"] += float64(ls.BlocksDecoded)
			c["tsdb.decoded_bytes"] += float64(ls.DecodedBytes)
			c["tsdb.summary_only_buckets"] += float64(ls.SummaryOnlyBuckets)
			c["tsdb.segments_reused"] += float64(ls.SegmentsReused)
		}

		fs := f.followers[i].Status()
		c["replication.bytes"] += float64(fs.BytesFetched)
		c["replication.delta_segments"] += float64(fs.DeltaSegments)
		c["replication.delta_fallbacks"] += float64(fs.DeltaFallbacks)
	}

	var doc struct {
		Front api.FrontStats `json:"front"`
	}
	if err := getJSON(ctx, f.frontSrv.url+"/api/v1/stats", &doc); err != nil {
		return nil, err
	}
	c["front.unavailable"] = float64(doc.Front.Unavailable)
	for i, r := range doc.Front.Replicas {
		c["front.hedged"] += float64(r.Hedged)
		c["front.retried"] += float64(r.Retried)
		c[fmt.Sprintf("front.routed.%d", i)] = float64(r.Routed)
	}
	return c, nil
}

// frontBalance is the least-loaded replica's share of the busiest one's
// routed responses: 1 is an even spread.
func frontBalance(d counterSet, replicas int) float64 {
	lo, hi := -1.0, 0.0
	for i := 0; i < replicas; i++ {
		v := d[fmt.Sprintf("front.routed.%d", i)]
		if lo < 0 || v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return ratio(lo, hi)
}
