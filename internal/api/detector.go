package api

import (
	"container/list"
	"math"
	"sync"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/tsdb"
)

// This file keeps the serving tier's persistent incremental detector
// state (docs/DETECTION.md §3, §6) in two bounded registries. Columns
// hold one link's min-filter bins per (link, vp, bin width, grid phase)
// and fold each stored point once; accumulators hold one congestion
// window's elevation state per (link, vp, window start, window length,
// config) and read their bins from the matching column. On a stamp
// change the congestion endpoint folds only newly written points into
// the column, re-evaluates only the window's bins that moved, and
// re-encodes (or, when nothing changed, reuses) the response body.

// DefaultDetectorCapacity bounds the accumulator registry. An
// accumulator for the default 50-day window holds copies of its two
// 4800-bin slices of a column plus elevation state — tens of KB — so
// the bound keeps the registry well under the read cache's footprint.
const DefaultDetectorCapacity = 128

// DefaultColumnBytes bounds the memory all columns hold together; past
// it the least recently used column is dropped, and the windows over it
// rebuild from a new one. A column is charged columnEntryBytes plus its
// key's strings plus 16 B per 15-minute bin between the first and last
// point it folded — about 1.1 MB for two years of one link — so columns
// requested for links or times that hold no data are bounded too.
const DefaultColumnBytes = 32 << 20

// columnEntryBytes is the fixed charge of one column: its struct, cursor
// and live-window maps and its registry entry.
const columnEntryBytes = 1 << 10

// columnCost is what a column of key k holding binBytes of bins is
// charged against DefaultColumnBytes.
func columnCost(k colKey, binBytes int) int {
	return columnEntryBytes + len(k.link) + len(k.vp) + binBytes
}

// detKey identifies one accumulator: the congestion request shape minus
// the stamp (the accumulator absorbs stamp movement; everything else
// changes the detector geometry or tuning and needs fresh state).
type detKey struct {
	link, vp string
	from     int64
	days     int
	cfgHash  uint64
}

// colKey identifies one column: the windows that share it differ only
// in their start, length and tuning.
type colKey struct {
	link, vp     string
	width, phase int64
}

// detState is one accumulator slot. mu serializes advances and Close —
// analysis.Accumulator is not safe for concurrent use — and body is the
// last encoded response, reused verbatim on Unchanged advances so a
// no-op stamp change serves the exact previous bytes without
// re-deriving or re-encoding (docs/DETECTION.md §4).
type detState struct {
	mu   sync.Mutex
	acc  *analysis.Accumulator
	body []byte
}

// closeDetState releases an evicted accumulator's window from its
// column once any run holding it has finished.
func closeDetState(st *detState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.acc.Close()
}

// lru is a bounded least-recently-used map whose entries each carry a
// cost. Eviction only unlinks an entry and hands its value to dropped,
// outside the map's lock: a detector run holding it finishes against
// its private state, and the next request for that key starts afresh
// (for an accumulator or column, a full recompute).
type lru[K comparable, V comparable] struct {
	mu      sync.Mutex
	budget  int
	total   int
	ll      *list.List // front = most recently used; values are *lruEntry
	entries map[K]*list.Element
	dropped func(V) // nil: nothing to release
}

type lruEntry[K comparable, V comparable] struct {
	key  K
	val  V
	cost int
}

func newLRU[K comparable, V comparable](budget int, dropped func(V)) *lru[K, V] {
	return &lru[K, V]{budget: budget, ll: list.New(), entries: make(map[K]*list.Element), dropped: dropped}
}

// get returns the value for key, creating it with mk at cost on first
// use.
func (r *lru[K, V]) get(key K, cost int, mk func() V) V {
	r.mu.Lock()
	if el, ok := r.entries[key]; ok {
		r.ll.MoveToFront(el)
		r.mu.Unlock()
		return el.Value.(*lruEntry[K, V]).val
	}
	v := mk()
	r.entries[key] = r.ll.PushFront(&lruEntry[K, V]{key: key, val: v, cost: cost})
	r.total += cost
	r.release(r.evict())
	return v
}

// setCost re-costs key's entry if it still holds val.
func (r *lru[K, V]) setCost(key K, val V, cost int) {
	r.mu.Lock()
	el, ok := r.entries[key]
	if !ok || el.Value.(*lruEntry[K, V]).val != val {
		r.mu.Unlock()
		return
	}
	e := el.Value.(*lruEntry[K, V])
	r.total += cost - e.cost
	e.cost = cost
	r.release(r.evict())
}

// evict drops least recently used entries until the total cost is
// within budget, never the most recent one, and returns their values.
// The caller holds r.mu.
func (r *lru[K, V]) evict() []V {
	var out []V
	for r.total > r.budget && r.ll.Len() > 1 {
		tail := r.ll.Back()
		e := tail.Value.(*lruEntry[K, V])
		r.ll.Remove(tail)
		delete(r.entries, e.key)
		r.total -= e.cost
		out = append(out, e.val)
	}
	return out
}

// release unlocks r.mu and hands evicted values to dropped.
func (r *lru[K, V]) release(evicted []V) {
	r.mu.Unlock()
	if r.dropped != nil {
		for _, v := range evicted {
			r.dropped(v)
		}
	}
}

// len returns the number of live entries.
func (r *lru[K, V]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// DetectorStats is the detector_incremental block of /api/v1/stats
// (docs/DETECTION.md §6).
type DetectorStats struct {
	// Accumulators is the number of live window accumulators.
	Accumulators int `json:"accumulators"`
	// Folds counts detector runs: every congestion compute performs
	// exactly one.
	Folds uint64 `json:"folds"`
	// PointsFolded counts view points folded into columns — a column's
	// whole span when it folds from scratch, only points new to it
	// otherwise.
	PointsFolded uint64 `json:"points_folded"`
	// FullRecomputes counts runs that built their window's state from
	// scratch: a new window, or one whose column re-folded
	// (docs/DETECTION.md §4 lists the triggers).
	FullRecomputes uint64 `json:"full_recomputes"`
	// Unchanged counts runs that moved no bin of their window and
	// reused the previous encoded body verbatim.
	Unchanged uint64 `json:"unchanged"`
	// StaleServes and BackgroundRefreshes mirror the read cache's
	// stale-while-revalidate counters (docs/DETECTION.md §7): congestion
	// responses served from a superseded body, and the deduplicated
	// background recomputations that followed.
	StaleServes         uint64 `json:"stale_serves"`
	BackgroundRefreshes uint64 `json:"background_refreshes"`
}

// advanceDetector runs one congestion analysis — one detector run: it
// advances the window's accumulator from the link's column, which
// refreshes the column first (no view at all when stamp, the link's
// ViewStamp as the request read it, is the one the column last folded
// under), and returns the encoded response body — the previous body
// verbatim when the advance proves nothing changed.
func (s *Server) advanceDetector(link, vp string, from time.Time, cfg analysis.AutocorrConfig, stamp uint64) ([]byte, error) {
	width := cfg.BinWidth()
	ck := colKey{link: link, vp: vp, width: int64(width), phase: analysis.GridPhase(from, width)}
	col := s.cols.get(ck, columnCost(ck, 0), func() *analysis.BinColumn { return analysis.NewBinColumn(width, ck.phase) })
	key := detKey{link: link, vp: vp, from: from.UnixNano(), days: cfg.WindowDays, cfgHash: cfg.Hash()}
	st := s.det.get(key, 1, func() *detState { return &detState{acc: analysis.NewAccumulator(from, cfg)} })
	st.mu.Lock()
	defer st.mu.Unlock()

	// The column spans no time before the link's first point, so a
	// window far before the data folds nothing (summaries only).
	first := int64(math.MaxInt64)
	if t, _, ok := s.DB.TimeBounds("tslp", linkFilter(link, "", vp)); ok {
		first = t.UnixNano()
	}
	res, info := st.acc.Advance(col, stamp, first, func(lo, hi int64) (uint64, []tsdb.SeriesView, []tsdb.SeriesView) {
		// The epoch must describe the store the views were taken from: a
		// restore landing mid-query would pair old cursors with new
		// versions, exactly the coincidental-match hazard the epoch check
		// exists to close (docs/DETECTION.md §4). Epoch strictly
		// increases on restore, so an unchanged read on both sides
		// brackets the queries.
		from, to := time.Unix(0, lo), time.Unix(0, hi)
		for {
			epoch := s.DB.Epoch()
			far := s.DB.QueryView("tslp", linkFilter(link, "far", vp), from, to)
			near := s.DB.QueryView("tslp", linkFilter(link, "near", vp), from, to)
			if s.DB.Epoch() == epoch {
				return epoch, far, near
			}
		}
	})
	s.cols.setCost(ck, col, columnCost(ck, col.Bytes()))
	s.detFolds.Add(1)
	s.detPointsFolded.Add(uint64(info.PointsFolded))
	if info.Full {
		s.detFullRecomputes.Add(1)
	}
	if info.Unchanged {
		s.detUnchanged.Add(1)
		if st.body != nil {
			return st.body, nil
		}
	}
	resp := CongestionResponse{Recurring: res.Recurring, Reject: res.RejectReason}
	resp.Days = make([]DayJSON, 0, len(res.Days))
	for _, d := range res.Days {
		resp.Days = append(resp.Days, DayJSON{
			Day:       d.Day.Format("2006-01-02"),
			Congested: d.Congested,
			Fraction:  d.Fraction,
		})
	}
	body, err := encodeBody(resp)
	if err != nil {
		return nil, err
	}
	st.body = body
	return body, nil
}

// detectorStats snapshots the detector_incremental counters.
func (s *Server) detectorStats() DetectorStats {
	cs := s.cache.Stats()
	return DetectorStats{
		Accumulators:        s.det.len(),
		Folds:               s.detFolds.Load(),
		PointsFolded:        s.detPointsFolded.Load(),
		FullRecomputes:      s.detFullRecomputes.Load(),
		Unchanged:           s.detUnchanged.Load(),
		StaleServes:         cs.StaleServes,
		BackgroundRefreshes: cs.BackgroundRefreshes,
	}
}
