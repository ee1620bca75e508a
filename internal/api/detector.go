package api

import (
	"container/list"
	"sync"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/tsdb"
)

// This file keeps the serving tier's persistent incremental detector
// state (docs/DETECTION.md §3, §6): a bounded registry of
// analysis.Incremental accumulators, one per distinct (link, vp, window
// start, window length, config) congestion request shape. A stamp
// change used to force a full batch detector run; with the registry the
// congestion endpoint advances the matching accumulator over only the
// newly written points and re-encodes (or, when nothing changed,
// reuses) the response body.

// DefaultDetectorCapacity bounds the registry. An accumulator for the
// default 50-day window holds two 4800-bin series plus elevation state
// — tens of KB — so the bound keeps the registry well under the read
// cache's footprint.
const DefaultDetectorCapacity = 128

// detKey identifies one accumulator: the congestion request shape minus
// the stamp (the accumulator absorbs stamp movement; everything else
// changes the detector geometry or tuning and needs fresh state).
type detKey struct {
	link, vp string
	from     int64
	days     int
	cfgHash  uint64
}

// detState is one registry slot. mu serializes advances —
// analysis.Incremental is not safe for concurrent use — and body is the
// last encoded response, reused verbatim on Unchanged advances so a
// no-op stamp change serves the exact previous bytes without
// re-deriving or re-encoding (docs/DETECTION.md §4).
type detState struct {
	mu   sync.Mutex
	inc  *analysis.Incremental
	body []byte
}

// detRegistry is a bounded LRU of detector accumulators. Eviction only
// unlinks a slot from the registry: an advance holding the slot's mutex
// finishes against its private state, and the next request for that
// shape starts a fresh accumulator with a full recompute.
type detRegistry struct {
	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *detEntry
	entries map[detKey]*list.Element
}

type detEntry struct {
	key detKey
	st  *detState
}

func newDetRegistry() *detRegistry {
	return &detRegistry{ll: list.New(), entries: make(map[detKey]*list.Element)}
}

// get returns the accumulator slot for key, creating it with mk on
// first use and evicting the least recently used slot when over the
// bound.
func (r *detRegistry) get(key detKey, mk func() *analysis.Incremental) *detState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.entries[key]; ok {
		r.ll.MoveToFront(el)
		return el.Value.(*detEntry).st
	}
	st := &detState{inc: mk()}
	r.entries[key] = r.ll.PushFront(&detEntry{key: key, st: st})
	for r.ll.Len() > DefaultDetectorCapacity {
		tail := r.ll.Back()
		r.ll.Remove(tail)
		delete(r.entries, tail.Value.(*detEntry).key)
	}
	return st
}

// len returns the number of live accumulators.
func (r *detRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// DetectorStats is the detector_incremental block of /api/v1/stats
// (docs/DETECTION.md §6).
type DetectorStats struct {
	// Accumulators is the number of live incremental accumulators.
	Accumulators int `json:"accumulators"`
	// Folds counts Advance calls (every congestion compute performs
	// exactly one).
	Folds uint64 `json:"folds"`
	// PointsFolded counts view points folded into accumulators — the
	// whole window on a full recompute, only fresh points otherwise.
	PointsFolded uint64 `json:"points_folded"`
	// FullRecomputes counts advances that could not prove their folded
	// prefix unchanged and re-folded from scratch (docs/DETECTION.md §4
	// lists the triggers).
	FullRecomputes uint64 `json:"full_recomputes"`
	// Unchanged counts advances that moved no bin and reused the
	// previous encoded body verbatim.
	Unchanged uint64 `json:"unchanged"`
	// StaleServes and BackgroundRefreshes mirror the read cache's
	// stale-while-revalidate counters (docs/DETECTION.md §7): congestion
	// responses served from a superseded body, and the deduplicated
	// background recomputations that followed.
	StaleServes         uint64 `json:"stale_serves"`
	BackgroundRefreshes uint64 `json:"background_refreshes"`
}

// advanceDetector runs one congestion analysis — one detector run —
// through the registry: it fetches (or creates) the accumulator for the
// request shape, queries the contributing views under a stable restore
// epoch, advances, and returns the encoded response body — the previous
// body verbatim when the advance proves nothing changed.
func (s *Server) advanceDetector(link, vp string, from time.Time, cfg analysis.AutocorrConfig) ([]byte, error) {
	key := detKey{link: link, vp: vp, from: from.UnixNano(), days: cfg.WindowDays, cfgHash: cfg.Hash()}
	st := s.det.get(key, func() *analysis.Incremental { return analysis.NewIncremental(from, cfg) })
	st.mu.Lock()
	defer st.mu.Unlock()

	bin := 24 * time.Hour / time.Duration(cfg.BinsPerDay)
	to := from.Add(time.Duration(cfg.WindowDays*cfg.BinsPerDay) * bin)
	// The epoch must describe the store the views were taken from: a
	// restore landing mid-query would pair old cursors with new
	// versions, exactly the coincidental-match hazard the epoch check
	// exists to close (docs/DETECTION.md §4). Epoch strictly increases
	// on restore, so an unchanged read on both sides brackets the
	// queries.
	var epoch uint64
	var farViews, nearViews []tsdb.SeriesView
	for {
		epoch = s.DB.Epoch()
		farViews = s.DB.QueryView("tslp", linkFilter(link, "far", vp), from, to)
		nearViews = s.DB.QueryView("tslp", linkFilter(link, "near", vp), from, to)
		if s.DB.Epoch() == epoch {
			break
		}
	}

	res, info := st.inc.Advance(epoch, farViews, nearViews)
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
