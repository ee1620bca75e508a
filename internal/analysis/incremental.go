package analysis

// Incremental detector state (docs/DETECTION.md §3-§4): a persistent
// per-(link, config) accumulator that advances the §4.2 pipeline by
// folding only the points written since the last advance, instead of
// re-running the full-window batch job a stamp change used to force.
//
// The design leans on two facts. First, the min-fold into a bin is
// idempotent and commutative, so folding the same point set in any
// order — or any number of times — yields the same bins; incremental
// equivalence therefore reduces to proving that exactly the new points
// get folded. Second, tsdb.SeriesView exposes a per-series write
// version and time-ordered columns, so a cheap per-series cursor check
// (see foldCursor) can prove the previously folded prefix unchanged.
// Whenever the proof fails the accumulator re-folds the window from
// scratch — correctness never depends on the fast path applying.

import (
	"math"
	"sort"
	"time"

	"interdomain/internal/tsdb"
)

// foldCursor tracks how much of one contributing series has been folded
// into the accumulator. The incremental advance is valid for a series
// exactly when (docs/DETECTION.md §4):
//
//   - the view did not shrink (len >= folded), and
//   - the series' write-version advanced by exactly the number of new
//     in-window points (every mutation was an in-window append; Retain
//     trims, out-of-window writes, and out-of-order inserts all break
//     the equality), and
//   - the number of view points at or before the last folded timestamp
//     is unchanged (no insert or trim disturbed the folded prefix —
//     checked by one binary search, not a scan).
//
// When the checks pass, tsdb's insert invariant (equal-or-later
// timestamps append; only strictly-earlier points insert mid-array)
// guarantees the unfolded suffix holds strictly-newer points only.
type foldCursor struct {
	version uint64 // series write-version at the last fold
	folded  int    // in-window view points folded so far
	maxTime int64  // Unix-ns timestamp of the last folded point
}

// AdvanceInfo reports what one Incremental.Advance call did; the
// serving tier aggregates these into the detector_incremental counters
// of /api/v1/stats (docs/DETECTION.md §6).
type AdvanceInfo struct {
	// Full reports that the accumulator could not prove the previously
	// folded data unchanged and re-folded the window from scratch
	// (docs/DETECTION.md §4 lists the triggers).
	Full bool
	// PointsFolded is the number of view points folded: every point on
	// a full recompute, only the new ones otherwise.
	PointsFolded int
	// BinsChanged is the number of bins whose min moved this advance.
	BinsChanged int
	// Unchanged reports that no bin changed, so the returned result is
	// the previous one verbatim and no derivation ran.
	Unchanged bool
}

// Incremental is the persistent accumulator behind one (link, vp,
// window, config) congestion analysis: the far/near min-filter bins,
// the shared elevation state batch Autocorrelation uses, per-series
// fold cursors, and an advisory online CUSUM over settled far bins.
// Advance folds fresh tsdb views into it and returns a result equal to
// what batch Autocorrelation would produce over the same views —
// byte-identical once encoded, which the equivalence tests assert
// across random write schedules, restarts, and retention trims.
//
// An Incremental is not safe for concurrent use; the serving tier
// serializes advances per accumulator (api.detRegistry).
type Incremental struct {
	cfg   AutocorrConfig
	start time.Time

	far, near       *BinSeries
	st              *elevState
	farCur, nearCur map[string]*foldCursor
	epoch           uint64
	res             *AutocorrResult

	// dirty collects the absolute bin indexes whose value moved during
	// an incremental fold; dirtyMark dedups marks without allocation.
	dirty     []int
	dirtyMark []bool

	// cusum watches settled far bins for a level-shift onset (§4.1);
	// fed is the next bin index to feed it (docs/DETECTION.md §5).
	cusum *OnlineCUSUM
	fed   int
}

// NewIncremental returns an empty accumulator for a window of
// cfg.WindowDays whole days starting at start, binned at cfg.BinsPerDay
// — the same geometry batch Autocorrelation expects.
func NewIncremental(start time.Time, cfg AutocorrConfig) *Incremental {
	B, D := cfg.BinsPerDay, cfg.WindowDays
	n := B * D
	bin := 24 * time.Hour / time.Duration(B)
	return &Incremental{
		cfg:       cfg,
		start:     start,
		far:       NewBinSeries(start, bin, n),
		near:      NewBinSeries(start, bin, n),
		st:        newElevState(B, D, cfg.ThresholdMs),
		farCur:    map[string]*foldCursor{},
		nearCur:   map[string]*foldCursor{},
		dirtyMark: make([]bool, n),
		cusum:     newWindowCUSUM(cfg),
	}
}

// Config returns the detector configuration the accumulator was built
// for; results are only valid against the matching AutocorrConfig.Hash.
func (inc *Incremental) Config() AutocorrConfig { return inc.cfg }

// Start returns the window start the accumulator bins against.
func (inc *Incremental) Start() time.Time { return inc.start }

// Advance folds the current far/near views into the accumulator and
// returns the refreshed detector result. epoch is the store's restore
// epoch (tsdb.DB.Epoch): when it moved, per-series versions restarted
// and every cursor is distrusted, forcing a full recompute. The views
// must cover exactly the accumulator's window (the serving tier queries
// [start, start+WindowDays)). The returned result is immutable; on
// Unchanged advances it is the previous result verbatim.
func (inc *Incremental) Advance(epoch uint64, far, near []tsdb.SeriesView) (*AutocorrResult, AdvanceInfo) {
	var info AdvanceInfo
	full := inc.res == nil || epoch != inc.epoch ||
		!cursorsValid(inc.farCur, far) || !cursorsValid(inc.nearCur, near)
	inc.epoch = epoch
	if full {
		info.Full = true
		inc.reset()
		info.PointsFolded = inc.foldSide(far, inc.far, inc.farCur, true) +
			inc.foldSide(near, inc.near, inc.nearCur, false)
		inc.clearDirty()
		inc.st.rebuild(inc.far, inc.near)
		inc.res = inc.st.derive(inc.start, inc.cfg)
		inc.feedCUSUM()
		return inc.res, info
	}

	oldMinFar, oldMinNear := inc.st.minFar, inc.st.minNear
	info.PointsFolded = inc.foldSide(far, inc.far, inc.farCur, true) +
		inc.foldSide(near, inc.near, inc.nearCur, false)
	info.BinsChanged = len(inc.dirty)
	if len(inc.dirty) == 0 {
		// No bin moved: the previous result — and its encoded body —
		// still hold verbatim (docs/DETECTION.md §4).
		info.Unchanged = true
		inc.feedCUSUM()
		return inc.res, info
	}
	if inc.st.minFar < oldMinFar || inc.st.minNear < oldMinNear {
		// A window minimum moved: the elevation thresholds shifted under
		// every bin, so patching the dirty set is not enough.
		inc.st.rebuild(inc.far, inc.near)
	} else {
		for _, i := range inc.dirty {
			inc.st.update(inc.far, inc.near, i)
		}
	}
	inc.clearDirty()
	inc.res = inc.st.derive(inc.start, inc.cfg)
	inc.feedCUSUM()
	return inc.res, info
}

// cursorsValid proves the folded prefix of every cursor-tracked series
// unchanged against fresh views (see foldCursor for the conditions). A
// view without a cursor is a new series and always safe: min-folding
// its whole view commutes with everything already folded. A cursor
// whose series vanished from the views means folded data was removed,
// which a min-filter cannot unfold — full recompute.
func cursorsValid(cur map[string]*foldCursor, views []tsdb.SeriesView) bool {
	matched := 0
	for i := range views {
		v := &views[i]
		c, ok := cur[tsdb.Key(v.Measurement, v.Tags)]
		if !ok {
			continue
		}
		matched++
		n := v.Len()
		if n < c.folded {
			return false
		}
		if v.Version != c.version+uint64(n-c.folded) {
			return false
		}
		if countLE(v.Times, c.maxTime) != c.folded {
			return false
		}
	}
	return matched == len(cur)
}

// countLE returns how many leading entries of the ascending times are
// at or before t.
func countLE(times []int64, t int64) int {
	return sort.Search(len(times), func(i int) bool { return times[i] > t })
}

// foldSide folds every unfolded view point of one side into its bins
// and refreshes the cursors. On the incremental path the cursor checks
// have already proven that Times[folded:] holds exactly the new points.
//
// A point's bin is its offset from bins.Start over the interval,
// truncated — the division BinSeries.ObserveNanos does, so both paths
// bin every sample identically, a point less than one interval before
// Start landing in bin 0 with it. A view's times ascend, so the edges
// [lo, hi) of the last bin are kept: a point inside them, or in the bin
// after, costs no division.
func (inc *Incremental) foldSide(views []tsdb.SeriesView, bins *BinSeries, cur map[string]*foldCursor, isFar bool) int {
	folded := 0
	startNs, interval := bins.Start.UnixNano(), int64(bins.Interval)
	for vi := range views {
		v := &views[vi]
		key := tsdb.Key(v.Measurement, v.Tags)
		c, ok := cur[key]
		if !ok {
			c = &foldCursor{}
			cur[key] = c
		}
		var idx int
		var lo, hi int64 // no bin yet: every offset is outside [0, 0)
		times, values := v.Times[c.folded:], v.Values[c.folded:]
		for i, ns := range times {
			switch off := ns - startNs; {
			case lo <= off && off < hi:
			case 0 < hi && hi <= off && off < hi+interval:
				idx, lo, hi = idx+1, hi, hi+interval
			default:
				idx = int(off / interval)
				lo, hi = 0, 0
				if off >= 0 {
					lo = int64(idx) * interval
					hi = lo + interval
				}
			}
			inc.fold(bins, idx, values[i], isFar)
		}
		folded += len(times)
		c.version = v.Version
		c.folded = len(v.Times)
		c.maxTime = v.Times[len(v.Times)-1]
	}
	return folded
}

// fold min-folds one point into bin idx — skipped when that is outside
// the window — tracking dirty bins, per-day far presence, and the
// running window minima.
func (inc *Incremental) fold(bins *BinSeries, idx int, val float64, isFar bool) {
	if idx < 0 || idx >= len(bins.Values) {
		return
	}
	old := bins.Values[idx]
	if math.IsNaN(old) {
		if isFar {
			inc.st.present[idx/inc.st.B]++
		}
	} else if val >= old {
		return
	}
	bins.Values[idx] = val
	if isFar {
		if val < inc.st.minFar {
			inc.st.minFar = val
		}
	} else if val < inc.st.minNear {
		inc.st.minNear = val
	}
	if !inc.dirtyMark[idx] {
		inc.dirtyMark[idx] = true
		inc.dirty = append(inc.dirty, idx)
	}
}

// reset empties the accumulator for a full re-fold: bins back to
// all-missing, cursors dropped, the CUSUM replayed from bin zero.
func (inc *Incremental) reset() {
	for i := range inc.far.Values {
		inc.far.Values[i] = math.NaN()
	}
	for i := range inc.near.Values {
		inc.near.Values[i] = math.NaN()
	}
	clear(inc.farCur)
	clear(inc.nearCur)
	inc.clearDirty()
	inc.cusum = newWindowCUSUM(inc.cfg)
	inc.fed = 0
}

// clearDirty resets the dirty-bin marks without freeing the buffers.
func (inc *Incremental) clearDirty() {
	for _, i := range inc.dirty {
		inc.dirtyMark[i] = false
	}
	inc.dirty = inc.dirty[:0]
}

// newWindowCUSUM tunes the advisory onset detector off the elevation
// threshold: a shift has to sustain half the §4.2 elevation margin to
// accumulate, and four margins of accumulated excess raise the alarm
// (docs/DETECTION.md §5).
func newWindowCUSUM(cfg AutocorrConfig) *OnlineCUSUM {
	return NewOnlineCUSUM(cfg.ThresholdMs/2, 4*cfg.ThresholdMs)
}

// feedCUSUM feeds settled far bins — bins strictly before the one
// holding the newest folded far point, which can still change as more
// samples of its interval arrive — to the advisory onset detector.
func (inc *Incremental) feedCUSUM() {
	var maxT int64 = math.MinInt64
	any := false
	for _, c := range inc.farCur {
		if c.maxTime > maxT {
			maxT, any = c.maxTime, true
		}
	}
	if !any {
		return
	}
	settled := int((maxT - inc.far.Start.UnixNano()) / int64(inc.far.Interval))
	if settled > len(inc.far.Values) {
		settled = len(inc.far.Values)
	}
	for ; inc.fed < settled; inc.fed++ {
		inc.cusum.Observe(inc.far.Values[inc.fed])
	}
}

// CUSUMState is a snapshot of the advisory online onset detector
// (docs/DETECTION.md §5). It is operational signal only — never part
// of encoded congestion bodies, so it carries no equivalence guarantee
// against a batch replay.
type CUSUMState struct {
	// Alarmed reports an active positive excursion beyond the threshold.
	Alarmed bool
	// OnsetBin is the bin index where the active excursion began, or -1.
	OnsetBin int
	// Excess is the accumulated positive excursion (ms above
	// target+slack).
	Excess float64
	// FedBins is how many settled bins have been consumed.
	FedBins int
}

// CUSUM returns the advisory onset detector's current state.
func (inc *Incremental) CUSUM() CUSUMState {
	return CUSUMState{
		Alarmed:  inc.cusum.Alarmed(),
		OnsetBin: inc.cusum.Onset(),
		Excess:   inc.cusum.Excess(),
		FedBins:  inc.fed,
	}
}
