package analysis

// Incremental detector state (docs/DETECTION.md §3-§4), split in two.
//
// A BinColumn holds one link's far and near min-filter bins on one bin
// grid, shared by every window that reads that grid: each stored point
// is min-folded into it once, however many (from, days) windows cover
// it. An Accumulator is one window's §4.2 state — its elevation matrix
// and its last result — brought up to date from a column by copying
// the window's slice of bins, not by folding points.
//
// The design leans on two facts. First, the min-fold into a bin is
// idempotent and commutative, so folding the same point set in any
// order — or any number of times — yields the same bins; incremental
// equivalence therefore reduces to proving that exactly the new points
// get folded. Second, tsdb.SeriesView exposes a per-series write
// version and time-ordered columns, so a cheap per-series cursor check
// (see foldCursor) can prove the previously folded prefix unchanged.
// Whenever the proof fails the column re-folds its span from scratch
// and every window over it rebuilds — correctness never depends on the
// fast path applying.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"interdomain/internal/tsdb"
)

// foldCursor tracks how much of one contributing series has been folded
// into a column. The incremental fold is valid for a series exactly
// when (docs/DETECTION.md §4), over the column's previous span:
//
//   - the view did not shrink (len >= folded), and
//   - the series' write-version advanced by exactly the number of new
//     in-span points (every mutation was an in-span append; Retain
//     trims, out-of-span writes, and out-of-order inserts all break
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
	folded  int    // in-span view points folded so far
	maxTime int64  // Unix-ns time of the last folded point; MinInt64: none
}

// AdvanceInfo reports what one detector run did; the serving tier
// aggregates these into the detector_incremental counters of
// /api/v1/stats (docs/DETECTION.md §6).
type AdvanceInfo struct {
	// Full reports that the window's state was built from scratch: the
	// window is new, or its column re-folded (docs/DETECTION.md §4
	// lists the triggers).
	Full bool
	// PointsFolded is the number of view points folded into the
	// column: every point of its span on a re-fold, only the new ones
	// otherwise, none when the column was already current.
	PointsFolded int
	// BinsChanged is the number of the window's bins whose min moved.
	BinsChanged int
	// Unchanged reports that no bin of the window changed, so the
	// returned result is the previous one verbatim and no derivation
	// ran.
	Unchanged bool
}

// incarnations numbers column folds from scratch process-wide, so a
// window can tell its column re-folded — or was replaced by a new
// column — by one comparison.
var incarnations atomic.Uint64

// BinColumn is the shared min-filter bins of one (link, vp) pair on one
// bin grid: bin k covers [phase+k·width, phase+(k+1)·width) in Unix ns
// (docs/DETECTION.md §3). It has folded every stored point inside its
// span, the hull of the data-holding parts of the windows read from it
// that are still live; it allocates bins only between the first and the
// last point it folded, so a window far from the data costs no memory.
// A BinColumn is safe for concurrent use.
type BinColumn struct {
	mu sync.Mutex

	width, phase int64
	// lo and hi bound the span [lo, hi); folded reports that the span
	// is non-empty and folded.
	lo, hi int64
	folded bool
	// base is the grid index of far[0] and near[0], which always have
	// the same length; NaN marks a bin with no samples.
	base      int64
	far, near []float64

	farCur, nearCur map[string]*foldCursor
	epoch           uint64
	// stamp is the tsdb.ViewStamp the last refresh was asked under.
	stamp uint64
	// live counts the windows of the open Accumulators over the column;
	// once the store moves, the span drops what none of them reads.
	live map[[2]int64]int

	// inc identifies the current fold from scratch; gen moves whenever
	// a bin changes. changed collects bin moves during one fold.
	inc, gen uint64
	changed  bool
}

// NewBinColumn returns an empty column on the grid of bin width whose
// bins start at phase (mod width) nanoseconds.
func NewBinColumn(width time.Duration, phase int64) *BinColumn {
	w := int64(width)
	return &BinColumn{
		width:   w,
		phase:   floorMod(phase, w),
		farCur:  map[string]*foldCursor{},
		nearCur: map[string]*foldCursor{},
		live:    map[[2]int64]int{},
		inc:     incarnations.Add(1),
	}
}

// GridPhase returns the grid phase of a window starting at t with bins
// of width: the column a window reads is the one with its phase.
func GridPhase(t time.Time, width time.Duration) int64 {
	return floorMod(t.UnixNano(), int64(width))
}

// Bytes returns the memory the column's bins hold: 16 bytes a bin.
func (c *BinColumn) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 8 * (len(c.far) + len(c.near))
}

// refresh brings the column up to date for a window's data-holding
// part [lo, hi) (Unix ns; empty when lo >= hi) and returns the points
// it folded. stamp is the tsdb.ViewStamp of the column's series as the
// caller read it: while it is the stamp of the last refresh the store
// has not moved, so a window inside the span needs no view at all.
// Otherwise the span is grown to cover the window — after a store move,
// first shrunk to what the live windows read — and views over it are
// folded under the cursor proof (docs/DETECTION.md §3-§4). Shrinking
// re-folds from scratch. The caller holds c.mu.
func (c *BinColumn) refresh(stamp uint64, lo, hi int64, views func(lo, hi int64) (epoch uint64, far, near []tsdb.SeriesView)) int {
	if c.folded {
		if c.stamp == stamp && (lo >= hi || lo >= c.lo && hi <= c.hi) {
			return 0
		}
		keepLo, keepHi := c.lo, c.hi
		if c.stamp != stamp {
			keepLo, keepHi = c.liveSpan()
		}
		if keepLo > c.lo || keepHi < c.hi {
			c.reset()
		}
		lo, hi = hull(lo, hi, keepLo, keepHi)
	}
	if lo >= hi {
		return 0
	}
	epoch, far, near := views(lo, hi)
	c.stamp = stamp
	return c.fold(epoch, lo, hi, far, near)
}

// liveSpan returns the hull of the parts of the span the live windows
// read; empty (lo >= hi) when they read none of it.
func (c *BinColumn) liveSpan() (lo, hi int64) {
	for w := range c.live {
		lo, hi = hull(lo, hi, max(w[0], c.lo), min(w[1], c.hi))
	}
	return lo, hi
}

// hull returns the smallest span holding [alo, ahi) and [blo, bhi),
// either of which may be empty (lo >= hi).
func hull(alo, ahi, blo, bhi int64) (lo, hi int64) {
	switch {
	case alo >= ahi:
		return blo, bhi
	case blo >= bhi:
		return alo, ahi
	}
	return min(alo, blo), max(ahi, bhi)
}

// fold folds views taken under epoch over [lo, hi), which contains the
// span, and makes [lo, hi) the span; view points outside it are not
// folded. Every point of a view is new to the column unless its
// series' cursor proves it folded, and the proof failing for any
// series — or a moved epoch — re-folds from scratch.
func (c *BinColumn) fold(epoch uint64, lo, hi int64, far, near []tsdb.SeriesView) int {
	if !c.folded || epoch != c.epoch ||
		!c.provable(c.farCur, far) || !c.provable(c.nearCur, near) {
		c.reset()
	}
	n := c.foldSide(c.farCur, far, true, lo, hi) + c.foldSide(c.nearCur, near, false, lo, hi)
	c.lo, c.hi, c.epoch, c.folded = lo, hi, epoch, true
	c.commit()
	return n
}

// provable checks every cursor-tracked series against its fresh view,
// restricted to the column's current span (see foldCursor for the
// conditions). A view without a cursor is a series with nothing folded
// and always safe: min-folding its whole view commutes with everything
// already folded. A cursor whose series vanished from the views means
// folded data was removed, which a min-filter cannot unfold.
func (c *BinColumn) provable(cur map[string]*foldCursor, views []tsdb.SeriesView) bool {
	matched := 0
	for i := range views {
		v := &views[i]
		fc, ok := cur[tsdb.Key(v.Measurement, v.Tags)]
		if !ok {
			continue
		}
		matched++
		a, b := between(v.Times, c.lo, c.hi)
		n := b - a
		if n < fc.folded ||
			v.Version != fc.version+uint64(n-fc.folded) ||
			countLE(v.Times[a:b], fc.maxTime) != fc.folded {
			return false
		}
	}
	return matched == len(cur)
}

// between returns the index range of the ascending times inside
// [lo, hi).
func between(times []int64, lo, hi int64) (a, b int) {
	if len(times) > 0 && times[0] >= lo && times[len(times)-1] < hi {
		return 0, len(times) // the common case: the view is the span's
	}
	a = sort.Search(len(times), func(i int) bool { return times[i] >= lo })
	b = sort.Search(len(times), func(i int) bool { return times[i] >= hi })
	return a, max(a, b)
}

// countLE returns how many leading entries of the ascending times are
// at or before t.
func countLE(times []int64, t int64) int {
	return sort.Search(len(times), func(i int) bool { return times[i] > t })
}

// foldSide folds every unfolded point of one side's views inside the
// new span [lo, hi) and moves the cursors to it: the parts outside the
// current span, and the new suffix of the part inside it (a series
// without a cursor has nothing folded, so all of it).
func (c *BinColumn) foldSide(cur map[string]*foldCursor, views []tsdb.SeriesView, isFar bool, lo, hi int64) int {
	n := 0
	for i := range views {
		v := &views[i]
		key := tsdb.Key(v.Measurement, v.Tags)
		l, r := between(v.Times, lo, hi)
		// [l, s) before the current span; [a, b) the new suffix inside
		// it; [b, r) after it. Without a cursor s, a and b are l:
		// everything.
		s, a, b := l, l, l
		fc, ok := cur[key]
		if ok {
			s, b = between(v.Times, c.lo, c.hi)
			a = s + fc.folded
		} else {
			fc = &foldCursor{}
			cur[key] = fc
		}
		n += c.foldRun(v.Times[l:s], v.Values[l:s], isFar) +
			c.foldRun(v.Times[a:b], v.Values[a:b], isFar) +
			c.foldRun(v.Times[b:r], v.Values[b:r], isFar)
		fc.version, fc.folded, fc.maxTime = v.Version, r-l, math.MinInt64
		if r > l {
			fc.maxTime = v.Times[r-1]
		}
	}
	return n
}

// foldRun min-folds one ascending run of points into a side's bins. A
// point's bin is its grid index, floor((ns-phase)/width). A run's times
// ascend, so the edges [lo, hi) of the last bin are kept: a point
// inside them, or in the bin after, costs no division.
func (c *BinColumn) foldRun(times []int64, values []float64, isFar bool) int {
	if len(times) == 0 {
		return 0
	}
	c.ensure(c.index(times[0]), c.index(times[len(times)-1]))
	bins := c.near
	if isFar {
		bins = c.far
	}
	origin := c.phase + c.base*c.width
	idx, lo, hi := -1, -c.width, int64(0)
	for i, ns := range times {
		switch off := ns - origin; {
		case lo <= off && off < hi:
		case hi <= off && off < hi+c.width:
			idx, lo, hi = idx+1, hi, hi+c.width
		default:
			idx = int(off / c.width)
			lo = int64(idx) * c.width
			hi = lo + c.width
		}
		// The fold BinSeries.ObserveNanos does: a NaN sample never
		// replaces a value.
		if v, old := values[i], bins[idx]; v < old || (math.IsNaN(old) && !math.IsNaN(v)) {
			bins[idx] = v
			c.changed = true
		}
	}
	return len(times)
}

// index returns the grid index of the bin holding ns.
func (c *BinColumn) index(ns int64) int64 { return floorDiv(ns-c.phase, c.width) }

// ensure allocates missing bins so that grid indexes [kmin, kmax] are
// addressable, reallocating to exactly the bins needed.
func (c *BinColumn) ensure(kmin, kmax int64) {
	if n := int64(len(c.far)); n > 0 {
		if kmin >= c.base && kmax < c.base+n {
			return
		}
		kmin, kmax = min(kmin, c.base), max(kmax, c.base+n-1)
	} else {
		c.base = kmin
	}
	far, near := nanBins(kmax-kmin+1), nanBins(kmax-kmin+1)
	copy(far[c.base-kmin:], c.far)
	copy(near[c.base-kmin:], c.near)
	c.far, c.near, c.base = far, near, kmin
}

// reset empties the column for a fold from scratch under a new
// incarnation.
func (c *BinColumn) reset() {
	c.folded = false
	c.far, c.near, c.base = nil, nil, 0
	clear(c.farCur)
	clear(c.nearCur)
	c.inc = incarnations.Add(1)
}

// commit publishes the bin moves of one fold to the windows.
func (c *BinColumn) commit() {
	if c.changed {
		c.gen++
		c.changed = false
	}
}

// slice copies the column's side bins at grid indexes [k0, k0+len(dst))
// into dst, NaN where the column holds none.
func (c *BinColumn) slice(dst []float64, k0 int64, isFar bool) {
	src := c.near
	if isFar {
		src = c.far
	}
	for i := range dst {
		dst[i] = math.NaN()
	}
	if a, b := c.overlap(k0, len(dst)); a < b {
		copy(dst[a-k0:b-k0], src[a-c.base:b-c.base])
	}
}

// overlap returns the grid indexes [a, b) both the window of n bins at
// k0 and the allocated bins cover (a == b when they are disjoint).
func (c *BinColumn) overlap(k0 int64, n int) (a, b int64) {
	a = max(k0, c.base)
	b = min(k0+int64(n), c.base+int64(len(c.far)))
	if b < a {
		b = a
	}
	return a, b
}

// nanBins returns n missing bins.
func nanBins(n int64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// floorDiv is a/b rounded toward negative infinity, for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// floorMod is a mod b in [0, b), for b > 0.
func floorMod(a, b int64) int64 { return a - floorDiv(a, b)*b }

// Accumulator is the persistent §4.2 state of one (from, days, config)
// window over a BinColumn: private copies of the window's far/near
// bins, the elevation state batch Autocorrelation uses, and the last
// result. Advance brings it up to date from the column and returns a
// result equal to what batch Autocorrelation would produce over the
// window's stored points — byte-identical once encoded, which the
// equivalence tests assert across random write schedules, restarts,
// and retention trims.
//
// An Accumulator is not safe for concurrent use; the serving tier
// serializes advances per accumulator.
type Accumulator struct {
	cfg   AutocorrConfig
	start time.Time
	// window is [lo, hi) of the window in Unix ns; col is the column it
	// is counted live in until Close.
	window [2]int64
	col    *BinColumn
	closed bool

	far, near *BinSeries
	st        *elevState
	res       *AutocorrResult
	// inc and gen are the column's incarnation and change generation
	// the copies were last brought up to.
	inc, gen uint64
	dirty    []int
}

// NewAccumulator returns an empty accumulator for a window of
// cfg.WindowDays whole days starting at start, binned at cfg.BinsPerDay
// — the same geometry batch Autocorrelation expects.
func NewAccumulator(start time.Time, cfg AutocorrConfig) *Accumulator {
	B, D := cfg.BinsPerDay, cfg.WindowDays
	n := B * D
	lo, hi := WindowSpan(start, cfg)
	return &Accumulator{
		cfg:    cfg,
		start:  start,
		window: [2]int64{lo, hi},
		far:    NewBinSeries(start, cfg.BinWidth(), n),
		near:   NewBinSeries(start, cfg.BinWidth(), n),
		st:     newElevState(B, D, cfg.ThresholdMs),
	}
}

// Advance refreshes c for the window and brings the window up to date
// from it, returning the detector result. c must be on the window's
// grid (GridPhase of its start, its bin width). stamp is the
// tsdb.ViewStamp of the window's series as the caller read it, first
// the Unix-ns time of their earliest point (math.MaxInt64 when there is
// none): the column never spans time before it. views returns the far
// and near views over [lo, hi) with the store's restore epoch, read so
// that it describes the store the views were taken from
// (docs/DETECTION.md §4); it is not called while stamp is the one c was
// last refreshed under and c already spans the window.
//
// A new window, or one whose column re-folded since, copies its bins
// and rebuilds; a window whose column moved no bin returns the previous
// result verbatim (Unchanged); otherwise only the window's bins that
// moved are re-evaluated. The returned result is immutable.
func (a *Accumulator) Advance(c *BinColumn, stamp uint64, first int64, views func(lo, hi int64) (epoch uint64, far, near []tsdb.SeriesView)) (*AutocorrResult, AdvanceInfo) {
	if a.col != c {
		a.detach()
	}
	c.mu.Lock()
	if a.col != c && !a.closed {
		c.live[a.window]++
		a.col = c
	}
	info := AdvanceInfo{PointsFolded: c.refresh(stamp, max(a.window[0], first), a.window[1], views)}
	k0 := c.index(a.start.UnixNano())
	if a.res == nil || a.inc != c.inc {
		c.slice(a.far.Values, k0, true)
		c.slice(a.near.Values, k0, false)
		a.inc, a.gen = c.inc, c.gen
		c.mu.Unlock()
		a.st.rebuild(a.far, a.near)
		a.res = a.st.derive(a.start, a.cfg)
		info.Full = true
		return a.res, info
	}
	if a.gen == c.gen {
		c.mu.Unlock()
		info.Unchanged = true
		return a.res, info
	}
	oldMinFar, oldMinNear := a.st.minFar, a.st.minNear
	a.pull(c, k0)
	a.gen = c.gen
	c.mu.Unlock()

	info.BinsChanged = len(a.dirty)
	if len(a.dirty) == 0 {
		// No bin of the window moved: the previous result — and its
		// encoded body — still hold verbatim (docs/DETECTION.md §4).
		info.Unchanged = true
		return a.res, info
	}
	if a.st.minFar < oldMinFar || a.st.minNear < oldMinNear {
		// A window minimum moved: the elevation thresholds shifted under
		// every bin, so patching the dirty set is not enough.
		a.st.rebuild(a.far, a.near)
	} else {
		for _, i := range a.dirty {
			a.st.update(a.far, a.near, i)
		}
	}
	a.res = a.st.derive(a.start, a.cfg)
	return a.res, info
}

// Close stops counting the window live in its column, so the column's
// span may drop the time only it read (docs/DETECTION.md §3). A closed
// Accumulator still advances correctly.
func (a *Accumulator) Close() {
	a.closed = true
	a.detach()
}

// detach uncounts the window from its column.
func (a *Accumulator) detach() {
	if a.col == nil {
		return
	}
	a.col.mu.Lock()
	if a.col.live[a.window]--; a.col.live[a.window] == 0 {
		delete(a.col.live, a.window)
	}
	a.col.mu.Unlock()
	a.col = nil
}

// pull copies the window's bins that moved in the column since the
// last advance, collecting them in dirty and keeping per-day far
// presence and the window minima current. Within one incarnation a
// column bin only ever goes from missing to a value or decreases, and
// the window's bins outside the allocated ones stay missing.
func (a *Accumulator) pull(c *BinColumn, k0 int64) {
	a.dirty = a.dirty[:0]
	lo, hi := c.overlap(k0, a.far.Len())
	for k := lo; k < hi; k++ {
		i, j := int(k-k0), int(k-c.base)
		moved := false
		if v, old := c.far[j], a.far.Values[i]; v != old && !math.IsNaN(v) {
			if math.IsNaN(old) {
				a.st.present[i/a.st.B]++
			}
			a.far.Values[i] = v
			a.st.minFar = min(a.st.minFar, v)
			moved = true
		}
		if v, old := c.near[j], a.near.Values[i]; v != old && !math.IsNaN(v) {
			a.near.Values[i] = v
			a.st.minNear = min(a.st.minNear, v)
			moved = true
		}
		if moved {
			a.dirty = append(a.dirty, i)
		}
	}
}

// Incremental is the accumulator behind one (link, vp, window, config)
// analysis fed by views: a private BinColumn plus one Accumulator over
// it. The serving tier shares columns across windows instead
// (docs/DETECTION.md §3); Incremental is the single-window form the
// layer probes and the batch ≡ incremental suite drive.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	col *BinColumn
	acc *Accumulator
	// calls stands in for the view stamp: every Advance folds.
	calls uint64
}

// NewIncremental returns an empty accumulator for a window of
// cfg.WindowDays whole days starting at start, binned at cfg.BinsPerDay
// — the same geometry batch Autocorrelation expects.
func NewIncremental(start time.Time, cfg AutocorrConfig) *Incremental {
	return &Incremental{
		col: NewBinColumn(cfg.BinWidth(), start.UnixNano()),
		acc: NewAccumulator(start, cfg),
	}
}

// WindowSpan returns the Unix-ns bounds [lo, hi) of the window of
// cfg.WindowDays days starting at start, hi saturating at the end of
// the int64 range.
func WindowSpan(start time.Time, cfg AutocorrConfig) (lo, hi int64) {
	lo = start.UnixNano()
	hi = lo + int64(cfg.WindowDays*cfg.BinsPerDay)*int64(cfg.BinWidth())
	if hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}

// Advance folds the current far/near views into the accumulator and
// returns the refreshed detector result. epoch is the store's restore
// epoch (tsdb.DB.Epoch): when it moved, per-series versions restarted
// and every cursor is distrusted, forcing a full recompute. The views
// should cover the accumulator's window (the serving tier queries
// [start, start+WindowDays)); their points outside it are not folded —
// unlike BinSeries.ObserveNanos, which puts a point less than one bin
// before start into bin 0. The returned result is immutable; on
// Unchanged advances it is the previous result verbatim.
func (inc *Incremental) Advance(epoch uint64, far, near []tsdb.SeriesView) (*AutocorrResult, AdvanceInfo) {
	inc.calls++
	return inc.acc.Advance(inc.col, inc.calls, math.MinInt64, func(int64, int64) (uint64, []tsdb.SeriesView, []tsdb.SeriesView) {
		return epoch, far, near
	})
}
