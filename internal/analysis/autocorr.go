package analysis

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// AutocorrConfig parameterizes the autocorrelation method (§4.2).
type AutocorrConfig struct {
	// WindowDays is the analysis window (paper: 50 days).
	WindowDays int
	// BinsPerDay is the aggregation granularity (paper: 96 = 15 min).
	BinsPerDay int
	// ThresholdMs is the elevation threshold above the window's minimum
	// RTT (paper: 7 ms).
	ThresholdMs float64
	// MinPeakDays is the minimum number of days that must contribute
	// elevated latency at the peak interval before recurrence is
	// considered at all.
	MinPeakDays int
	// SufficientFrac: intervals adjacent to the peak join the recurring
	// window when at least SufficientFrac of the peak's day count
	// contributes there (default 0.5).
	SufficientFrac float64
	// MinDayCoverage is the minimum fraction of bins with data a day
	// needs to be classified (default 0.5).
	MinDayCoverage float64
}

// Hash fingerprints the configuration for cache keys: two configs hash
// equal exactly when every field is bit-equal, so the serving tier's
// memoized detector results (internal/readcache, docs/SERVING.md §2)
// can never be served under a different tuning than they were computed
// with.
func (c AutocorrConfig) Hash() uint64 {
	h := fnv.New64a()
	for _, v := range []uint64{
		uint64(c.WindowDays),
		uint64(c.BinsPerDay),
		math.Float64bits(c.ThresholdMs),
		uint64(c.MinPeakDays),
		math.Float64bits(c.SufficientFrac),
		math.Float64bits(c.MinDayCoverage),
	} {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// BinWidth returns the width of one bin: a day over BinsPerDay.
func (c AutocorrConfig) BinWidth() time.Duration {
	return 24 * time.Hour / time.Duration(c.BinsPerDay)
}

// DefaultAutocorr returns the paper's tuning.
func DefaultAutocorr() AutocorrConfig {
	return AutocorrConfig{
		WindowDays:     50,
		BinsPerDay:     96,
		ThresholdMs:    7,
		MinPeakDays:    5,
		SufficientFrac: 0.5,
		MinDayCoverage: 0.5,
	}
}

// DayResult classifies one day of one link from one VP.
type DayResult struct {
	Day time.Time
	// Classified is false when the day lacked enough data.
	Classified bool
	// Congested reports whether any 15-minute interval within the
	// recurring congestion window was elevated this day.
	Congested bool
	// Fraction is the day-link congestion percentage (elevated intervals
	// in the recurring window / BinsPerDay), in [0, 1].
	Fraction float64
}

// AutocorrResult is the outcome of the recurrence analysis for one
// (VP, link) pair over the window.
type AutocorrResult struct {
	// Recurring reports whether the link shows recurring diurnal
	// congestion at all.
	Recurring bool
	// RejectReason explains a false-positive rejection (empty when
	// Recurring or when there was simply no elevation).
	RejectReason string
	// WindowBins marks the bins-of-day inside the recurring congestion
	// window.
	WindowBins []bool
	// DayCounts[b] is the number of days with elevated latency in
	// bin-of-day b (after near-side exclusion).
	DayCounts []int
	// Days holds the per-day classification.
	Days []DayResult
	// MinRTT and Threshold document the elevation baseline (ms).
	MinRTT, Threshold float64
	// Elevated[d][b] is the raw elevation matrix (far elevated, near
	// not), exposed for validation comparisons.
	Elevated [][]bool

	dayCoverage []float64
}

// CongestedAt reports the binary 15-minute classification the validation
// analyses (§5) compare loss/throughput/streaming metrics against: t is
// congested when its day is congested and its bin-of-day lies in the
// recurring window and was elevated that day.
func (r *AutocorrResult) CongestedAt(t time.Time, start time.Time, interval time.Duration, binsPerDay int) bool {
	if !r.Recurring {
		return false
	}
	idx := int(t.Sub(start) / interval)
	if idx < 0 {
		return false
	}
	d, b := idx/binsPerDay, idx%binsPerDay
	if d >= len(r.Elevated) {
		return false
	}
	return r.WindowBins[b] && r.Elevated[d][b]
}

// Autocorrelation runs the §4.2 method. far and near are min-filtered
// series at BinsPerDay resolution covering cfg.WindowDays whole days and
// sharing Start/Interval. The batch path rebuilds the elevation state
// from scratch on every call; an Accumulator (docs/DETECTION.md §3)
// maintains the same state across advances and shares the derivation,
// which is what makes the two paths result-identical by construction.
func Autocorrelation(far, near *BinSeries, cfg AutocorrConfig) (*AutocorrResult, error) {
	B, D := cfg.BinsPerDay, cfg.WindowDays
	if far.Len() < B*D {
		return nil, fmt.Errorf("analysis: far series has %d bins, need %d", far.Len(), B*D)
	}
	if near != nil && near.Len() < B*D {
		return nil, fmt.Errorf("analysis: near series has %d bins, need %d", near.Len(), B*D)
	}
	st := newElevState(B, D, cfg.ThresholdMs)
	st.rebuild(far, near)
	return st.derive(far.Start, cfg), nil
}

// elevState is the §4.2 elevation bookkeeping shared by the batch
// Autocorrelation entry point and the window Accumulator
// (docs/DETECTION.md §3): the per-side window minima the thresholds
// derive from, the elevation matrix with near-side exclusion, the
// per-bin elevated-day counts, and the per-day presence counts. Every
// field is a pure function of the far/near min-filter bins, which is
// what lets the incremental path patch individual bins and still derive
// a result byte-identical to a batch rebuild.
type elevState struct {
	B, D        int
	thresholdMs float64
	// minFar and minNear are the per-side window minima (+Inf while a
	// side has no data at all).
	minFar, minNear float64
	elevated        [][]bool
	dayCounts       []int // elevated-day count per bin-of-day
	present         []int // non-missing far bins per day
}

func newElevState(B, D int, thresholdMs float64) *elevState {
	st := &elevState{
		B: B, D: D, thresholdMs: thresholdMs,
		minFar:    math.Inf(1),
		minNear:   math.Inf(1),
		elevated:  make([][]bool, D),
		dayCounts: make([]int, B),
		present:   make([]int, D),
	}
	for d := range st.elevated {
		st.elevated[d] = make([]bool, B)
	}
	return st
}

// isElevated applies the §4.2 elevation rule to absolute bin i holding
// far value v: above the far threshold and not excluded by an elevated
// near side (elevated latency to the near side indicates congestion
// inside the access network; those intervals are excluded). Days with
// too little data are left unclassified downstream — "insufficient data
// to infer congestion periods" is one of the month-link exclusions §5.1
// applies.
func (st *elevState) isElevated(v float64, near *BinSeries, i int) bool {
	if v <= st.minFar+st.thresholdMs {
		return false
	}
	if near != nil {
		nv := near.Values[i]
		if !math.IsNaN(nv) && nv > st.minNear+st.thresholdMs {
			return false
		}
	}
	return true
}

// rebuild recomputes the whole elevation state from the bins. The batch
// path always rebuilds; the incremental path falls back to it whenever a
// window minimum moved, because a threshold change invalidates every
// bin's elevation at once (docs/DETECTION.md §3).
func (st *elevState) rebuild(far, near *BinSeries) {
	st.minFar = far.Min()
	st.minNear = math.Inf(1)
	if near != nil {
		st.minNear = near.Min()
	}
	for b := range st.dayCounts {
		st.dayCounts[b] = 0
	}
	for d := 0; d < st.D; d++ {
		row := st.elevated[d]
		st.present[d] = 0
		for b := 0; b < st.B; b++ {
			i := d*st.B + b
			v := far.Values[i]
			if math.IsNaN(v) {
				row[b] = false
				continue
			}
			st.present[d]++
			row[b] = st.isElevated(v, near, i)
			if row[b] {
				st.dayCounts[b]++
			}
		}
	}
}

// update recomputes one absolute bin's elevation after its far or near
// value changed, keeping dayCounts in sync. Only valid while the window
// minima are unchanged since the last rebuild (the incremental caller
// checks and rebuilds otherwise). Presence counts are maintained by the
// caller, which alone sees NaN-to-value transitions.
func (st *elevState) update(far, near *BinSeries, i int) {
	d, b := i/st.B, i%st.B
	was := st.elevated[d][b]
	now := false
	if v := far.Values[i]; !math.IsNaN(v) {
		now = st.isElevated(v, near, i)
	}
	if now == was {
		return
	}
	st.elevated[d][b] = now
	if now {
		st.dayCounts[b]++
	} else {
		st.dayCounts[b]--
	}
}

// derive runs the back half of §4.2 — peak finding, circular bin
// clustering, false-positive rejection, per-day classification — off
// the current elevation state and assembles a self-contained
// AutocorrResult. The result deep-copies the mutable state, so callers
// may retain it across further incremental advances.
func (st *elevState) derive(start time.Time, cfg AutocorrConfig) *AutocorrResult {
	B, D := st.B, st.D
	res := &AutocorrResult{
		WindowBins: make([]bool, B),
		DayCounts:  make([]int, B),
	}
	res.MinRTT = st.minFar
	if math.IsInf(res.MinRTT, 1) {
		return res // no data at all
	}
	res.Threshold = res.MinRTT + st.thresholdMs
	copy(res.DayCounts, st.dayCounts)
	res.Elevated = make([][]bool, D)
	res.dayCoverage = make([]float64, D)
	for d := 0; d < D; d++ {
		res.Elevated[d] = append([]bool(nil), st.elevated[d]...)
		res.dayCoverage[d] = float64(st.present[d]) / float64(B)
	}

	// Peak interval and recurring window.
	peak, peakBin := 0, -1
	for b, c := range res.DayCounts {
		if c > peak {
			peak, peakBin = c, b
		}
	}
	if peak < cfg.MinPeakDays {
		res.fillDays(start, B, cfg)
		return res // no recurrence
	}
	sufficient := int(math.Ceil(cfg.SufficientFrac * float64(peak)))
	if sufficient < cfg.MinPeakDays {
		sufficient = cfg.MinPeakDays
	}

	clusters := clusterBins(res.DayCounts, sufficient, B)
	main := -1
	for ci, cl := range clusters {
		if containsBin(cl, peakBin, B) {
			main = ci
		}
	}
	if main < 0 {
		res.fillDays(start, B, cfg)
		return res
	}

	// False-positive rejection (§4.2): multiple comparable clusters
	// spread across the day, or different days driving different peaks.
	for ci, cl := range clusters {
		if ci == main {
			continue
		}
		clPeak := 0
		for _, b := range cl {
			if res.DayCounts[b] > clPeak {
				clPeak = res.DayCounts[b]
			}
		}
		if float64(clPeak) < 0.7*float64(peak) {
			continue // clearly secondary; ignore
		}
		if binDistance(clusters[main], cl, B) <= 8 { // within 2 hours: same daily event
			clusters[main] = append(clusters[main], cl...)
			continue
		}
		// Comparable far-away peak: same days driving both?
		if jaccardDays(res.Elevated, clusters[main], cl) < 0.3 {
			res.RejectReason = "comparable peaks at different times of day driven by different days"
			res.fillDays(start, B, cfg)
			return res
		}
		// Same days: a long congestion period split by the clusterer.
		clusters[main] = append(clusters[main], cl...)
	}

	res.Recurring = true
	for _, b := range clusters[main] {
		res.WindowBins[b] = true
	}
	res.fillDays(start, B, cfg)
	return res
}

// fillDays computes the per-day classification given the recurring window.
func (r *AutocorrResult) fillDays(start time.Time, B int, cfg AutocorrConfig) {
	D := len(r.Elevated)
	minCov := cfg.MinDayCoverage
	r.Days = make([]DayResult, D)
	for d := 0; d < D; d++ {
		day := DayResult{Day: start.AddDate(0, 0, d), Classified: r.dayCoverage[d] >= minCov}
		if !day.Classified {
			r.Days[d] = day
			continue
		}
		if r.Recurring {
			n := 0
			for b := 0; b < B; b++ {
				if r.WindowBins[b] && r.Elevated[d][b] {
					n++
				}
			}
			day.Congested = n > 0
			day.Fraction = float64(n) / float64(B)
		}
		r.Days[d] = day
	}
}

// clusterBins groups bins with count >= threshold into contiguous runs
// (circular over the day), merging runs separated by a single gap.
func clusterBins(counts []int, threshold, B int) [][]int {
	inSet := make([]bool, B)
	for b, c := range counts {
		if c >= threshold {
			inSet[b] = true
		}
	}
	// Close single-bin gaps.
	for b := 0; b < B; b++ {
		prev, next := (b+B-1)%B, (b+1)%B
		if !inSet[b] && inSet[prev] && inSet[next] {
			inSet[b] = true
		}
	}
	var clusters [][]int
	visited := make([]bool, B)
	for b := 0; b < B; b++ {
		if !inSet[b] || visited[b] {
			continue
		}
		// Walk back to the run start (handling wraparound).
		start := b
		for inSet[(start+B-1)%B] && (start+B-1)%B != b {
			start = (start + B - 1) % B
		}
		var cl []int
		for i := start; inSet[i] && !visited[i]; i = (i + 1) % B {
			visited[i] = true
			cl = append(cl, i)
		}
		clusters = append(clusters, cl)
	}
	return clusters
}

func containsBin(cl []int, b, _ int) bool {
	for _, x := range cl {
		if x == b {
			return true
		}
	}
	return false
}

// binDistance returns the minimal circular distance between two clusters.
func binDistance(a, b []int, B int) int {
	best := B
	for _, x := range a {
		for _, y := range b {
			d := x - y
			if d < 0 {
				d = -d
			}
			if B-d < d {
				d = B - d
			}
			if d < best {
				best = d
			}
		}
	}
	return best
}

// jaccardDays measures the overlap between the day sets contributing to
// two bin clusters.
func jaccardDays(elev [][]bool, a, b []int) float64 {
	da, db := map[int]bool{}, map[int]bool{}
	for d := range elev {
		for _, x := range a {
			if elev[d][x] {
				da[d] = true
			}
		}
		for _, y := range b {
			if elev[d][y] {
				db[d] = true
			}
		}
	}
	inter, union := 0, 0
	for d := range da {
		if db[d] {
			inter++
		}
	}
	union = len(da) + len(db) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// CongestionWindows converts a result into explicit event windows: maximal
// runs of elevated in-window bins per day, the "start and end timestamps
// of each inferred congestion event" the system reports (§4).
func (r *AutocorrResult) CongestionWindows(start time.Time, interval time.Duration) []Window {
	if !r.Recurring {
		return nil
	}
	B := len(r.WindowBins)
	var out []Window
	for d := range r.Elevated {
		runStart := -1
		for b := 0; b <= B; b++ {
			on := b < B && r.WindowBins[b] && r.Elevated[d][b]
			switch {
			case on && runStart < 0:
				runStart = b
			case !on && runStart >= 0:
				out = append(out, Window{
					Start: start.Add(time.Duration(d*B+runStart) * interval),
					End:   start.Add(time.Duration(d*B+b) * interval),
				})
				runStart = -1
			}
		}
	}
	return out
}

// MergeVPResults combines per-VP day classifications for one link into an
// overall per-day view (§4.2's final stage): fractions are averaged over
// the VPs that classified the day, and a day is congested when a majority
// of classifying VPs agree.
func MergeVPResults(perVP [][]DayResult) []DayResult {
	if len(perVP) == 0 {
		return nil
	}
	n := 0
	for _, days := range perVP {
		if len(days) > n {
			n = len(days)
		}
	}
	out := make([]DayResult, n)
	for d := 0; d < n; d++ {
		var frac float64
		classified, congested := 0, 0
		for _, days := range perVP {
			if d >= len(days) || !days[d].Classified {
				continue
			}
			classified++
			frac += days[d].Fraction
			if days[d].Congested {
				congested++
			}
			out[d].Day = days[d].Day
		}
		if classified == 0 {
			continue
		}
		out[d].Classified = true
		out[d].Fraction = frac / float64(classified)
		out[d].Congested = congested*2 > classified
	}
	return out
}
