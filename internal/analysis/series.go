// Package analysis implements the paper's congestion-inference methods
// (§4): the CUSUM-based level-shift detector used to trigger reactive loss
// probing, and the autocorrelation method that identifies recurring
// diurnal congestion and produces the day-link congestion percentages the
// longitudinal study (§6) is built on.
//
// The autocorrelation method comes in two result-identical forms: the
// batch Autocorrelation entry point, which rebuilds everything per
// call, and the persistent incremental state — BinColumn bins shared
// by every window over a link, folding only newly written points, and
// one Accumulator per window over them. Their shared state and the
// validity proof behind the incremental fast path are specified in
// docs/DETECTION.md §2-§5; the equivalence contract between the two
// forms is docs/DETECTION.md §4.
package analysis

import (
	"math"
	"time"
)

// BinSeries is a fixed-interval time series of minimum-filtered values.
// Both detectors pre-process raw TSLP samples by taking the minimum per
// bin, which removes slow-path ICMP outliers while preserving sustained
// queueing delay. The min-fold is idempotent and commutative, which is
// what lets a BinColumn fold points in write order and still match a
// batch rebuild bin for bin (docs/DETECTION.md §3).
type BinSeries struct {
	Start    time.Time
	Interval time.Duration
	// Values holds one value per bin; NaN marks bins with no samples.
	Values []float64
}

// NewBinSeries returns an all-missing series of n bins.
func NewBinSeries(start time.Time, interval time.Duration, n int) *BinSeries {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return &BinSeries{Start: start, Interval: interval, Values: v}
}

// Observe folds one sample into its bin, keeping the minimum.
func (s *BinSeries) Observe(t time.Time, v float64) {
	idx := s.IndexOf(t)
	if idx < 0 || idx >= len(s.Values) {
		return
	}
	if math.IsNaN(s.Values[idx]) || v < s.Values[idx] {
		s.Values[idx] = v
	}
}

// ObserveNanos folds one sample given as a Unix-nanosecond timestamp
// into its bin, keeping the minimum. It is the allocation-free fast
// path the serving tier uses when filling a series from a columnar
// tsdb.SeriesView, where timestamps are already int64 nanoseconds.
func (s *BinSeries) ObserveNanos(ns int64, v float64) {
	// Same truncating division as Observe/IndexOf, so the two paths bin
	// every sample — including pre-Start edge cases — identically.
	idx := int((ns - s.Start.UnixNano()) / int64(s.Interval))
	if idx < 0 || idx >= len(s.Values) {
		return
	}
	if math.IsNaN(s.Values[idx]) || v < s.Values[idx] {
		s.Values[idx] = v
	}
}

// IndexOf returns the bin index containing t (possibly out of range).
func (s *BinSeries) IndexOf(t time.Time) int {
	return int(t.Sub(s.Start) / s.Interval)
}

// TimeAt returns the start time of bin i.
func (s *BinSeries) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Interval)
}

// Len returns the number of bins.
func (s *BinSeries) Len() int { return len(s.Values) }

// Min returns the minimum over non-missing values (+Inf if all missing).
func (s *BinSeries) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.Values {
		if !math.IsNaN(v) && v < m {
			m = v
		}
	}
	return m
}

// Coverage returns the fraction of bins holding data.
func (s *BinSeries) Coverage() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.Values {
		if !math.IsNaN(v) {
			n++
		}
	}
	return float64(n) / float64(len(s.Values))
}

// Slice returns the sub-series covering bins [lo, hi).
func (s *BinSeries) Slice(lo, hi int) *BinSeries {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	return &BinSeries{Start: s.TimeAt(lo), Interval: s.Interval, Values: s.Values[lo:hi]}
}

// Window is a [Start, End) time interval, the system's representation of
// one congestion event.
type Window struct {
	Start, End time.Time
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// InAnyWindow reports whether t falls inside any of the windows.
func InAnyWindow(ws []Window, t time.Time) bool {
	for _, w := range ws {
		if w.Contains(t) {
			return true
		}
	}
	return false
}
