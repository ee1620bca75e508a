package analysis

import (
	"math"
	"sort"

	"interdomain/internal/netsim"
	"interdomain/internal/stats"
)

// This file implements change-point detection in the style the paper's
// level-shift heuristic is "based on" (§4.1 cites W.A. Taylor's
// change-point analysis [67]): CUSUM curves with bootstrap significance
// and binary segmentation. The windowed detector in levelshift.go is the
// operational fast path and the one the ablations run
// (experiments.AblationDetectors); this one is the reference method, and
// its only callers are its tests and BenchmarkCUSUMBootstrapDay.

// CUSUMConfig parameterizes the detector.
type CUSUMConfig struct {
	// Confidence required to accept a change point (Taylor recommends
	// 0.90-0.95; the paper's t-test uses 0.95).
	Confidence float64
	// Bootstraps is the number of permutation resamples per decision.
	Bootstraps int
	// MinSegment is the minimum distance between change points.
	MinSegment int
	// Seed drives the deterministic bootstrap shuffles.
	Seed uint64
}

// DefaultCUSUM returns sane parameters.
func DefaultCUSUM() CUSUMConfig {
	return CUSUMConfig{Confidence: 0.95, Bootstraps: 200, MinSegment: 6, Seed: 1}
}

// DetectChangePointsCUSUM returns the indexes (into vals) where the series
// level changes, found by recursive binary segmentation with bootstrap
// significance. NaN values are ignored for estimation but indexes refer to
// the original series.
func DetectChangePointsCUSUM(vals []float64, cfg CUSUMConfig) []int {
	// Compact NaNs, remembering original positions.
	xs := make([]float64, 0, len(vals))
	pos := make([]int, 0, len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) {
			xs = append(xs, v)
			pos = append(pos, i)
		}
	}
	var out []int
	rng := netsim.NewRNG(cfg.Seed)
	segment(xs, 0, len(xs), cfg, rng, func(k int) {
		out = append(out, pos[k])
	})
	sort.Ints(out)
	return out
}

// segment recursively applies the CUSUM bootstrap test to xs[lo:hi).
func segment(xs []float64, lo, hi int, cfg CUSUMConfig, rng *netsim.RNG, emit func(int)) {
	n := hi - lo
	if n < 2*cfg.MinSegment {
		return
	}
	k, sdiff := cusumPeak(xs[lo:hi])
	if k < cfg.MinSegment || n-k < cfg.MinSegment {
		return
	}
	// Bootstrap: how often does a random reordering produce as large a
	// CUSUM range?
	work := make([]float64, n)
	copy(work, xs[lo:hi])
	exceed := 0
	for b := 0; b < cfg.Bootstraps; b++ {
		shuffle(work, rng)
		if _, s := cusumPeak(work); s >= sdiff {
			exceed++
		}
	}
	conf := 1 - float64(exceed)/float64(cfg.Bootstraps)
	if conf < cfg.Confidence {
		return
	}
	emit(lo + k)
	segment(xs, lo, lo+k, cfg, rng, emit)
	segment(xs, lo+k, hi, cfg, rng, emit)
}

// cusumPeak returns the index of the maximum |CUSUM| excursion and the
// CUSUM range (max-min), the change-point estimator and its magnitude.
func cusumPeak(xs []float64) (int, float64) {
	m := stats.Mean(xs)
	var s, mn, mx float64
	k, kAbs := 0, 0.0
	for i, x := range xs {
		s += x - m
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
		if a := math.Abs(s); a > kAbs {
			kAbs = a
			k = i + 1 // change occurs after index i
		}
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return k, mx - mn
}

func shuffle(xs []float64, rng *netsim.RNG) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// DetectLevelShiftsCUSUM runs the bootstrap change-point detector over a
// min-filtered series and derives elevation episodes the same way the
// windowed detector does: segments whose robust mean sits significantly
// above the series baseline.
func DetectLevelShiftsCUSUM(s *BinSeries, cfg CUSUMConfig, huberP float64) LevelShiftResult {
	res := LevelShiftResult{}
	res.ShiftIndexes = DetectChangePointsCUSUM(s.Values, cfg)
	if len(res.ShiftIndexes) == 0 {
		return res
	}
	res.Sigma2 = movingVariance(s.Values, 12)
	res.Delta = stats.MinSignificantDiff(res.Sigma2, 12, cfg.Confidence)

	bounds := append([]int{0}, res.ShiftIndexes...)
	bounds = append(bounds, s.Len())
	baseline := math.Inf(1)
	type seg struct {
		lo, hi int
		mean   float64
	}
	var segs []seg
	for i := 0; i+1 < len(bounds); i++ {
		w := window(s.Values, bounds[i], bounds[i+1])
		if len(w) == 0 {
			continue
		}
		m := huberMean(w, huberP)
		segs = append(segs, seg{bounds[i], bounds[i+1], m})
		if m < baseline {
			baseline = m
		}
	}
	inEp, start := false, 0
	for _, g := range segs {
		elevated := g.mean > baseline+res.Delta/2
		switch {
		case elevated && !inEp:
			inEp, start = true, g.lo
		case !elevated && inEp:
			inEp = false
			res.Episodes = append(res.Episodes, Window{Start: s.TimeAt(start), End: s.TimeAt(g.lo)})
		}
	}
	if inEp {
		res.Episodes = append(res.Episodes, Window{Start: s.TimeAt(start), End: s.TimeAt(s.Len())})
	}
	return res
}
