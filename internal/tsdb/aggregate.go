package tsdb

// Summary-level aggregate pushdown (docs/PERSISTENCE.md §10).
// QueryAggregate buckets a time range into fixed steps and computes
// count/min/max/sum/mean per bucket. On a lazily opened store, a block
// whose [minT, maxT] lies entirely inside one bucket is folded from
// its summary fields alone — zero decode, zero cache traffic — so a
// coarse dashboard panel over a compacted directory touches metadata
// only. Blocks straddling a bucket boundary decode through the
// ordinary block cache. Column series (written or materialized) fold
// their columns directly.
//
// Aggregation semantics, shared by every path:
//
//   - Count counts every point in the bucket, NaN values included.
//   - Min and Max exclude NaN values; a bucket whose points are all
//     NaN (or empty) reports NaN.
//   - Sum is one running IEEE-754 sum per bucket, in time order; a NaN
//     value poisons it. A decoded point is added to it as one term; a
//     summary-folded block adds its stored Sum, the sequential sum of
//     its values from zero, as one term. So a bucket fed only by
//     decoded points is bit-identical to the column fold's sequential
//     sum, and so is a bucket fed by one block summary alone; a bucket
//     fed by several summaries (or summaries and points) groups its
//     terms differently, and may differ from both in the last ulp.
//     All groupings agree exactly on exactly representable sums.
//   - Mean is Sum/Count, so it inherits Sum's NaN poisoning.
//   - Empty buckets report Count 0 and NaN for everything else.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// AggFns is a bitmask selecting which aggregate functions
// QueryAggregate reports; every one of them folds from block summaries
// where a block lies inside one bucket (docs/PERSISTENCE.md §10).
type AggFns uint

// The aggregate functions QueryAggregate computes.
const (
	// AggCount selects the per-bucket point count.
	AggCount AggFns = 1 << iota
	// AggMin selects the per-bucket NaN-excluding minimum.
	AggMin
	// AggMax selects the per-bucket NaN-excluding maximum.
	AggMax
	// AggSum selects the per-bucket sum (NaN-poisoning).
	AggSum
	// AggMean selects the per-bucket mean, Sum/Count.
	AggMean

	// AggAll selects every aggregate function.
	AggAll = AggCount | AggMin | AggMax | AggSum | AggMean
)

// ErrAggArgs is wrapped by every QueryAggregate argument-validation
// error (bad step, bad range, unknown function bits), so the API layer
// can map it to a structured 400 without matching message text.
var ErrAggArgs = errors.New("tsdb: invalid aggregate query")

// maxAggBuckets bounds the buckets one QueryAggregate call may
// produce, so a tiny step over a huge range cannot allocate without
// limit. The API layer enforces its own, tighter paging limits.
const maxAggBuckets = 1 << 20

// AggBucket is one aggregated time bucket of one series.
type AggBucket struct {
	// Start is the bucket's inclusive lower time bound; the bucket
	// covers [Start, Start+step).
	Start time.Time
	// Count is the number of points in the bucket, NaN values
	// included; 0 marks an empty bucket.
	Count int
	// Min and Max are the bucket's NaN-excluding value extrema, NaN
	// when the bucket is empty or all-NaN.
	Min, Max float64
	// Sum is the bucket's value sum (see the package comment for the
	// fold order); NaN when the bucket is empty, when a NaN value
	// poisoned it, or when AggSum/AggMean was not requested.
	Sum float64
	// Mean is Sum/Count; NaN under the same conditions as Sum.
	Mean float64
}

// AggSeries is one series' aggregate result: exactly (to-from)/step
// buckets in time order.
type AggSeries struct {
	// Measurement is the series' measurement name.
	Measurement string
	// Tags is the store-owned tag set; read-only for callers.
	Tags map[string]string
	// Buckets holds one entry per step of the queried range.
	Buckets []AggBucket
}

// aggDisablePushdown is a test-only switch forcing every block through
// the decode fallback, whose sums are the column fold's. Never set
// outside tsdb tests.
var aggDisablePushdown bool

// aggAcc accumulates one bucket during a fold.
type aggAcc struct {
	count       int
	min, max    float64 // NaN until a non-NaN value arrives
	sum         float64
	usedSummary bool
	usedDecode  bool
}

// observe folds one decoded point into the bucket.
func (a *aggAcc) observe(v float64) {
	a.count++
	a.sum += v
	if math.IsNaN(v) {
		return
	}
	if math.IsNaN(a.min) || v < a.min {
		a.min = v
	}
	if math.IsNaN(a.max) || v > a.max {
		a.max = v
	}
}

// foldSummary folds one fully-contained block's summary into the
// bucket: the count and the NaN-excluding extrema that observing each
// decoded point would have produced, and the block's stored sum as one
// term (see the package comment on sum grouping).
func (a *aggAcc) foldSummary(count int, min, max, sum float64) {
	a.count += count
	a.sum += sum
	if !math.IsNaN(min) && (math.IsNaN(a.min) || min < a.min) {
		a.min = min
	}
	if !math.IsNaN(max) && (math.IsNaN(a.max) || max > a.max) {
		a.max = max
	}
}

// QueryAggregate buckets [from, to) into steps of step and returns,
// for every series of the measurement matching the tag filter that
// holds at least one point in the range, the per-bucket aggregates
// selected by fns, in canonical key order. The range must be a whole
// multiple of step. On a lazily opened store the fold is pushed below
// the decode boundary wherever block summaries suffice — see the
// package comment — and /api/v1/stats' lazy_read counters report how
// many buckets never decoded (docs/SERVING.md §4).
func (db *DB) QueryAggregate(measurement string, filter map[string]string, from, to time.Time, step time.Duration, fns AggFns) ([]AggSeries, error) {
	if fns == 0 || fns&^AggAll != 0 {
		return nil, fmt.Errorf("%w: unknown aggregate functions in mask %#x", ErrAggArgs, uint(fns))
	}
	if step <= 0 {
		return nil, fmt.Errorf("%w: step %v, want > 0", ErrAggArgs, step)
	}
	span := to.Sub(from)
	if span <= 0 {
		return nil, fmt.Errorf("%w: empty range [%v, %v)", ErrAggArgs, from, to)
	}
	if span%step != 0 {
		return nil, fmt.Errorf("%w: range %v is not a whole multiple of step %v", ErrAggArgs, span, step)
	}
	n := int(span / step)
	if n > maxAggBuckets {
		return nil, fmt.Errorf("%w: %d buckets exceed the limit of %d", ErrAggArgs, n, maxAggBuckets)
	}
	needSum := fns&(AggSum|AggMean) != 0

	keys, ok := db.idx.candidates(measurement, filter)
	if !ok {
		return nil, nil
	}
	fromNs := from.UnixNano()
	stepNs := int64(step)
	var out []AggSeries
	var outKeys []string
	db.readMatching(keys, measurement, filter, func(k string, s *series) {
		accs := make([]aggAcc, n)
		for i := range accs {
			accs[i].min, accs[i].max = math.NaN(), math.NaN()
		}
		if s.lazy != nil {
			s.lazy.aggregate(accs, fromNs, stepNs)
		} else {
			aggFoldColumn(accs, s.times, s.values, fromNs, stepNs)
		}
		any := false
		for i := range accs {
			if accs[i].count > 0 {
				any = true
				break
			}
		}
		if !any {
			return
		}
		buckets := make([]AggBucket, n)
		for i := range accs {
			a := &accs[i]
			b := AggBucket{
				Start: from.Add(time.Duration(int64(i) * stepNs)),
				Count: a.count,
				Min:   a.min,
				Max:   a.max,
				Sum:   math.NaN(),
				Mean:  math.NaN(),
			}
			if needSum && a.count > 0 {
				b.Sum = a.sum
				b.Mean = a.sum / float64(a.count)
			}
			buckets[i] = b
		}
		out = append(out, AggSeries{Measurement: s.measurement, Tags: s.tags, Buckets: buckets})
		outKeys = append(outKeys, k)
	})
	sortByKey(out, outKeys)
	return out, nil
}

// aggFoldColumn folds a columnar range into the buckets point by
// point: the column path, and the shared tail of every decode fallback.
func aggFoldColumn(accs []aggAcc, times []int64, values []float64, fromNs, stepNs int64) {
	toNs := fromNs + stepNs*int64(len(accs))
	lo := sort.Search(len(times), func(i int) bool { return times[i] >= fromNs })
	hi := sort.Search(len(times), func(i int) bool { return times[i] >= toNs })
	for i := lo; i < hi; i++ {
		accs[(times[i]-fromNs)/stepNs].observe(values[i])
	}
}

// aggregate folds a lazy series into the buckets, pushing every
// fully-contained block down to its summary and decoding only bucket
// straddlers (docs/PERSISTENCE.md §10). Refs are time-ordered, so
// partial sums fold in time order. The caller must hold the shard lock
// (read suffices).
func (l *lazySeries) aggregate(accs []aggAcc, fromNs, stepNs int64) {
	toNs := fromNs + stepNs*int64(len(accs))
	var scanned, skipped uint64
	for i := range l.blocks {
		r := &l.blocks[i]
		scanned++
		if r.maxT < fromNs || r.minT >= toNs {
			skipped++
			continue
		}
		if b := aggContainedBucket(r, fromNs, toNs, stepNs); b >= 0 {
			accs[b].foldSummary(r.count, r.min, r.max, r.sum)
			accs[b].usedSummary = true
			continue
		}
		// Fallback: decode through the cache and fold this block's
		// in-range points one at a time into the running sums, in time
		// order, as the column fold does.
		d := l.store.decode(r)
		aggMarkDecoded(accs, r, fromNs, stepNs)
		aggFoldColumn(accs, d.times, d.values, fromNs, stepNs)
	}
	l.store.blocksScanned.Add(scanned)
	l.store.blocksSkipped.Add(skipped)
	l.finishAggStats(accs)
}

// aggContainedBucket returns the single bucket index a block folds
// into from its summary alone, or -1 when it must decode: the block
// must lie inside the queried range, start and end in the same bucket,
// and pushdown must not be disabled.
func aggContainedBucket(r *lazyBlockRef, fromNs, toNs, stepNs int64) int64 {
	if aggDisablePushdown {
		return -1
	}
	if r.minT < fromNs || r.maxT >= toNs {
		return -1
	}
	b := (r.minT - fromNs) / stepNs
	if b != (r.maxT-fromNs)/stepNs {
		return -1
	}
	return b
}

// aggMarkDecoded marks the buckets a decoded block can touch, so the
// summary-only accounting in finishAggStats stays truthful.
func aggMarkDecoded(accs []aggAcc, r *lazyBlockRef, fromNs, stepNs int64) {
	lo := (r.minT - fromNs) / stepNs
	hi := (r.maxT - fromNs) / stepNs
	if lo < 0 {
		lo = 0
	}
	if hi >= int64(len(accs)) {
		hi = int64(len(accs)) - 1
	}
	for b := lo; b <= hi; b++ {
		accs[b].usedDecode = true
	}
}

// finishAggStats counts the buckets answered entirely from summaries
// into the store's summary_only_buckets counter.
func (l *lazySeries) finishAggStats(accs []aggAcc) {
	var summaryOnly uint64
	for i := range accs {
		if accs[i].usedSummary && !accs[i].usedDecode {
			summaryOnly++
		}
	}
	if summaryOnly > 0 {
		l.store.summaryOnlyBuckets.Add(summaryOnly)
	}
}
