package tsdb

// Versioned zero-copy read path (docs/SERVING.md §1-§2): QueryView
// serves range reads as columnar views aliasing the store's own
// append-only columns, instead of the Point-by-Point deep copies Query
// makes, and ViewStamp condenses the versions of a filter's matching
// series into one cache-invalidation stamp. Together they let the
// serving tier (internal/readcache + internal/api) do O(changed-data)
// work per request instead of O(full-detector).

import (
	"sort"
	"time"
)

// SeriesView is a copy-free columnar range view of one series: Times
// (Unix nanoseconds, ascending) and Values are parallel subslices of
// the store-owned columns as they stood at Version.
//
// Validity contract (docs/SERVING.md §1):
//
//   - Times and Values are immutable. The store never writes to an
//     index a view can reach — a later Write/WriteBatch appends past
//     it or builds fresh columns, a Retain reslices, a RestoreDir
//     replaces the series — so a view stays internally consistent for
//     as long as the caller holds it, surviving any concurrent writes.
//   - A view is a snapshot, not a live cursor: points written after
//     QueryView returned are not visible through it. Re-query (or
//     compare ViewStamp) to observe new data.
//   - Tags is the store's own map, shared to avoid a per-series copy.
//     It is never mutated after the series is created; callers must
//     treat it as read-only.
type SeriesView struct {
	// Measurement is the series' measurement name.
	Measurement string
	// Tags is the store-owned tag set; read-only for callers.
	Tags map[string]string
	// Times holds the view's timestamps in Unix nanoseconds, ascending.
	Times []int64
	// Values holds one value per entry of Times.
	Values []float64
	// Version is the series' write-version the view was taken at.
	Version uint64
}

// Len returns the number of points in the view.
func (v SeriesView) Len() int { return len(v.Times) }

// QueryView returns, for every series of the measurement matching the
// tag filter, a columnar view of the points within [from, to), in
// canonical key order — the same series Query returns, without copying
// any point data (see SeriesView for the validity contract): a view of
// a column series only binary-searches the range.
func (db *DB) QueryView(measurement string, filter map[string]string, from, to time.Time) []SeriesView {
	return db.QueryViewWhere(measurement, filter, from, to, nil)
}

// ValueBound restricts a bounded query (QueryViewWhere) to points
// whose value lies in [Min, Max], both inclusive. NaN values never
// match a bound.
type ValueBound struct {
	// Min is the inclusive lower value bound.
	Min float64
	// Max is the inclusive upper value bound.
	Max float64
}

// contains reports whether v satisfies the bound; NaN never does.
func (vb ValueBound) contains(v float64) bool { return v >= vb.Min && v <= vb.Max }

// intersects reports whether a block whose value summary is [min, max]
// could hold a matching point. NaN summaries (all-NaN blocks) compare
// false and are conservatively kept — the point filter excludes their
// points.
func (vb ValueBound) intersects(min, max float64) bool {
	return !(max < vb.Min || min > vb.Max)
}

// QueryViewWhere is QueryView with an optional value bound: with vb
// non-nil only points vb contains are returned. On a lazily opened
// store the bound prunes at block granularity first — blocks whose
// [min, max] summary cannot intersect vb are skipped without being
// decoded (docs/PERSISTENCE.md §9) — and the surviving blocks' points
// are then filtered identically to the column path, so a restored
// store returns the views its writer would. A nil vb is exactly QueryView.
func (db *DB) QueryViewWhere(measurement string, filter map[string]string, from, to time.Time, vb *ValueBound) []SeriesView {
	keys, ok := db.idx.candidates(measurement, filter)
	if !ok {
		return nil
	}
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	var out []SeriesView
	var outKeys []string
	db.readMatching(keys, measurement, filter, func(k string, s *series) {
		// appendView skips a series with nothing in range; keep the
		// key only of one it kept.
		if out = s.appendView(out, fromNs, toNs, vb); len(out) > len(outKeys) {
			outKeys = append(outKeys, k)
		}
	})
	sortByKey(out, outKeys)
	return out
}

// readMatching calls fn for every series among the candidate keys that
// matches (measurement, filter), visiting the keys shard by shard under
// one read-lock acquisition per shard.
func (db *DB) readMatching(keys []string, measurement string, filter map[string]string, fn func(key string, s *series)) {
	var byShard [NumShards][]string
	for _, k := range keys {
		s := shardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.read(func() {
			for _, k := range byShard[si] {
				if s, ok := sh.series[k]; ok && s.matches(measurement, filter) {
					fn(k, s)
				}
			}
		})
	}
}

// sortByKey orders items by their canonical series keys: keys[i] is
// the key of items[i], as the store's maps and readMatching already
// hold it, so no comparison rebuilds one.
func sortByKey[T any](items []T, keys []string) {
	sort.Sort(keyed[T]{items, keys})
}

// keyed is the sort.Interface over parallel item and key slices.
type keyed[T any] struct {
	items []T
	keys  []string
}

func (s keyed[T]) Len() int           { return len(s.keys) }
func (s keyed[T]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s keyed[T]) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// appendView slices the series to [fromNs, toNs), applies the optional
// value bound, and appends the view unless it is empty. A column view
// without a bound aliases the columns; lazy stubs route through
// appendLazyView. The caller must hold the shard lock (read suffices).
func (s *series) appendView(out []SeriesView, fromNs, toNs int64, vb *ValueBound) []SeriesView {
	if s.lazy != nil {
		return s.appendLazyView(out, fromNs, toNs, vb)
	}
	lo := sort.Search(len(s.times), func(i int) bool { return s.times[i] >= fromNs })
	hi := sort.Search(len(s.times), func(i int) bool { return s.times[i] >= toNs })
	if lo >= hi {
		return out
	}
	// Capacity stops at the view's end, so a caller appending to a view
	// cannot reach store memory.
	ts, vs := s.times[lo:hi:hi], s.values[lo:hi:hi]
	if vb != nil {
		if ts, vs = filterBound(ts, vs, vb); len(ts) == 0 {
			return out
		}
	}
	return append(out, SeriesView{Measurement: s.measurement, Tags: s.tags, Times: ts, Values: vs, Version: s.version})
}

// appendLazyView builds one lazy series' view: prune blocks by
// summary, decode survivors through the cache, then slice or
// copy-assemble. A view over exactly one surviving block with no value
// bound aliases the cached decoded columns zero-copy; everything else
// assembles fresh slices (decoded columns are immutable heap data, so
// either form satisfies the SeriesView validity contract).
func (s *series) appendLazyView(out []SeriesView, fromNs, toNs int64, vb *ValueBound) []SeriesView {
	l := s.lazy
	type slice struct {
		d      *decodedBlock
		lo, hi int
	}
	refs := l.selectRefs(fromNs, toNs, vb)
	slices := make([]slice, 0, len(refs))
	total := 0
	for _, r := range refs {
		d := l.store.decode(r)
		lo := sort.Search(len(d.times), func(i int) bool { return d.times[i] >= fromNs })
		hi := sort.Search(len(d.times), func(i int) bool { return d.times[i] >= toNs })
		if lo >= hi {
			continue
		}
		slices = append(slices, slice{d, lo, hi})
		total += hi - lo
	}
	if total == 0 {
		return out
	}
	v := SeriesView{Measurement: s.measurement, Tags: s.tags, Version: s.version}
	if vb == nil && len(slices) == 1 {
		sl := slices[0]
		v.Times = sl.d.times[sl.lo:sl.hi]
		v.Values = sl.d.values[sl.lo:sl.hi]
		return append(out, v)
	}
	times := make([]int64, 0, total)
	values := make([]float64, 0, total)
	for _, sl := range slices {
		if vb == nil {
			times = append(times, sl.d.times[sl.lo:sl.hi]...)
			values = append(values, sl.d.values[sl.lo:sl.hi]...)
			continue
		}
		for i := sl.lo; i < sl.hi; i++ {
			if vb.contains(sl.d.values[i]) {
				times = append(times, sl.d.times[i])
				values = append(values, sl.d.values[i])
			}
		}
	}
	if len(times) == 0 {
		return out
	}
	v.Times, v.Values = times, values
	return append(out, v)
}

// filterBound copies the entries of a column range that satisfy vb
// into fresh slices (the zero-copy subslice form is only possible for
// contiguous ranges).
func filterBound(times []int64, values []float64, vb *ValueBound) ([]int64, []float64) {
	ts := make([]int64, 0, len(times))
	vs := make([]float64, 0, len(values))
	for i, v := range values {
		if vb.contains(v) {
			ts = append(ts, times[i])
			vs = append(vs, v)
		}
	}
	return ts, vs
}

// ViewStamp condenses the identity and write-versions of every series
// matching (measurement, filter) — plus the store epoch — into one
// stamp. Two calls return the same stamp exactly when the matching
// series set and each member's contents are unchanged in between: any
// Write/WriteBatch/Staged-commit into a matching series, any Retain
// that trims one, the creation or removal of a matching series, and any
// whole-store RestoreDir all move the stamp. The serving tier
// keys its memoized analysis results on it (docs/SERVING.md §2), so a
// moved stamp is what invalidates a cached result. The stamp reads only
// index postings and per-series version counters, never point data.
func (db *DB) ViewStamp(measurement string, filter map[string]string) uint64 {
	db.global.RLock()
	epoch := db.epoch
	db.global.RUnlock()
	h := fnvUint64(fnvOffset64, epoch)
	keys, ok := db.idx.candidates(measurement, filter)
	if !ok {
		return h
	}
	// Per-series contributions are combined by XOR so the stamp is
	// independent of map-iteration order without sorting keys.
	var acc uint64
	n := 0
	db.readMatching(keys, measurement, filter, func(k string, s *series) {
		acc ^= fnvUint64(fnvString(fnvOffset64, k), s.version)
		n++
	})
	return fnvUint64(fnvUint64(h, acc), uint64(n))
}

// FNV-64a, folded inline: ViewStamp runs on every cacheable request,
// and hash/fnv's Hash64 costs an allocation per series there.
const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// fnvString folds s into the FNV-64a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvUint64 folds v's eight big-endian bytes into the FNV-64a state h.
func fnvUint64(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ uint64(byte(v>>shift))) * fnvPrime64
	}
	return h
}

// Epoch returns the store's restore epoch: it increments on every
// whole-store replacement (RestoreDir), under which per-series
// write-versions restart and nothing relates a new series snapshot to a
// pre-restore one. The incremental detector accumulators
// (analysis.Incremental, docs/DETECTION.md §4) compare it across
// advances and fall back to a full recompute when it moved.
func (db *DB) Epoch() uint64 {
	db.global.RLock()
	defer db.global.RUnlock()
	return db.epoch
}

// StoreVersion returns the sum of all shard write-versions plus the
// store epoch: a cheap whole-store modification counter that moves on
// every mutation anywhere. The serving tier reports it in /api/v1/stats
// so operators can see at a glance whether a store is being written.
func (db *DB) StoreVersion() uint64 {
	db.global.RLock()
	v := db.epoch
	db.global.RUnlock()
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		v += sh.version
		sh.mu.RUnlock()
	}
	return v
}

// TimeBounds returns the earliest and latest point timestamps across
// every series matching (measurement, filter), or ok=false when no
// matching series holds a point. The dashboard's link index uses it to
// anchor per-link status analyses to the data actually present.
func (db *DB) TimeBounds(measurement string, filter map[string]string) (min, max time.Time, ok bool) {
	keys, found := db.idx.candidates(measurement, filter)
	if !found {
		return time.Time{}, time.Time{}, false
	}
	var minNs, maxNs int64
	db.readMatching(keys, measurement, filter, func(_ string, s *series) {
		first, last, sok := s.timeBounds()
		if !sok {
			return
		}
		if !ok || first < minNs {
			minNs = first
		}
		if !ok || last > maxNs {
			maxNs = last
		}
		ok = true
	})
	if !ok {
		return time.Time{}, time.Time{}, false
	}
	return time.Unix(0, minNs).UTC(), time.Unix(0, maxNs).UTC(), true
}
