// Package tsdb is the measurement system's time-series store, playing the
// role InfluxDB plays in the deployed system (§3): the probing modules
// write latency/loss/throughput points tagged with vantage point, link and
// probe kind; the analysis and visualization layers query ranges back out.
//
// The store is in-memory, persists as a segment directory
// (SnapshotDir/RestoreDir, segment.go) and is safe for concurrent use. Internally the series map is sharded by key hash with a
// per-shard lock, and an inverted index (measurement and tag=value →
// series keys) routes queries to only the matching series, so concurrent
// probers and analyzers scale with cores instead of serializing on one
// global lock. Points within one series are kept ordered by time;
// out-of-order writes are inserted, matching the semantics analysis code
// expects.
package tsdb

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Point is a single timestamped value.
type Point struct {
	Time  time.Time
	Value float64
}

// Series is one measurement stream's points as Query returns them: an
// independent copy identified by a measurement name and a tag set.
type Series struct {
	Measurement string
	Tags        map[string]string
	Points      []Point
}

// series is the store's in-memory form of one measurement stream:
// either parallel append-only time/value columns, or (lazy non-nil) a
// block-index stub of a lazily opened directory.
//
// The columns are what views alias (docs/SERVING.md §1), so a published
// index is never written again: an in-order write appends past every
// published length, an out-of-order insert builds fresh arrays, and a
// Retain trim reslices with the capacity cut to the new length so the
// next append reallocates instead of overwriting the dropped tail.
type series struct {
	measurement string
	tags        map[string]string
	// times holds Unix nanoseconds, ascending; values one value per
	// entry of times.
	times  []int64
	values []float64

	// version counts mutations of the columns since the series was
	// created (or since the whole store was last replaced). It is the
	// unit the versioned read path is built on: QueryView captures it
	// into each view and ViewStamp folds it into the cache-invalidation
	// stamp (docs/SERVING.md §2).
	version uint64
	// lazy, when non-nil, marks a block-index stub of a lazily opened
	// directory: the columns are empty and reads go through the stub's
	// block refs instead (lazy.go, docs/PERSISTENCE.md §9). Mutators
	// materialize the series — decode it fully into the columns and
	// clear lazy — before touching it.
	lazy *lazySeries
}

// Key returns the canonical series key: measurement plus sorted tags.
func Key(measurement string, tags map[string]string) string {
	if len(tags) == 0 {
		return measurement
	}
	var few [8]string // tag sets this small sort without leaving the stack
	keys := few[:0]
	size := len(measurement)
	for k, v := range tags {
		keys = append(keys, k)
		size += len(",=") + len(k) + len(v)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(size)
	b.WriteString(measurement)
	for _, k := range keys {
		b.WriteByte(',')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(tags[k])
	}
	return b.String()
}

// NumShards is the number of series-map shards. 32 keeps lock contention
// negligible for the fan-out the pipeline runs (one goroutine per core)
// while the per-shard maps stay large enough to amortize hashing.
const NumShards = 32

// shard holds a slice of the keyspace behind its own lock.
type shard struct {
	mu     sync.RWMutex
	series map[string]*series
	// dirty is the set of segment windows (window-start Unix
	// nanoseconds) whose points changed since the store's last
	// SnapshotDir; incremental snapshots rewrite exactly these. Guarded
	// by mu; nil until the first write after a snapshot.
	dirty map[int64]struct{}
	// trimmed is the subset of dirty windows that LOST points (a Retain
	// pass) since the last SnapshotDir. Insert-only dirty windows may be
	// persisted by append-extending the previous segment; a trimmed
	// window must be fully re-encoded because its old payload is no
	// longer a prefix of the new one (docs/REPLICATION.md §8). Guarded
	// by mu; cleared together with dirty.
	trimmed map[int64]struct{}
	// version counts mutations of any series in the shard; it moves in
	// lockstep with the per-series versions. Guarded by mu.
	version uint64
}

// DB is the store.
type DB struct {
	// global coordinates whole-store operations with per-point mutators:
	// Write/WriteBatch/Retain share it (RLock) and proceed concurrently,
	// serializing only on their target shards; SnapshotDir/RestoreDir/
	// ExportLines take it exclusively, which both gives them a consistent
	// point-in-time view and keeps the multi-shard lock acquisition free
	// of reader/writer cycles (only one multi-shard holder can exist).
	global sync.RWMutex
	shards [NumShards]shard
	idx    tagIndex

	// window is the segment window length used by the dirty tracker and
	// the segmented persistence layer (segment.go). Set by Open and
	// SetSegmentWindow; read without a lock on the write path, so it
	// must not change while the store is shared.
	window time.Duration
	// snapDir/snapGen record the directory and manifest generation of
	// the store's last successful SnapshotDir, gating incremental
	// snapshots. Guarded by the exclusive global lock.
	snapDir string
	snapGen uint64

	// floor, when nonzero, makes Write and WriteBatch drop every point
	// whose timestamp is at or before it (SetWriteFloor). Like window it
	// is read without a lock on the write path, so it must not change
	// while the store is shared.
	floor time.Time

	// epoch counts whole-store replacements (RestoreDir, Close).
	// Per-series versions restart from zero after a restore, so the
	// epoch is folded into every ViewStamp to keep stamps from before
	// and after a replacement distinct (docs/SERVING.md §2). A lazy
	// hot-swap that only appends keeps it and advances the touched
	// series' versions instead (docs/PERSISTENCE.md §9.3). Guarded by
	// the global lock (written only under the exclusive lock).
	epoch uint64

	// lazy is the shared state of a lazily opened directory — mapped
	// segment files, block cache, read-path counters (lazy.go). Nil
	// unless the store was restored with DirOptions.Lazy; written only
	// under the exclusive global lock.
	lazy *lazyStore
}

// shardFor routes a series key to its shard (FNV-1a).
func shardFor(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h % NumShards
}

// tagIndex is the inverted index: posting sets of series keys per
// measurement and per (measurement, tag, value). Queries intersect the
// smallest applicable posting set instead of scanning every series.
type tagIndex struct {
	mu sync.RWMutex
	// meas maps measurement -> set of series keys.
	meas map[string]map[string]struct{}
	// tag maps measurement \x00 tagKey \x00 tagValue -> set of series keys.
	tag map[string]map[string]struct{}
}

func tagPosting(measurement, k, v string) string {
	return measurement + "\x00" + k + "\x00" + v
}

func (ix *tagIndex) add(measurement string, tags map[string]string, key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.meas == nil {
		ix.meas = make(map[string]map[string]struct{})
		ix.tag = make(map[string]map[string]struct{})
	}
	addTo(ix.meas, measurement, key)
	for k, v := range tags {
		addTo(ix.tag, tagPosting(measurement, k, v), key)
	}
}

func (ix *tagIndex) remove(measurement string, tags map[string]string, key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	removeFrom(ix.meas, measurement, key)
	for k, v := range tags {
		removeFrom(ix.tag, tagPosting(measurement, k, v), key)
	}
}

func addTo(m map[string]map[string]struct{}, posting, key string) {
	set, ok := m[posting]
	if !ok {
		set = make(map[string]struct{})
		m[posting] = set
	}
	set[key] = struct{}{}
}

func removeFrom(m map[string]map[string]struct{}, posting, key string) {
	if set, ok := m[posting]; ok {
		delete(set, key)
		if len(set) == 0 {
			delete(m, posting)
		}
	}
}

// candidates returns the series keys that may match (measurement,
// filter): the smallest posting set among the measurement's and each
// filter tag's. A filter tag with no posting at all means no series can
// match. ok=false reports that impossibility so callers can skip the
// shard walk entirely.
func (ix *tagIndex) candidates(measurement string, filter map[string]string) (keys []string, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	best, ok := ix.meas[measurement]
	if !ok {
		return nil, false
	}
	for k, v := range filter {
		set, ok := ix.tag[tagPosting(measurement, k, v)]
		if !ok {
			return nil, false
		}
		if len(set) < len(best) {
			best = set
		}
	}
	keys = make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	return keys, true
}

func (ix *tagIndex) measurements() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.meas))
	for m := range ix.meas {
		out = append(out, m)
	}
	return out
}

func (ix *tagIndex) reset() {
	ix.mu.Lock()
	ix.meas = nil
	ix.tag = nil
	ix.mu.Unlock()
}

// Open returns an empty database with the default segment window
// (DefaultWindow; see SetSegmentWindow).
func Open() *DB {
	db := &DB{window: DefaultWindow}
	for i := range db.shards {
		db.shards[i].series = make(map[string]*series)
	}
	return db
}

// insert appends or inserts one point keeping the series time-ordered.
// The in-order case appends in place; an out-of-order write builds
// fresh columns, because shifting in place would rewrite indexes that
// published views still read (docs/SERVING.md §1).
func (s *series) insert(t int64, v float64) {
	n := len(s.times)
	if n == 0 || s.times[n-1] <= t {
		s.times = append(s.times, t)
		s.values = append(s.values, v)
		return
	}
	idx := sort.Search(n, func(i int) bool { return s.times[i] > t })
	times := make([]int64, n+1)
	values := make([]float64, n+1)
	copy(times, s.times[:idx])
	copy(values, s.values[:idx])
	times[idx], values[idx] = t, v
	copy(times[idx+1:], s.times[idx:])
	copy(values[idx+1:], s.values[idx:])
	s.times, s.values = times, values
}

// getOrCreate returns the series for key, creating (and indexing) it on
// first use. The caller must hold sh.mu.
func (db *DB) getOrCreate(sh *shard, key, measurement string, tags map[string]string) *series {
	s, ok := sh.series[key]
	if !ok {
		s = &series{measurement: measurement, tags: cloneTags(tags)}
		sh.series[key] = s
		db.idx.add(measurement, s.tags, key)
	}
	return s
}

// writeLocked inserts one point into the series for key and moves the
// versions and the dirty-window set. The caller must hold sh.mu.
func (db *DB) writeLocked(sh *shard, key, measurement string, tags map[string]string, t time.Time, v float64) {
	s := db.getOrCreate(sh, key, measurement, tags)
	// A write into a lazy stub decodes it fully first; the mutable
	// insert path never sees block refs (docs/PERSISTENCE.md §9).
	s.materializeLocked()
	ns := t.UnixNano()
	s.insert(ns, v)
	s.version++
	sh.version++
	db.markDirtyLocked(sh, ns)
}

// SetWriteFloor makes the store drop, in Write and WriteBatch, every
// point whose timestamp is at or before t. A daemon that restores a
// snapshot and then deterministically replays its input from the
// beginning (tslpd restarting with the same seed) sets the floor to
// MaxTime() so the already-persisted prefix is not inserted a second
// time. Like SetSegmentWindow it must be called before the store is
// shared between goroutines; the zero time clears the floor.
func (db *DB) SetWriteFloor(t time.Time) {
	unlock := db.lockAll(true)
	defer unlock()
	db.floor = t
}

// MaxTime returns the latest point timestamp held by the store, or the
// zero time when the store is empty.
func (db *DB) MaxTime() time.Time {
	db.global.RLock()
	defer db.global.RUnlock()
	var max int64
	found := false
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if _, maxT, ok := s.timeBounds(); ok && (!found || maxT > max) {
				max, found = maxT, true
			}
		}
		sh.mu.RUnlock()
	}
	if !found {
		return time.Time{}
	}
	return time.Unix(0, max).UTC()
}

// timeBounds returns the series' first and last timestamps, ok=false
// when it holds no point. Lazy stubs answer from block summaries
// without a decode.
func (s *series) timeBounds() (minT, maxT int64, ok bool) {
	if s.lazy != nil {
		return s.lazy.timeBounds()
	}
	if len(s.times) == 0 {
		return 0, 0, false
	}
	// Columns are time-ordered: first and last bound the series.
	return s.times[0], s.times[len(s.times)-1], true
}

// belowFloor reports whether a point at t must be dropped (SetWriteFloor).
func (db *DB) belowFloor(t time.Time) bool {
	return !db.floor.IsZero() && !t.After(db.floor)
}

// Write appends one point to the series identified by measurement and
// tags, creating the series on first write. Points at or below the
// write floor are dropped (SetWriteFloor).
func (db *DB) Write(measurement string, tags map[string]string, t time.Time, v float64) {
	db.global.RLock()
	defer db.global.RUnlock()
	if db.belowFloor(t) {
		return
	}
	key := Key(measurement, tags)
	sh := &db.shards[shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	db.writeLocked(sh, key, measurement, tags, t, v)
}

// BatchPoint is one point of a WriteBatch.
type BatchPoint struct {
	Measurement string
	Tags        map[string]string
	Time        time.Time
	Value       float64
}

// WriteBatch ingests a set of points acquiring each destination shard's
// lock once, instead of once per point. The probing modules use it to
// flush a whole round in one go. Points at or below the write floor are
// dropped (SetWriteFloor).
func (db *DB) WriteBatch(points []BatchPoint) {
	if len(points) == 0 {
		return
	}
	db.global.RLock()
	defer db.global.RUnlock()
	// Group by shard so each lock is taken exactly once per batch;
	// points at or below the write floor are dropped here.
	var byShard [NumShards][]int
	keys := make([]string, len(points))
	for i, p := range points {
		if db.belowFloor(p.Time) {
			continue
		}
		keys[i] = Key(p.Measurement, p.Tags)
		s := shardFor(keys[i])
		byShard[s] = append(byShard[s], i)
	}
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.Lock()
		for _, i := range byShard[si] {
			p := points[i]
			db.writeLocked(sh, keys[i], p.Measurement, p.Tags, p.Time, p.Value)
		}
		sh.mu.Unlock()
	}
}

// SeriesCount returns the number of stored series.
func (db *DB) SeriesCount() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// PointCount returns the total number of stored points.
func (db *DB) PointCount() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			n += s.points()
		}
		sh.mu.RUnlock()
	}
	return n
}

// points returns the number of points the series holds.
func (s *series) points() int {
	if s.lazy != nil {
		return s.lazy.points
	}
	return len(s.times)
}

// matches reports whether the series' tags include all of filter.
func (s *series) matches(measurement string, filter map[string]string) bool {
	if s.measurement != measurement {
		return false
	}
	for k, v := range filter {
		if s.tags[k] != v {
			return false
		}
	}
	return true
}

// Query returns, for every series of the measurement matching the tag
// filter, the points within [from, to) in canonical key order. The
// returned series share no memory with the store: Query is a copy-out
// over QueryView.
func (db *DB) Query(measurement string, filter map[string]string, from, to time.Time) []Series {
	return copyViews(db.QueryView(measurement, filter, from, to))
}

// copyViews turns views into independent row-shaped series.
func copyViews(views []SeriesView) []Series {
	if len(views) == 0 {
		return nil
	}
	out := make([]Series, 0, len(views))
	for _, v := range views {
		cp := Series{Measurement: v.Measurement, Tags: cloneTags(v.Tags), Points: make([]Point, len(v.Times))}
		for i, t := range v.Times {
			cp.Points[i] = Point{Time: time.Unix(0, t).UTC(), Value: v.Values[i]}
		}
		out = append(out, cp)
	}
	return out
}

// queryScan is the pre-index full-scan implementation, kept as the
// reference the indexed path is benchmarked and equivalence-tested
// against.
func (db *DB) queryScan(measurement string, filter map[string]string, from, to time.Time) []Series {
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	var views []SeriesView
	var keys []string
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			if s.matches(measurement, filter) {
				// As in QueryViewWhere: a key per view actually appended.
				if views = s.appendView(views, fromNs, toNs, nil); len(views) > len(keys) {
					keys = append(keys, k)
				}
			}
		}
		sh.mu.RUnlock()
	}
	sortByKey(views, keys)
	return copyViews(views)
}

// TagValues returns the sorted distinct values of a tag across a
// measurement (e.g. all link ids with TSLP data). Only the measurement's
// own series are visited.
func (db *DB) TagValues(measurement, tag string) []string {
	keys, _ := db.idx.candidates(measurement, nil)
	set := map[string]bool{}
	db.readMatching(keys, measurement, nil, func(_ string, s *series) {
		if v, ok := s.tags[tag]; ok {
			set[v] = true
		}
	})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Measurements returns the sorted distinct measurement names.
func (db *DB) Measurements() []string {
	out := db.idx.measurements()
	sort.Strings(out)
	return out
}

// Retain drops every point outside [from, to) and removes series left
// empty. Long-running collection daemons call it to bound memory; the
// deployed system similarly aged raw data out of InfluxDB. It returns the
// number of points dropped.
func (db *DB) Retain(from, to time.Time) int {
	db.global.RLock()
	defer db.global.RUnlock()
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	dropped := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for key, s := range sh.series {
			if s.lazy != nil {
				// Summaries decide for free when the trim is a no-op —
				// the common case for a serving-tier store inside its
				// retention horizon; only a series actually losing
				// points pays for materialization.
				if minT, maxT, ok := s.lazy.timeBounds(); ok &&
					minT >= fromNs && maxT < toNs {
					continue
				}
				s.materializeLocked()
			}
			lo := sort.Search(len(s.times), func(i int) bool { return s.times[i] >= fromNs })
			hi := sort.Search(len(s.times), func(i int) bool { return s.times[i] >= toNs })
			if hi-lo == len(s.times) {
				continue
			}
			dropped += len(s.times) - (hi - lo)
			// The series loses points: its version must move so cached
			// views over it invalidate (docs/SERVING.md §2).
			s.version++
			sh.version++
			// Windows losing points must be rewritten (or deleted) by
			// the next incremental snapshot — and never append-extended,
			// since their on-disk payload stops being a prefix.
			db.markTrimmedLocked(sh, s.times[:lo])
			db.markTrimmedLocked(sh, s.times[hi:])
			if hi <= lo {
				delete(sh.series, key)
				db.idx.remove(s.measurement, s.tags, key)
				continue
			}
			// Capacity is cut to the kept length so the next append
			// reallocates: views taken before the trim may still read
			// the dropped tail.
			s.times, s.values = s.times[lo:hi:hi], s.values[lo:hi:hi]
		}
		sh.mu.Unlock()
	}
	return dropped
}

// lockAll freezes the whole store for a consistent point-in-time view:
// the exclusive global lock keeps every mutator out (they all hold the
// global read lock while working), so no per-shard locks are needed and
// no multi-shard acquisition cycle can form. When write is true the
// shard write locks are additionally taken, excluding concurrent readers
// too — RestoreDir needs that because it replaces the shard maps.
func (db *DB) lockAll(write bool) (unlock func()) {
	db.global.Lock()
	if write {
		for i := range db.shards {
			db.shards[i].mu.Lock()
		}
	}
	return func() {
		if write {
			for i := range db.shards {
				db.shards[i].mu.Unlock()
			}
		}
		db.global.Unlock()
	}
}

// Digest is the canonical whole-store fingerprint: FNV-64a over every
// series in sorted key order, each point contributing its Unix-nanosecond
// timestamp and bit-exact value. Two stores with equal digests hold the
// same data in the same per-series order — every persistence and
// replication path is proven against it (docs/PERSISTENCE.md §7), and
// the campaign determinism tests rely on the same construction.
func (db *DB) Digest() uint64 {
	unlock := db.lockAll(false)
	defer unlock()
	h := fnv.New64a()
	fold := func(times []int64, values []float64) {
		for i := range times {
			fmt.Fprintf(h, "%d %d\n", times[i], math.Float64bits(values[i]))
		}
	}
	for _, k := range db.sortedKeysLocked() {
		s := db.shards[shardFor(k)].series[k]
		fmt.Fprintf(h, "%s\n", k)
		if s.lazy == nil {
			fold(s.times, s.values)
			continue
		}
		// Transient decode: the digest of a lazy store must equal its
		// eager twin's (the §9 oracle) without materializing anything
		// or leaving the walk's blocks in the cache.
		for i := range s.lazy.blocks {
			d, _ := s.lazy.store.decodeOnce(&s.lazy.blocks[i])
			fold(d.times, d.values)
		}
	}
	return h.Sum64()
}

// sortedKeysLocked returns every series key in canonical order. The
// caller must hold the exclusive global lock.
func (db *DB) sortedKeysLocked() []string {
	var keys []string
	for i := range db.shards {
		for k := range db.shards[i].series {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func cloneTags(t map[string]string) map[string]string {
	out := make(map[string]string, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}
