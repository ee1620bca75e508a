package tsdb

// Lazy block-pruned read path (docs/PERSISTENCE.md §9). A directory
// restored with DirOptions.Lazy is mapped, not decoded: every
// segment's payload is structurally parsed into its per-series blocks
// (summaries + still-encoded columns aliasing the mapping) and each
// series becomes a stub holding block references instead of columns.
// Queries prune whole blocks against the summaries' [minT,maxT] and
// [min,max] ranges and decode only the survivors, on demand, through a
// small decoded-block LRU — so cold opens are O(metadata), query cost
// is O(blocks touched), and resident memory tracks the working set
// rather than the directory.
//
// Invariants (enforced by tests against the DB.Digest oracle):
//
//   - Open mode is invisible to readers: every query, view, digest,
//     export and snapshot returns byte-identical results for eager and
//     lazy opens of the same directory.
//   - Pruning is conservative: a block is skipped only when its
//     summary proves no point can match; NaN value summaries are kept.
//   - Mutation materializes: a write or trim into a lazy series first
//     decodes it fully, so the mutable path never sees block refs.
//   - Block summaries are verified against decoded contents on every
//     decode (blockenc.Block.Decode); a summary that lied — which
//     open-time CRC verification cannot catch when the corruption was
//     encoded in — fails loud instead of mis-pruning.

import (
	"bytes"
	"container/list"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"interdomain/internal/pipeline"
	"interdomain/internal/tsdb/blockenc"
)

// DefaultBlockCacheBytes is the decoded-block LRU byte budget a lazy
// restore installs when DirOptions.BlockCacheBytes is zero: 16 MiB of
// decoded columns, roughly 1M points — small next to an eagerly decoded
// directory, large enough that a dashboard fanning out over the hot
// window never decodes a block twice (docs/PERSISTENCE.md §9.5).
const DefaultBlockCacheBytes = 16 << 20

// decodedBlockBytes is the heap cost the cache charges one decoded
// point: an int64 timestamp plus a float64 value.
const decodedBlockBytes = 16

// LazyStats is a point-in-time snapshot of a lazily opened store's
// read-path counters, surfaced on /api/v1/stats (docs/SERVING.md §4).
// Cumulative counters survive hot-swaps (RestoreDir onto the same
// directory), which is what makes "a tail commit reopened only the
// changed segments" observable.
type LazyStats struct {
	// Segments is the number of segment files currently mapped.
	Segments int `json:"segments"`
	// Blocks is the number of encoded blocks currently indexed.
	Blocks int `json:"blocks"`
	// SegmentsOpened counts segment files mapped and parsed since the
	// store first went lazy; a hot-swap that reuses a held file does
	// not increment it.
	SegmentsOpened uint64 `json:"segments_opened"`
	// SegmentsReused counts manifest entries satisfied by an
	// already-held file across hot-swaps.
	SegmentsReused uint64 `json:"segments_reused"`
	// BlocksScanned counts encoded blocks whose summaries were
	// consulted by queries.
	BlocksScanned uint64 `json:"blocks_scanned"`
	// BlocksSkipped counts encoded blocks pruned by summary alone —
	// never decoded for that query.
	BlocksSkipped uint64 `json:"blocks_skipped"`
	// BlocksDecoded counts block decodes actually performed (cache
	// misses).
	BlocksDecoded uint64 `json:"blocks_decoded"`
	// DecodedBytes counts the decoded-column bytes those decodes
	// produced (16 bytes per point), the cumulative cost the cache's
	// byte budget bounds the residency of.
	DecodedBytes uint64 `json:"decoded_bytes"`
	// SummaryOnlyBuckets counts aggregate buckets answered entirely
	// from block summaries — no decode, no cache traffic
	// (docs/PERSISTENCE.md §10).
	SummaryOnlyBuckets uint64 `json:"summary_only_buckets"`
	// CacheHits counts decoded-block cache hits.
	CacheHits uint64 `json:"cache_hits"`
	// CacheEvictions counts LRU evictions from the decoded-block cache.
	CacheEvictions uint64 `json:"cache_evictions"`
	// CachedBlocks is the number of decoded blocks currently cached.
	CachedBlocks int `json:"cached_blocks"`
	// CacheBytes is the decoded-column bytes currently cached, always
	// at or under the configured budget (plus at most one block).
	CacheBytes int64 `json:"cache_bytes"`
}

// blockKey identifies one encoded block for the decoded-block cache:
// segment file names are generation-qualified and immutable, so (file,
// ordinal within file) is stable for the file's lifetime.
type blockKey struct {
	file string
	ord  int
}

// decodedBlock is one block's decoded columns. The slices are fresh
// heap allocations (never aliases of a mapping), immutable once built,
// so they may outlive the segment file they came from — views hand
// them out, and unmapping at swap time cannot invalidate them.
type decodedBlock struct {
	times  []int64
	values []float64
}

// lazyFile is one held segment file: a mapped payload whose blocks
// alias data.
type lazyFile struct {
	name   string
	data   []byte
	unmap  func()
	series []blockenc.Series // blocks alias data
	keys   []string          // series key of each entry of series
	blocks int               // encoded block count
}

// payload returns the file's payload bytes (everything after the header).
func (lf *lazyFile) payload() []byte { return lf.data[segmentHeaderSize:] }

// ordinals returns the file's encoded blocks in the order blockKey.ord
// counts them: payload order, entry by entry.
func (lf *lazyFile) ordinals() []*blockenc.Block {
	out := make([]*blockenc.Block, 0, lf.blocks)
	for i := range lf.series {
		for bi := range lf.series[i].Blocks {
			out = append(out, &lf.series[i].Blocks[bi])
		}
	}
	return out
}

// close releases the file's mapping, if any.
func (lf *lazyFile) close() {
	if lf.unmap != nil {
		lf.unmap()
		lf.unmap = nil
	}
	lf.data, lf.series = nil, nil
}

// lazyStore owns everything a lazily opened directory shares across
// its series stubs: the held files, the decoded-block cache, and the
// read-path counters. It persists across RestoreDir calls onto the
// same directory — that reuse is what makes a follower hot-swap
// O(changed segments). The files map is mutated only under the store's
// exclusive all-shard lock (restore/drop); readers reach it through
// immutable lazySeries refs.
type lazyStore struct {
	dir   string
	files map[string]*lazyFile
	cache *blockCache

	// manifest is the manifest the store was last swapped to, and
	// versions the shard write-versions right after that swap: together
	// they say what the held stubs are, so the next swap can tell an
	// append it may apply in place from anything else (an unchanged
	// versions array proves no local write or trim touched a stub since).
	manifest *Manifest
	versions [NumShards]uint64

	// Current-state gauges, recomputed at each swap under the
	// exclusive lock.
	segments int
	blocks   int

	// Cumulative counters; atomic because queries bump them under
	// shard read locks.
	segmentsOpened     atomic.Uint64
	segmentsReused     atomic.Uint64
	blocksScanned      atomic.Uint64
	blocksSkipped      atomic.Uint64
	blocksDecoded      atomic.Uint64
	decodedBytes       atomic.Uint64
	summaryOnlyBuckets atomic.Uint64
}

func newLazyStore(dir string, cacheBytes int64) *lazyStore {
	if cacheBytes <= 0 {
		cacheBytes = DefaultBlockCacheBytes
	}
	return &lazyStore{
		dir:   dir,
		files: make(map[string]*lazyFile),
		cache: newBlockCache(cacheBytes),
	}
}

// close unmaps every held file. The caller must guarantee no reader
// can still reach the store's refs (all series materialized, or all
// shard maps replaced under the exclusive lock).
func (ls *lazyStore) close() {
	for _, lf := range ls.files {
		lf.close()
	}
	ls.files = make(map[string]*lazyFile)
}

// stats snapshots the store's counters.
func (ls *lazyStore) stats() LazyStats {
	hits, evictions, cached, cacheBytes := ls.cache.stats()
	return LazyStats{
		Segments:           ls.segments,
		Blocks:             ls.blocks,
		SegmentsOpened:     ls.segmentsOpened.Load(),
		SegmentsReused:     ls.segmentsReused.Load(),
		BlocksScanned:      ls.blocksScanned.Load(),
		BlocksSkipped:      ls.blocksSkipped.Load(),
		BlocksDecoded:      ls.blocksDecoded.Load(),
		DecodedBytes:       ls.decodedBytes.Load(),
		SummaryOnlyBuckets: ls.summaryOnlyBuckets.Load(),
		CacheHits:          hits,
		CacheEvictions:     evictions,
		CachedBlocks:       cached,
		CacheBytes:         cacheBytes,
	}
}

// decode returns the decoded columns for an encoded ref through the
// cache, inserting on a miss: the entry point of the query paths, whose
// blocks are likely to be asked for again.
func (ls *lazyStore) decode(r *lazyBlockRef) *decodedBlock {
	d, cached := ls.decodeOnce(r)
	if !cached {
		ls.cache.put(r.key, d)
	}
	return d
}

// decodeOnce returns the decoded columns for an encoded ref, from the
// cache when they are there, and reports whether they were; it never
// inserts. Whole-store walks (Digest, materialization) call it
// directly: they visit every block exactly once, so caching what they
// decode would only evict the serving hot set (docs/PERSISTENCE.md
// §9.5). Decode failure after open-time CRC verification means the
// summary lies about the block's contents (corruption encoded before
// the checksum) or the bytes changed underneath the mapping; the
// query paths have no error channel, so it fails loud (docs/
// PERSISTENCE.md §9) rather than silently serving or dropping data.
func (ls *lazyStore) decodeOnce(r *lazyBlockRef) (d *decodedBlock, cached bool) {
	if d, ok := ls.cache.get(r.key); ok {
		return d, true
	}
	ts, vs, err := r.enc.Decode()
	if err != nil {
		panic(fmt.Sprintf("tsdb: lazy read of segment %s block %d: %v (payload passed CRC verification at open; the block summary disagrees with its contents)",
			r.key.file, r.key.ord, err))
	}
	ls.blocksDecoded.Add(1)
	ls.decodedBytes.Add(uint64(len(ts)) * decodedBlockBytes)
	return &decodedBlock{times: ts, values: vs}, false
}

// lazySeries is a series stub's view of its data: time-ordered block
// references into the shared store. Immutable after the restore that
// built it; materialization swaps the whole stub out under the shard
// write lock.
type lazySeries struct {
	store  *lazyStore
	blocks []lazyBlockRef
	points int
}

// lazyBlockRef is one block of a lazy series: the summary fields
// needed for pruning and aggregate pushdown plus the encoded block.
type lazyBlockRef struct {
	key        blockKey
	enc        *blockenc.Block
	minT, maxT int64
	min, max   float64
	sum        float64
	count      int
}

// selectRefs returns the refs that may hold points in [fromNs, toNs)
// — and, with vb non-nil, whose value summary intersects the bound —
// bumping the store's scanned/skipped counters for the blocks
// consulted. NaN value summaries are conservatively kept.
func (l *lazySeries) selectRefs(fromNs, toNs int64, vb *ValueBound) []*lazyBlockRef {
	var out []*lazyBlockRef
	var scanned, skipped uint64
	for i := range l.blocks {
		r := &l.blocks[i]
		scanned++
		if r.maxT < fromNs || r.minT >= toNs {
			skipped++
			continue
		}
		if vb != nil && !vb.intersects(r.min, r.max) {
			skipped++
			continue
		}
		out = append(out, r)
	}
	l.store.blocksScanned.Add(scanned)
	l.store.blocksSkipped.Add(skipped)
	return out
}

// timeBounds returns the series' overall [minT, maxT] from summaries
// alone, ok=false for an empty stub.
func (l *lazySeries) timeBounds() (minT, maxT int64, ok bool) {
	for i := range l.blocks {
		r := &l.blocks[i]
		if !ok || r.minT < minT {
			minT = r.minT
		}
		if !ok || r.maxT > maxT {
			maxT = r.maxT
		}
		ok = true
	}
	return minT, maxT, ok
}

// materializeLocked decodes a lazy series fully into its columns and
// drops the stub, so the mutable write/trim paths and the column
// walkers see an ordinary series. Not a data mutation: the series
// version does not move. The caller must hold the shard write lock.
func (s *series) materializeLocked() {
	if s.lazy == nil {
		return
	}
	l := s.lazy
	s.times = make([]int64, 0, l.points)
	s.values = make([]float64, 0, l.points)
	for i := range l.blocks {
		d, _ := l.store.decodeOnce(&l.blocks[i])
		s.times = append(s.times, d.times...)
		s.values = append(s.values, d.values...)
	}
	s.lazy = nil
}

// materializeAllLocked decodes every lazily held series into columns
// and releases the lazy store. Whole-store operations that walk the
// columns (line-protocol export, segment planning) call it first so
// their output cannot depend on open mode. The caller must hold the
// exclusive global lock but no shard locks; each shard's write lock is
// taken in turn, so in-flight queries drain before their shard flips
// and no reader can reach a mapping once this returns.
func (db *DB) materializeAllLocked() {
	if db.lazy == nil {
		return
	}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			s.materializeLocked()
		}
		sh.mu.Unlock()
	}
	db.dropLazyLocked()
}

// dropLazyLocked unmaps and forgets the lazy store. The caller must
// hold the exclusive global lock and guarantee no series stub still
// references the store: either every series was materialized, or every
// shard map is being replaced while all shard locks are held.
func (db *DB) dropLazyLocked() {
	if db.lazy == nil {
		return
	}
	db.lazy.close()
	db.lazy = nil
}

// Close unmaps every segment file a lazy restore holds, after which
// LazyReadStats reports ok=false. It empties the store so no read can
// reach an unmapped block: a closed store answers as an empty one, and
// the epoch moves as on any whole-store replacement. Writes and
// RestoreDir work on a closed store as on a fresh one.
func (db *DB) Close() {
	unlock := db.lockAll(true)
	defer unlock()
	db.idx.reset()
	for i := range db.shards {
		db.shards[i].series = make(map[string]*series)
	}
	db.resetPersistenceLocked()
	db.dropLazyLocked()
	db.epoch++
}

// LazyReadStats reports the lazy read path's counters, ok=false when
// the store is not lazily open (never restored with DirOptions.Lazy,
// or fully materialized since).
func (db *DB) LazyReadStats() (LazyStats, bool) {
	db.global.RLock()
	defer db.global.RUnlock()
	if db.lazy == nil {
		return LazyStats{}, false
	}
	return db.lazy.stats(), true
}

// ---------------------------------------------------------------------------
// Lazy open.

// openLazyFile maps one committed segment and prepares it for lazy
// serving: the payload is verified (header identity + CRC) and
// structurally decoded so its blocks alias the mapping.
func openLazyFile(dir string, sm SegmentMeta) (*lazyFile, error) {
	data, unmap, err := mapFile(filepath.Join(dir, sm.File))
	if err != nil {
		return nil, fmt.Errorf("tsdb: segment %s: %w", sm.File, err)
	}
	payload, err := verifySegmentBytes(data, sm)
	if err != nil {
		unmap()
		return nil, err
	}
	list, err := decodeBlockPayload(payload, sm)
	if err != nil {
		unmap()
		return nil, err
	}
	lf := &lazyFile{name: sm.File, data: data, unmap: unmap, series: list}
	for i := range list {
		lf.blocks += len(list[i].Blocks)
	}
	return lf, nil
}

// fillKeys computes the series key of every entry once, taking the
// leading ones from prefix: the keys of a predecessor whose entries
// this file's payload starts with verbatim.
func (lf *lazyFile) fillKeys(prefix []string) {
	if lf.keys != nil {
		return
	}
	lf.keys = make([]string, len(lf.series))
	for i := copy(lf.keys, prefix); i < len(lf.series); i++ {
		lf.keys[i] = Key(lf.series[i].Measurement, lf.series[i].Tags)
	}
}

// newBlockRef is the lazy ref of block b, the ord-th of file.
func newBlockRef(file string, ord int, b *blockenc.Block) lazyBlockRef {
	return lazyBlockRef{
		key:  blockKey{file: file, ord: ord},
		enc:  b,
		minT: b.MinT, maxT: b.MaxT,
		min: b.Min, max: b.Max, sum: b.Sum,
		count: b.Count,
	}
}

// appendRefs adds the file's series to a shard map under construction
// as lazy stubs, checking shard ownership. Callers feed files in
// ascending window order, which keeps each stub's refs time-ordered
// (windows partition time; blocks within a payload are time-ordered).
func (lf *lazyFile) appendRefs(shardSeries map[string]*series, ls *lazyStore, si int) error {
	lf.fillKeys(nil)
	ord := 0
	for i := range lf.series {
		bs := &lf.series[i]
		key := lf.keys[i]
		if shardFor(key) != uint32(si) {
			return fmt.Errorf("tsdb: segment %s: series %q does not belong to shard %d", lf.name, key, si)
		}
		s, ok := shardSeries[key]
		if !ok {
			s = &series{measurement: bs.Measurement, tags: bs.Tags, lazy: &lazySeries{store: ls}}
			shardSeries[key] = s
		}
		for bi := range bs.Blocks {
			b := &bs.Blocks[bi]
			s.lazy.blocks = append(s.lazy.blocks, newBlockRef(lf.name, ord, b))
			s.lazy.points += b.Count
			ord++
		}
	}
	return nil
}

// restoreDirLazy is RestoreDir's lazy mode: reuse or create the lazy
// store, map only the manifest entries not already held, and swap. On a
// store already lazy over the same directory (a follower hot-swap)
// unchanged files, their parsed block lists and their cached decoded
// blocks all carry over. When every difference from the held
// generation is an append, the swap extends the held stubs in place and
// keeps the epoch — O(changed segments) end to end; otherwise it
// rebuilds every stub from summaries alone and moves the epoch.
func (db *DB) restoreDirLazy(dir string, m *Manifest, opts DirOptions) error {
	unlock := db.lockAll(true)
	defer unlock()

	ls := db.lazy
	if ls != nil && ls.dir != dir {
		db.dropLazyLocked()
		ls = nil
	}
	fresh := ls == nil
	if fresh {
		ls = newLazyStore(dir, opts.BlockCacheBytes)
	}

	var toOpen []SegmentMeta
	for _, sm := range m.Segments {
		if _, ok := ls.files[sm.File]; !ok {
			toOpen = append(toOpen, sm)
		}
	}
	opened := make([]*lazyFile, len(toOpen))
	installed := false
	defer func() {
		if installed {
			return
		}
		// Failed restore: roll the newly opened files back out so a
		// reused store is exactly as before, and a fresh one is empty.
		for _, lf := range opened {
			if lf != nil {
				delete(ls.files, lf.name)
				lf.close()
			}
		}
		if fresh {
			ls.close()
		}
	}()

	pool := pipeline.NewPool(opts.Workers)
	defer pool.Close()
	jobs := make([]func() error, len(toOpen))
	for i := range toOpen {
		i := i
		jobs[i] = func() error {
			lf, err := openLazyFile(dir, toOpen[i])
			if err != nil {
				return err
			}
			opened[i] = lf
			return nil
		}
	}
	if err := pool.DoErr(jobs...); err != nil {
		return fmt.Errorf("tsdb: restoredir: %w", err)
	}
	for _, lf := range opened {
		ls.files[lf.name] = lf
	}

	// The swap. All shard locks are held, so no reader can be mid-flight
	// on the old stubs while stale files are unmapped below. An
	// append-only generation extends the held stubs and keeps the epoch;
	// anything else rebuilds every stub and moves it.
	succ := map[string]string{} // superseded file → its successor
	if changes, ok := db.planAppendsLocked(ls, m); ok {
		db.applyAppendsLocked(ls, m, changes, succ)
	} else {
		// Build the new shard maps from summaries alone, in ascending
		// window order per shard (same merge order as the eager path).
		newShards := make([]map[string]*series, NumShards)
		for si, sms := range segmentsByShard(m) {
			newShards[si] = make(map[string]*series)
			for _, sm := range sms {
				if err := ls.files[sm.File].appendRefs(newShards[si], ls, si); err != nil {
					return fmt.Errorf("tsdb: restoredir: %w", err)
				}
			}
		}
		if err := db.installLocked(dir, m, newShards); err != nil {
			return err
		}
	}
	ls.manifest = m
	for i := range db.shards {
		ls.versions[i] = db.shards[i].version
	}

	// Drop files the new manifest no longer references; a superseded
	// file's cached blocks move to its successor, whose prefix holds the
	// same blocks at the same ordinals.
	listed := make(map[string]bool, len(m.Segments))
	for _, sm := range m.Segments {
		listed[sm.File] = true
	}
	for name, lf := range ls.files {
		if listed[name] {
			continue
		}
		if _, ok := succ[name]; !ok {
			succ[name] = ""
		}
		lf.close()
		delete(ls.files, name)
	}
	ls.cache.retire(succ)
	ls.segments, ls.blocks = len(ls.files), 0
	for _, lf := range ls.files {
		ls.blocks += lf.blocks
	}
	ls.segmentsOpened.Add(uint64(len(toOpen)))
	ls.segmentsReused.Add(uint64(len(m.Segments) - len(toOpen)))
	db.lazy = ls
	installed = true
	return nil
}

// ---------------------------------------------------------------------------
// Epoch-keeping hot-swap (docs/PERSISTENCE.md §9.3).

// segIdentity keys a manifest entry by what survives generations: its
// shard and window span.
type segIdentity struct {
	shard      int
	start, end int64
}

func identityOf(sm SegmentMeta) segIdentity {
	return segIdentity{sm.Shard, sm.WindowStart, sm.WindowEnd}
}

// appendChange is one new file an in-place swap applies: it extends a
// held predecessor (prev non-nil) or opens a window after every held
// window of its shard. adds holds the blocks it appends per series key.
type appendChange struct {
	sm         SegmentMeta
	file, prev *lazyFile
	adds       map[string]*seriesAdd
}

// seriesAdd is what one appendChange appends to one series.
type seriesAdd struct {
	first  *blockenc.Series // entry naming the series, for one new to the store
	refs   []lazyBlockRef
	points int
}

// planAppendsLocked decides whether m differs from the manifest the
// lazy store holds only by appends, and returns the changes in (shard,
// window) order. An append is a cursor-carrying entry whose payload
// starts with its held predecessor's entries region byte for byte, or
// a new window after every held window of its shard. ok is false —
// and the caller rebuilds — for anything else: a removed entry
// (retention), a merge (compaction), a rewrite without a cursor, a
// backfilled window, a store written or trimmed locally since its last
// swap, and a generation whose totals the appends do not add up to.
// Every file m lists must be held. It changes nothing.
func (db *DB) planAppendsLocked(ls *lazyStore, m *Manifest) (changes []appendChange, ok bool) {
	held := ls.manifest
	if held == nil || db.snapDir != ls.dir || db.snapGen != held.Generation || held.WindowNanos != m.WindowNanos {
		return nil, false
	}
	for i := range db.shards {
		if db.shards[i].version != ls.versions[i] {
			return nil, false
		}
	}
	byFile := make(map[string]SegmentMeta, len(held.Segments))
	byIdent := make(map[segIdentity]string, len(held.Segments))
	var lastEnd [NumShards]int64
	for i := range lastEnd {
		lastEnd[i] = math.MinInt64
	}
	for _, sm := range held.Segments {
		byFile[sm.File] = sm
		byIdent[identityOf(sm)] = sm.File
		lastEnd[sm.Shard] = max(lastEnd[sm.Shard], sm.WindowEnd)
	}
	// Every held file must be accounted for exactly once: kept as it is,
	// or superseded by the one entry extending it.
	consumed := make(map[string]bool, len(held.Segments))
	for _, sm := range m.Segments {
		if h, ok := byFile[sm.File]; ok {
			if h != sm || consumed[sm.File] {
				return nil, false
			}
			consumed[sm.File] = true
			continue
		}
		c := appendChange{sm: sm, file: ls.files[sm.File]}
		if prev, ok := byIdent[identityOf(sm)]; ok {
			if consumed[prev] {
				return nil, false
			}
			consumed[prev] = true
			c.prev = ls.files[prev]
			if !extendsPrefix(c.file, c.prev, sm.AppendCursor) {
				return nil, false
			}
			c.file.fillKeys(c.prev.keys)
		} else if sm.WindowStart < lastEnd[sm.Shard] {
			return nil, false
		} else {
			c.file.fillKeys(nil)
		}
		changes = append(changes, c)
	}
	if len(consumed) != len(held.Segments) {
		return nil, false
	}
	sort.Slice(changes, func(i, j int) bool {
		a, b := changes[i].sm, changes[j].sm
		return a.Shard < b.Shard || (a.Shard == b.Shard && a.WindowStart < b.WindowStart)
	})

	// Gather what every change appends, and prove it all lands on lazy
	// stubs of the right shard and adds up to m's totals.
	gained, series := 0, 0
	for i := range db.shards {
		series += len(db.shards[i].series)
	}
	created := map[string]bool{}
	for ci := range changes {
		c := &changes[ci]
		if ci > 0 && changes[ci-1].sm.Shard == c.sm.Shard && c.sm.WindowStart < changes[ci-1].sm.WindowEnd {
			return nil, false // overlapping new windows
		}
		sh := &db.shards[c.sm.Shard]
		from, ord := 0, 0
		if c.prev != nil {
			from, ord = len(c.prev.series), c.prev.blocks
			for _, key := range c.prev.keys {
				if s := sh.series[key]; s == nil || s.lazy == nil {
					return nil, false
				}
			}
		}
		c.adds = make(map[string]*seriesAdd)
		for i := from; i < len(c.file.series); i++ {
			bs, key := &c.file.series[i], c.file.keys[i]
			if shardFor(key) != uint32(c.sm.Shard) {
				return nil, false
			}
			if s := sh.series[key]; s == nil {
				if !created[key] {
					created[key] = true
					series++
				}
			} else if s.lazy == nil {
				return nil, false
			}
			a := c.adds[key]
			if a == nil {
				a = &seriesAdd{first: bs}
				c.adds[key] = a
			}
			for bi := range bs.Blocks {
				b := &bs.Blocks[bi]
				a.refs = append(a.refs, newBlockRef(c.file.name, ord, b))
				a.points += b.Count
				gained += b.Count
				ord++
			}
		}
	}
	if held.TotalPoints+gained != m.TotalPoints || (m.StoreSeries != 0 && series != m.StoreSeries) {
		return nil, false
	}
	return changes, true
}

// extendsPrefix reports whether next's payload is prev's entries region
// verbatim up to cursor, behind next's own series-count head — the
// append-extend relationship of docs/REPLICATION.md §8, checked on the
// mapped bytes rather than taken on the manifest's word.
func extendsPrefix(next, prev *lazyFile, cursor int64) bool {
	np, pp := next.payload(), prev.payload()
	_, nHead, err := blockenc.PayloadHead(np)
	if err != nil {
		return false
	}
	_, pHead, err := blockenc.PayloadHead(pp)
	if err != nil {
		return false
	}
	entries := pp[pHead:]
	return cursor == int64(nHead+len(entries)) && cursor <= int64(len(np)) &&
		bytes.Equal(np[nHead:cursor], entries) && len(next.series) >= len(prev.series)
}

// applyAppendsLocked applies planned appends to the held stubs: refs
// into a superseded file move to the same ordinal of its successor, the
// appended blocks are spliced in after their window's held blocks, and
// each touched series' version advances by exactly the points it
// gained — the arithmetic the leader's per-point writes did, so a
// cursor over the old view stays provable (docs/DETECTION.md §4). The
// epoch stays. Each superseded file is recorded in succ under its
// successor's name.
func (db *DB) applyAppendsLocked(ls *lazyStore, m *Manifest, changes []appendChange, succ map[string]string) {
	for _, c := range changes {
		sh := &db.shards[c.sm.Shard]
		var prev string
		var ords []*blockenc.Block
		if c.prev != nil {
			prev, ords = c.prev.name, c.file.ordinals()
			succ[prev] = c.file.name
			for _, key := range c.prev.keys {
				if _, ok := c.adds[key]; !ok {
					c.adds[key] = &seriesAdd{}
				}
			}
		}
		for key, a := range c.adds {
			s := sh.series[key]
			if s == nil {
				s = &series{measurement: a.first.Measurement, tags: a.first.Tags, lazy: &lazySeries{store: ls}}
				sh.series[key] = s
				db.idx.add(s.measurement, s.tags, key)
			}
			s.lazy = s.lazy.extended(prev, c.file.name, ords, a, c.sm.WindowEnd)
			s.version += uint64(a.points)
			sh.version += uint64(a.points)
		}
	}
	db.snapGen = m.Generation
}

// extended returns a copy of the stub with refs into file prev moved to
// the same ordinal of next (blocks, indexed by ordinal) and a's refs
// spliced in before the first block at or past end: after the extended
// window's own blocks, before any later window's.
func (l *lazySeries) extended(prev, next string, blocks []*blockenc.Block, a *seriesAdd, end int64) *lazySeries {
	old := l.blocks
	pos := sort.Search(len(old), func(i int) bool { return old[i].minT >= end })
	out := make([]lazyBlockRef, 0, len(old)+len(a.refs))
	out = append(out, old[:pos]...)
	if prev != "" {
		for i := range out {
			if r := &out[i]; r.key.file == prev {
				r.key.file, r.enc = next, blocks[r.key.ord]
			}
		}
	}
	out = append(out, a.refs...)
	out = append(out, old[pos:]...)
	return &lazySeries{store: l.store, blocks: out, points: l.points + a.points}
}

// ---------------------------------------------------------------------------
// Decoded-block LRU.

// blockCache is the byte-budgeted decoded-block LRU shared by a lazy
// store's readers (docs/PERSISTENCE.md §9.5). Each entry is charged
// the heap its decoded columns occupy (decodedBlockBytes per point);
// inserts evict from the cold end until the total fits the budget
// again, always keeping at least the entry just inserted so a block
// larger than the whole budget is still served from cache while hot.
// Entries are immutable decoded columns; eviction only drops the
// cache's reference, so views handed out earlier stay valid.
type blockCache struct {
	mu        sync.Mutex
	budget    int64      // max bytes of decoded columns to retain
	bytes     int64      // currently retained
	ll        *list.List // front = most recent; values are *cacheEntry
	entries   map[blockKey]*list.Element
	hits      uint64
	evictions uint64
}

type cacheEntry struct {
	key   blockKey
	dec   *decodedBlock
	bytes int64
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[blockKey]*list.Element),
	}
}

func (c *blockCache) get(k blockKey) (*decodedBlock, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).dec, true
}

func (c *blockCache) put(k blockKey, d *decodedBlock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		// A concurrent reader decoded the same block; keep the first.
		c.ll.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: k, dec: d, bytes: int64(len(d.times)) * decodedBlockBytes}
	c.entries[k] = c.ll.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget && c.ll.Len() > 1 {
		back := c.ll.Back()
		c.ll.Remove(back)
		be := back.Value.(*cacheEntry)
		delete(c.entries, be.key)
		c.bytes -= be.bytes
		c.evictions++
	}
}

// retire updates the cache for the segment files a hot-swap retired,
// in one pass: succ maps each retired file to the successor whose
// prefix holds its blocks at the same ordinals — their cached blocks
// are re-keyed to it, keeping their recency — or to "" when there is
// none and they are dropped.
func (c *blockCache) retire(succ map[string]string) {
	if len(succ) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if to, ok := succ[e.key.file]; ok {
			delete(c.entries, e.key)
			e.key.file = to
			if _, taken := c.entries[e.key]; to == "" || taken {
				c.ll.Remove(el)
				c.bytes -= e.bytes
			} else {
				c.entries[e.key] = el
			}
		}
		el = next
	}
}

func (c *blockCache) stats() (hits, evictions uint64, cached int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.evictions, c.ll.Len(), c.bytes
}
