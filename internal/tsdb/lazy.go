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
	"container/list"
	"fmt"
	"path/filepath"
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
	blocks int               // encoded block count
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
	blocks := 0
	for i := range list {
		blocks += len(list[i].Blocks)
	}
	return &lazyFile{name: sm.File, data: data, unmap: unmap, series: list, blocks: blocks}, nil
}

// appendRefs adds the file's series to a shard map under construction
// as lazy stubs, checking shard ownership. Callers feed files in
// ascending window order, which keeps each stub's refs time-ordered
// (windows partition time; blocks within a payload are time-ordered).
func (lf *lazyFile) appendRefs(shardSeries map[string]*series, ls *lazyStore, si int) error {
	ord := 0
	for i := range lf.series {
		bs := &lf.series[i]
		key := Key(bs.Measurement, bs.Tags)
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
			s.lazy.blocks = append(s.lazy.blocks, lazyBlockRef{
				key:  blockKey{file: lf.name, ord: ord},
				enc:  b,
				minT: b.MinT, maxT: b.MaxT,
				min: b.Min, max: b.Max, sum: b.Sum,
				count: b.Count,
			})
			s.lazy.points += b.Count
			ord++
		}
	}
	return nil
}

// restoreDirLazy is RestoreDir's lazy mode: reuse or create the lazy
// store, map only the manifest entries not already held, build the
// shard maps as stubs from summaries alone, and swap. On a store
// already lazy over the same directory (a follower hot-swap) the work
// is O(changed segments) — unchanged files, their parsed block lists
// and their cached decoded blocks all carry over.
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

	// Swap. All shard locks are held, so no reader can be mid-flight
	// on the old stubs while stale files are unmapped below.
	if err := db.installLocked(dir, m, newShards); err != nil {
		return err
	}

	// Drop files the new manifest no longer references.
	listed := make(map[string]bool, len(m.Segments))
	for _, sm := range m.Segments {
		listed[sm.File] = true
	}
	for name, lf := range ls.files {
		if listed[name] {
			continue
		}
		ls.cache.purgeFile(name)
		lf.close()
		delete(ls.files, name)
	}
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

// purgeFile drops every cached block of one segment file (called when
// a hot-swap retires the file).
func (c *blockCache) purgeFile(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.file == name {
			c.ll.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= e.bytes
		}
		el = next
	}
}

func (c *blockCache) stats() (hits, evictions uint64, cached int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.evictions, c.ll.Len(), c.bytes
}
