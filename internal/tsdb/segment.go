package tsdb

// Segmented on-disk persistence: the store persists as one file per
// time window, holding every series with points in it, plus a
// manifest — the way InfluxDB, the deployed system's backend (§3 of the
// paper), partitions its files by shard-group time range. Retention
// becomes a file delete, snapshot/restore parallelizes over windows,
// and a publish round that touched one window writes one file.
//
// The segment file format implemented here is specified normatively in
// docs/PERSISTENCE.md; the constants below mirror its §2 and tests cite
// the doc section they enforce.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"interdomain/internal/pipeline"
	"interdomain/internal/tsdb/blockenc"
)

const (
	// SegmentMagic opens every segment file (docs/PERSISTENCE.md §2,
	// field 1). Eight bytes so a corrupt or foreign file fails fast.
	SegmentMagic = "ITSDBSEG"

	// SegmentVersion is the one segment format version this package
	// writes and reads: columnar per-series blocks of delta-of-delta
	// varint timestamps and Gorilla XOR-compressed values, each fronted
	// by a (minT, maxT, min, max, sum, count) summary, one file per time
	// window holding every series with points in it
	// (docs/PERSISTENCE.md §2). A header declaring any other version —
	// the per-shard v3 layout included — is a descriptive error wrapping
	// ErrSegmentVersion, never a silent skip (docs/PERSISTENCE.md §2,
	// "Versioning").
	SegmentVersion = 4

	// segmentHeaderSize is the fixed byte length of the header laid out
	// in docs/PERSISTENCE.md §2: magic(8) + version(4) + windowStart(8) +
	// windowEnd(8) + series(4) + points(8) + payloadLen(8) + crc(4).
	segmentHeaderSize = 8 + 4 + 8 + 8 + 4 + 8 + 8 + 4

	// segmentSuffix is the extension of segment files.
	segmentSuffix = ".seg"

	// tmpSuffix marks in-flight files; they are invisible to RestoreDir
	// and reaped by the next SnapshotDir (docs/PERSISTENCE.md §4).
	tmpSuffix = ".tmp"
)

// DefaultWindow is the segment window length used by Open: one UTC day,
// matching both the queries the analysis layer runs (day-link windows)
// and the retention granularity the deployed system used.
const DefaultWindow = 24 * time.Hour

// crcTable is the Castagnoli table shared by all segment writers and
// readers (docs/PERSISTENCE.md §2, field 9).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSegmentVersion is wrapped by every "segment format version is not
// the supported one" error, so readers that must distinguish a
// version-skewed directory from plain corruption can errors.Is against
// it (docs/PERSISTENCE.md §2, "Versioning").
var ErrSegmentVersion = errors.New("unsupported segment format version")

// DirOptions configures SnapshotDir and RestoreDir.
type DirOptions struct {
	// Workers bounds the concurrent segment encoders (SnapshotDir) or
	// openers (RestoreDir). 0 means one per CPU; 1 runs fully
	// sequentially on the calling goroutine.
	Workers int
	// Incremental lets SnapshotDir rewrite only segments whose window
	// was touched since the store's previous snapshot into the
	// same directory, reusing the rest byte-for-byte. It silently falls
	// back to a full snapshot when the directory does not match the
	// store's bookkeeping (first snapshot, foreign directory, or another
	// writer committed in between).
	Incremental bool
	// Lazy is ignored: every RestoreDir maps its directory
	// (docs/PERSISTENCE.md §9).
	//
	// Deprecated: RestoreDir has one mode; leave Lazy unset.
	Lazy bool
	// BlockCacheBytes bounds the decoded-block LRU RestoreDir installs
	// by the bytes its decoded columns occupy (docs/PERSISTENCE.md
	// §9.5); 0 means DefaultBlockCacheBytes. Ignored by SnapshotDir.
	BlockCacheBytes int64
}

// DirStats reports what a SnapshotDir call did.
type DirStats struct {
	// Segments is the number of segment files the directory now holds.
	Segments int
	// Written is how many of those were (re)written by this call.
	Written int
	// Reused is how many were carried over unchanged (incremental path).
	Reused int
	// Removed is the number of segment files deleted: replaced and stale
	// files of the previous generation (deleted after the manifest
	// commit) plus reaped leftovers of crashed attempts.
	Removed int
	// Series is the store's series count at snapshot time.
	Series int
	// Points is the store's point count at snapshot time.
	Points int
	// Generation is the manifest generation this call published.
	Generation uint64
}

// windowStartNanos floors a Unix-nanosecond timestamp to its window's
// inclusive lower bound. Floor division keeps pre-1970 timestamps in
// the correct window.
func windowStartNanos(ns int64, window time.Duration) int64 {
	w := int64(window)
	k := ns / w
	if ns%w < 0 {
		k--
	}
	return k * w
}

// segmentFileName is the canonical segment file name for the window
// span starting at winStart, written at manifest generation gen:
// "seg-<windowStartNanos>-g<gen>.seg". Spans are disjoint, so the start
// alone names a span within a generation. The manifest, not the name,
// binds a file to its identity (docs/PERSISTENCE.md §3) — but the
// generation suffix is load-bearing for crash safety: a writer never
// renames over a previous generation's file, so every file the
// committed manifest references stays intact until a NEW manifest that
// no longer references it has been published (docs/PERSISTENCE.md §4).
func segmentFileName(winStart int64, gen uint64) string {
	return fmt.Sprintf("seg-%d-g%d%s", winStart, gen, segmentSuffix)
}

// parseSegmentGen extracts the generation from a segment file name. A
// name not of the form "seg-<windowStart>-g<gen>.seg" (gen >= 1) —
// the per-shard names of format v3 included — reports ok = false;
// readers must then treat the file as corruption, not as a leftover
// (docs/PERSISTENCE.md §4).
func parseSegmentGen(name string) (gen uint64, ok bool) {
	base, found := strings.CutPrefix(name, "seg-")
	if !found {
		return 0, false
	}
	if base, found = strings.CutSuffix(base, segmentSuffix); !found {
		return 0, false
	}
	win, g, found := strings.Cut(base, "-g")
	if !found {
		return 0, false
	}
	if _, err := strconv.ParseInt(win, 10, 64); err != nil {
		return 0, false
	}
	gen, err := strconv.ParseUint(g, 10, 64)
	if err != nil || gen == 0 {
		return 0, false
	}
	return gen, true
}

// segChunk is one series' points inside one segment span: column
// subslices aliasing the store, valid only while the snapshot holds
// the store lock.
type segChunk struct {
	measurement string
	tags        map[string]string
	times       []int64
	values      []float64
}

// segPlan is one segment to persist: every series' chunk falling into
// one window span. Freshly planned segments span exactly one window;
// rewrites of compacted segments keep the merged span
// (docs/PERSISTENCE.md §8).
type segPlan struct {
	winStart int64
	winEnd   int64
	level    int
	series   []segChunk // one per series, in canonical key order
	points   int
	meta     SegmentMeta // filled by the encoder
	// prev, when set, is the committed predecessor segment for the same
	// window span whose windows were dirtied by inserts only:
	// the encoder may append-extend it — reuse its payload bytes as a
	// verbatim prefix and encode only the appended tail — recording the
	// splice point in the manifest's append cursor
	// (docs/REPLICATION.md §8). Nil forces a full re-encode.
	prev *SegmentMeta
}

// SetSegmentWindow changes the segment window length used by the dirty
// tracker, SnapshotDir and windows of future segments. It must be
// called before the store is shared between goroutines (typically right
// after Open); it resets all persistence bookkeeping, so the next
// incremental snapshot falls back to a full one.
func (db *DB) SetSegmentWindow(window time.Duration) {
	if window <= 0 {
		window = DefaultWindow
	}
	unlock := db.lockAll(true)
	defer unlock()
	db.window = window
	db.resetPersistenceLocked()
}

// resetPersistenceLocked clears dirty-window sets and the last-snapshot
// bookkeeping. Callers must hold the exclusive global lock.
func (db *DB) resetPersistenceLocked() {
	for i := range db.shards {
		db.shards[i].dirty = nil
		db.shards[i].trimmed = nil
	}
	db.snapDir = ""
	db.snapGen = 0
}

// markDirtyLocked records that the window containing the
// Unix-nanosecond timestamp ns changed in the shard; SnapshotDir
// rewrites a window any shard marked. Callers must hold sh.mu.
func (db *DB) markDirtyLocked(sh *shard, ns int64) {
	if sh.dirty == nil {
		sh.dirty = make(map[int64]struct{})
	}
	sh.dirty[windowStartNanos(ns, db.window)] = struct{}{}
}

// markTrimmedLocked records that every window holding one of times
// (ascending) lost points: dirty, and disqualified from append-extend
// persistence until the next snapshot (docs/REPLICATION.md §8).
// Callers must hold sh.mu.
func (db *DB) markTrimmedLocked(sh *shard, times []int64) {
	for len(times) > 0 {
		win := windowStartNanos(times[0], db.window)
		db.markDirtyLocked(sh, win)
		if sh.trimmed == nil {
			sh.trimmed = make(map[int64]struct{})
		}
		sh.trimmed[win] = struct{}{}
		end := win + int64(db.window)
		times = times[sort.Search(len(times), func(i int) bool { return times[i] >= end }):]
	}
}

// planSegments cuts every series' columns into segment spans and groups
// the chunks per span, every span's series in canonical key order
// whichever in-memory shard holds them. span maps a base window's start
// to the [start, end) its segment must cover. The plans come back in
// window order. They alias store memory; the caller must hold the
// store lock until encoding finishes.
func (db *DB) planSegments(span func(win int64) (start, end int64)) []*segPlan {
	n := 0
	for si := range db.shards {
		n += len(db.shards[si].series)
	}
	type keyed struct {
		key string
		s   *series
	}
	all := make([]keyed, 0, n)
	for si := range db.shards {
		for k, s := range db.shards[si].series {
			all = append(all, keyed{k, s})
		}
	}
	slices.SortFunc(all, func(a, b keyed) int { return strings.Compare(a.key, b.key) })

	var out []*segPlan
	byStart := make(map[int64]*segPlan)
	for _, ks := range all {
		s := ks.s
		ts, vs := s.times, s.values
		for len(ts) > 0 {
			start, end := span(windowStartNanos(ts[0], db.window))
			hi := sort.Search(len(ts), func(i int) bool { return ts[i] >= end })
			p, ok := byStart[start]
			if !ok {
				p = &segPlan{winStart: start, winEnd: end}
				byStart[start] = p
				out = append(out, p)
			}
			p.series = append(p.series, segChunk{s.measurement, s.tags, ts[:hi], vs[:hi]})
			p.points += hi
			ts, vs = ts[hi:], vs[hi:]
		}
	}
	slices.SortFunc(out, func(a, b *segPlan) int { return cmp.Compare(a.winStart, b.winStart) })
	return out
}

// writeSegment writes one segment file of the pass's generation
// (docs/PERSISTENCE.md §2) through the one durable write and returns
// its manifest entry. It never touches a committed file: until the
// commit publishes a manifest listing it, the file is an inert
// leftover (docs/PERSISTENCE.md §4).
func (tx *dirTxn) writeSegment(winStart, winEnd int64, seriesCount, points, level int, payload []byte) (SegmentMeta, error) {
	name := segmentFileName(winStart, tx.gen)
	crc := crc32.Checksum(payload, crcTable)

	file := make([]byte, 0, segmentHeaderSize+len(payload))
	file = append(file, SegmentMagic...)
	file = binary.BigEndian.AppendUint32(file, SegmentVersion)
	file = binary.BigEndian.AppendUint64(file, uint64(winStart))
	file = binary.BigEndian.AppendUint64(file, uint64(winEnd))
	file = binary.BigEndian.AppendUint32(file, uint32(seriesCount))
	file = binary.BigEndian.AppendUint64(file, uint64(points))
	file = binary.BigEndian.AppendUint64(file, uint64(len(payload)))
	file = binary.BigEndian.AppendUint32(file, crc)
	if err := writeDurable(tx.dir, name, append(file, payload...)); err != nil {
		return SegmentMeta{}, fmt.Errorf("tsdb: write segment %s: %w", name, err)
	}
	return SegmentMeta{
		File:        name,
		WindowStart: winStart,
		WindowEnd:   winEnd,
		Series:      seriesCount,
		Points:      points,
		CRC:         crc,
		Level:       level,
	}, nil
}

// appendExtendMaxFragmentation bounds how many payload entries an
// append-extended segment may accumulate per distinct series key before
// the encoder forces a full re-encode. Every append-extend generation
// adds up to one entry per appended key (duplicates merge on read,
// docs/PERSISTENCE.md §2.2), so without a cap a hot window extended
// every tick would make structural decodes linear in tick count.
const appendExtendMaxFragmentation = 64

// appendExtendPayload tries to build a dirty-span plan's payload by
// reusing the committed predecessor's payload bytes as a verbatim
// prefix and encoding only the newly appended points as extra entries
// — the sub-segment checkpoint the delta-shipping protocol rides on
// (docs/REPLICATION.md §8). It returns a nil payload whenever the plan
// is not a pure append of the predecessor (backfill, changed keys,
// excessive fragmentation, or any read error), in which case the
// caller falls back to the full encoder. Otherwise it also returns the
// payload's series entry count and the append cursor: the byte offset
// where the appended entries begin.
func appendExtendPayload(dir string, p *segPlan) ([]byte, int, int64) {
	prev := *p.prev
	payload, err := loadSegmentPayload(dir, prev)
	if err != nil {
		return nil, 0, 0
	}
	oldList, err := decodeBlockPayload(payload, prev)
	if err != nil {
		return nil, 0, 0
	}
	_, headLen, err := blockenc.PayloadHead(payload)
	if err != nil {
		return nil, 0, 0
	}

	// Aggregate the old payload per key: entry duplicates from earlier
	// append-extends merge here in payload order, exactly as every
	// reader merges them.
	type oldAgg struct {
		count int
		maxT  int64
	}
	old := make(map[string]*oldAgg, len(oldList))
	for i := range oldList {
		s := &oldList[i]
		key := Key(s.Measurement, s.Tags)
		a, ok := old[key]
		if !ok {
			a = &oldAgg{maxT: math.MinInt64}
			old[key] = a
		}
		for _, b := range s.Blocks {
			a.count += b.Count
			if b.MaxT > a.maxT {
				a.maxT = b.MaxT
			}
		}
	}
	if len(oldList) >= appendExtendMaxFragmentation*len(old) {
		return nil, 0, 0
	}

	// The pure-append proof: store writes are insert-only and no window
	// of this span was trimmed since the previous snapshot (segPlan.prev
	// is only set then), so a key's persisted prefix is unchanged exactly
	// when the number of points at or before its old last timestamp still
	// equals its old count — any insert at or before that timestamp moves
	// the count past it.
	var appended []blockenc.Series
	tail := 0
	for _, c := range p.series {
		key := Key(c.measurement, c.tags)
		idx := 0
		if o, ok := old[key]; ok {
			idx = sort.Search(len(c.times), func(i int) bool { return c.times[i] > o.maxT })
			if idx != o.count {
				return nil, 0, 0
			}
			delete(old, key)
		}
		// A key new to this window appends its whole column.
		if idx < len(c.times) {
			appended = append(appended, blockenc.Series{
				Measurement: c.measurement, Tags: c.tags,
				Blocks: blockenc.BuildBlocks(c.times[idx:], c.values[idx:]),
			})
			tail += len(c.times) - idx
		}
	}
	if len(old) != 0 || tail == 0 {
		// A key vanished from the window, or nothing was appended at
		// all: neither is a pure append worth a cursor.
		return nil, 0, 0
	}

	// Assemble: new entry count, old entries region verbatim, appended
	// entries. The cursor marks where the verbatim prefix ends.
	oldEntries := payload[headLen:]
	entries := len(oldList) + len(appended)
	out := binary.AppendUvarint(make([]byte, 0, len(payload)+64+32*tail), uint64(entries))
	cursor := int64(len(out) + len(oldEntries))
	out = append(out, oldEntries...)
	for _, s := range appended {
		out = blockenc.AppendSeries(out, s)
	}
	return out, entries, cursor
}

// encodeSegment encodes a plan's payload — one entry per series, its
// columns cut into blocks, in canonical key order so identical content
// encodes to identical bytes — writes the segment file, and fills
// p.meta. A plan carrying an append-extend candidate (segPlan.prev)
// tries the cheap payload first and falls back to the full encoder
// whenever it does not apply.
func (tx *dirTxn) encodeSegment(p *segPlan) error {
	var payload []byte
	var entries int
	var cursor int64
	if p.prev != nil {
		payload, entries, cursor = appendExtendPayload(tx.dir, p)
	}
	if payload == nil {
		list := make([]blockenc.Series, len(p.series))
		for i, c := range p.series {
			list[i] = blockenc.Series{Measurement: c.measurement, Tags: c.tags, Blocks: blockenc.BuildBlocks(c.times, c.values)}
		}
		payload, entries = blockenc.EncodePayload(list), len(list)
	}
	meta, err := tx.writeSegment(p.winStart, p.winEnd, entries, p.points, p.level, payload)
	if err != nil {
		return err
	}
	meta.AppendCursor = cursor
	p.meta = meta
	return nil
}

// SnapshotDir persists the whole store into dir as one segment file per
// time window — every series with points in it — plus a manifest,
// encoding segments concurrently on an internal/pipeline pool. With
// opts.Incremental it rewrites only windows dirtied since the previous
// SnapshotDir into the same dir and deletes windows that no longer hold
// data; otherwise (and whenever the directory does not match the
// store's bookkeeping) every segment is written. The manifest rename is the commit point: every file of the
// committed snapshot is left untouched until a new manifest no longer
// referencing it has been published, so a crash — or an error return —
// at any moment leaves the previous snapshot fully restorable
// (docs/PERSISTENCE.md §4). A directory holding a manifest this version
// cannot read is refused, never overwritten.
func (db *DB) SnapshotDir(dir string, opts DirOptions) (DirStats, error) {
	var st DirStats
	unlock := db.lockAll(false)
	defer unlock()

	// Segment planning walks the columns, so a lazily open store is
	// fully materialized first — snapshots must not depend on open mode
	// (docs/PERSISTENCE.md §9).
	db.materializeAllLocked()

	// The begin reads the committed manifest — the directory's commit
	// record — reaps what a crashed attempt left, and fixes this
	// attempt's generation (segment file names embed it).
	tx, err := beginDir(dir, true)
	if err != nil {
		return st, fmt.Errorf("tsdb: snapshotdir: %w", err)
	}
	prev := tx.prev
	incremental := opts.Incremental && db.snapDir == dir && db.snapGen > 0 &&
		prev != nil && prev.Generation == db.snapGen && prev.WindowNanos == int64(db.window)

	// Committed segments may span several base windows after compaction
	// (docs/PERSISTENCE.md §8), so incremental reuse works per span:
	// map every base window a previous segment covers back to it, plan
	// one segment per span, reuse the committed file whole when none of
	// its windows is dirty, and rewrite it over the same span otherwise
	// — compaction stays sticky across snapshots. A window is dirty or
	// trimmed when any in-memory shard marked it.
	covered := make(map[int64]SegmentMeta)
	dirty := make(map[int64]struct{})
	trimmed := make(map[int64]struct{})
	if incremental {
		for _, sm := range prev.Segments {
			if _, ok := slices.BinarySearch(tx.held, sm.File); !ok {
				continue
			}
			for win := sm.WindowStart; win < sm.WindowEnd; win += prev.WindowNanos {
				covered[win] = sm
			}
		}
		for i := range db.shards {
			maps.Copy(dirty, db.shards[i].dirty)
			maps.Copy(trimmed, db.shards[i].trimmed)
		}
	}
	// spanHas reports whether any base window of a committed span is in
	// the set.
	spanHas := func(sm SegmentMeta, set map[int64]struct{}) bool {
		for win := sm.WindowStart; win < sm.WindowEnd; win += prev.WindowNanos {
			if _, ok := set[win]; ok {
				return true
			}
		}
		return false
	}

	plans := db.planSegments(func(win int64) (int64, int64) {
		if sm, ok := covered[win]; ok {
			return sm.WindowStart, sm.WindowEnd
		}
		return win, win + int64(db.window)
	})
	var toWrite []*segPlan
	next := &Manifest{Version: ManifestVersion, Generation: tx.gen, WindowNanos: int64(db.window)}
	for _, p := range plans {
		sm, ok := covered[p.winStart]
		switch {
		case !ok:
		case !spanHas(sm, dirty):
			next.Segments = append(next.Segments, sm)
			st.Reused++
			st.Points += sm.Points
			continue
		default:
			p.level = sm.Level
			// Insert-only dirt makes the span a candidate for an
			// append-extend of its committed predecessor; any trimmed
			// window in the span forces a full re-encode because the old
			// payload stops being a prefix (docs/REPLICATION.md §8).
			if !spanHas(sm, trimmed) {
				smCopy := sm
				p.prev = &smCopy
			}
		}
		toWrite = append(toWrite, p)
	}

	// Encode the dirty segments concurrently; the plans alias store
	// memory, which is safe because the store lock is held throughout.
	// On error the files already renamed into place are unreferenced
	// gen-qualified leftovers — invisible to RestoreDir, reaped by the
	// next SnapshotDir — and the committed snapshot is untouched.
	pool := pipeline.NewPool(opts.Workers)
	defer pool.Close()
	jobs := make([]func() error, len(toWrite))
	for i, p := range toWrite {
		jobs[i] = func() error { return tx.encodeSegment(p) }
	}
	if err := pool.DoErr(jobs...); err != nil {
		return st, fmt.Errorf("tsdb: snapshotdir: %w", err)
	}
	for _, p := range toWrite {
		next.Segments = append(next.Segments, p.meta)
		st.Written++
		st.Points += p.points
	}
	for i := range db.shards {
		next.StoreSeries += len(db.shards[i].series)
	}
	next.TotalPoints = st.Points

	// Commit point: the new manifest makes this snapshot the directory's
	// committed state; the previous generation's replaced and stale files
	// are deleted only after it.
	err = tx.commit(next)
	st.Removed = tx.removed
	if err != nil {
		return st, fmt.Errorf("tsdb: snapshotdir: %w", err)
	}

	// Success: future incremental snapshots may trust the directory.
	db.snapDir = dir
	db.snapGen = tx.gen
	for i := range db.shards {
		db.shards[i].dirty = nil
		db.shards[i].trimmed = nil
	}
	st.Segments = len(next.Segments)
	st.Series = next.StoreSeries
	st.Generation = tx.gen
	return st, nil
}

// segmentHeader is the identity and integrity part of a segment file's
// fixed header (docs/PERSISTENCE.md §2); parseSegment checks the magic,
// version and payload length itself.
type segmentHeader struct {
	winStart, winEnd int64
	series, points   int
	crc              uint32
}

// parseSegment splits a segment file's bytes into header and payload
// and checks everything the file vouches for by itself: header length,
// magic, version, payload length, and the payload's CRC-32C against the
// header's (docs/PERSISTENCE.md §2, reader obligations). what and name
// label errors ("segment", file name). Comparing the header against a
// manifest entry is the caller's job.
func parseSegment(data []byte, what, name string) (segmentHeader, []byte, error) {
	var h segmentHeader
	if len(data) < segmentHeaderSize {
		return h, nil, fmt.Errorf("tsdb: %s %s: truncated header (%d bytes)", what, name, len(data))
	}
	if string(data[:8]) != SegmentMagic {
		return h, nil, fmt.Errorf("tsdb: %s %s: bad magic %q", what, name, data[:8])
	}
	if version := binary.BigEndian.Uint32(data[8:12]); version != SegmentVersion {
		return h, nil, fmt.Errorf("tsdb: %s %s: %w: format version %d, supported %d (see docs/PERSISTENCE.md)", what, name, ErrSegmentVersion, version, SegmentVersion)
	}
	h = segmentHeader{
		winStart: int64(binary.BigEndian.Uint64(data[12:20])),
		winEnd:   int64(binary.BigEndian.Uint64(data[20:28])),
		series:   int(binary.BigEndian.Uint32(data[28:32])),
		points:   int(binary.BigEndian.Uint64(data[32:40])),
		crc:      binary.BigEndian.Uint32(data[48:52]),
	}
	payload := data[segmentHeaderSize:]
	if payloadLen := int(binary.BigEndian.Uint64(data[40:48])); len(payload) != payloadLen {
		return h, nil, fmt.Errorf("tsdb: %s %s: truncated payload (%d of %d bytes)", what, name, len(payload), payloadLen)
	}
	if got := crc32.Checksum(payload, crcTable); got != h.crc {
		return h, nil, fmt.Errorf("tsdb: %s %s: checksum mismatch (got %08x, want %08x)", what, name, got, h.crc)
	}
	return h, payload, nil
}

// verifySegmentBytes checks a segment file's bytes — parseSegment's
// self-consistency checks, then every header field against its manifest
// entry — and returns the payload. The payload decode and the
// decoded-count checks stay with the caller; VerifySegmentFile and
// every reader share everything up to that point.
func verifySegmentBytes(data []byte, sm SegmentMeta) ([]byte, error) {
	h, payload, err := parseSegment(data, "segment", sm.File)
	if err != nil {
		return nil, err
	}
	if h.winStart != sm.WindowStart || h.winEnd != sm.WindowEnd ||
		h.series != sm.Series || h.points != sm.Points || h.crc != sm.CRC {
		return nil, fmt.Errorf("tsdb: segment %s: header disagrees with manifest entry", sm.File)
	}
	return payload, nil
}

// loadSegmentPayload reads one segment file from disk and verifies it
// against its manifest entry, returning the raw payload without
// decoding it. The append-extend encoder and CompactDir's zero-decode
// merge start here.
func loadSegmentPayload(dir string, sm SegmentMeta) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, sm.File))
	if err != nil {
		return nil, fmt.Errorf("tsdb: segment %s: %w", sm.File, err)
	}
	return verifySegmentBytes(data, sm)
}

// decodeBlockPayload structurally decodes a payload and cross-checks
// the series and (summary) point counts against the manifest entry.
// Blocks stay encoded — callers that only reorganize blocks
// (compaction, retention trim) never pay for a point decode
// (docs/PERSISTENCE.md §2).
func decodeBlockPayload(payload []byte, sm SegmentMeta) ([]blockenc.Series, error) {
	list, err := blockenc.DecodePayload(payload)
	if err != nil {
		return nil, fmt.Errorf("tsdb: segment %s: decode: %w", sm.File, err)
	}
	n := 0
	for _, s := range list {
		for _, b := range s.Blocks {
			n += b.Count
		}
	}
	if len(list) != sm.Series || n != sm.Points {
		return nil, fmt.Errorf("tsdb: segment %s: payload holds %d series/%d points, header says %d/%d", sm.File, len(list), n, sm.Series, sm.Points)
	}
	return list, nil
}

// loadCommittedDir reads and validates a directory's committed state:
// the manifest plus the check that every on-disk segment is either
// listed by it or an ignorable other-generation leftover
// (docs/PERSISTENCE.md §4, §5). RestoreDir starts here.
func loadCommittedDir(dir string) (*Manifest, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(m.Segments))
	for _, sm := range m.Segments {
		listed[sm.File] = true
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) || listed[name] {
			continue
		}
		// An unlisted segment carrying a generation other than the
		// committed one is a leftover from an interrupted snapshot or
		// compaction pass: ignored like a .tmp file, reaped by the next
		// writer (docs/PERSISTENCE.md §4). Anything else unlisted is
		// corruption, never skipped silently.
		if gen, ok := parseSegmentGen(name); ok && gen != m.Generation {
			continue
		}
		return nil, fmt.Errorf("segment %s present on disk but not in the manifest", name)
	}
	return m, nil
}

// installLocked cross-checks freshly rebuilt shard maps against the
// manifest's totals and makes them the store's contents, adopting the
// manifest's window and generation so a daemon restarting from its
// data directory continues with incremental snapshots. The caller must
// hold every lock (lockAll(true)); on error the store is untouched.
func (db *DB) installLocked(dir string, m *Manifest, newShards []map[string]*series) error {
	storeSeries, totalPoints := 0, 0
	for _, shardSeries := range newShards {
		storeSeries += len(shardSeries)
		for _, s := range shardSeries {
			totalPoints += s.points()
		}
	}
	if totalPoints != m.TotalPoints {
		return fmt.Errorf("tsdb: restoredir: segments hold %d points, manifest says %d", totalPoints, m.TotalPoints)
	}
	// StoreSeries == 0 means "unknown" — the retention pass of older
	// versions published it — and leaves the per-segment checks to
	// carry the integrity guarantee alone (docs/PERSISTENCE.md §3).
	if m.StoreSeries != 0 && storeSeries != m.StoreSeries {
		return fmt.Errorf("tsdb: restoredir: segments hold %d series, manifest says %d", storeSeries, m.StoreSeries)
	}
	db.idx.reset()
	for si := range db.shards {
		db.shards[si].series = newShards[si]
		db.shards[si].dirty = nil
		db.shards[si].trimmed = nil
		for key, s := range newShards[si] {
			db.idx.add(s.measurement, s.tags, key)
		}
	}
	db.window = time.Duration(m.WindowNanos)
	db.snapDir = dir
	db.snapGen = m.Generation
	// The new series restart at version zero, so the epoch must move for
	// ViewStamp to notice the replacement (docs/SERVING.md §2).
	db.epoch++
	return nil
}
