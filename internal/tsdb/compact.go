package tsdb

// Background level compaction for segment directories
// (docs/PERSISTENCE.md §8): adjacent cold windows are merged into one
// wider generation-qualified segment, cutting the file count — without
// ever decoding a point, because a merged span's blocks are the
// concatenation of its inputs' blocks in window order. The pass runs
// through the same begin and commit as SnapshotDir (commit.go), so a
// crash at any moment leaves the previous snapshot fully restorable,
// and it preserves the manifest's series and point totals — content is
// reorganized, never changed, which is what keeps DB.Digest the
// equivalence oracle across compactions.

import (
	"fmt"
	"sort"
	"time"

	"interdomain/internal/pipeline"
	"interdomain/internal/tsdb/blockenc"
)

// DefaultCompactWindows is the default cap on how many base windows
// one compacted segment may span (CompactOptions.MaxWindows): a week
// of daily windows, mirroring the weekly rollup shards the deployed
// system's backend used.
const DefaultCompactWindows = 7

// CompactOptions configures CompactDir.
type CompactOptions struct {
	// ColdBefore bounds what may be merged: only segments whose window
	// ends at or before it are candidates. Windows still receiving
	// writes should stay out of compaction, or the next incremental
	// snapshot rewrites the whole merged span.
	ColdBefore time.Time
	// MaxWindows caps the number of base windows one output segment may
	// span. 0 means DefaultCompactWindows; 1 (or less than 0) disables
	// merging entirely.
	MaxWindows int
	// Workers bounds the concurrent span merges. 0 means one per CPU; 1
	// runs fully sequentially on the calling goroutine.
	Workers int
}

// CompactStats reports what a CompactDir call did.
type CompactStats struct {
	// Merged is the number of input segment files merged away.
	Merged int
	// Written is the number of merged output segments written.
	Written int
	// Generation is the manifest generation the call published; equal
	// to the previous generation when there was nothing to do.
	Generation uint64
	// BytesIn and BytesOut are the on-disk sizes of the merged inputs
	// and of the outputs that replaced them.
	BytesIn, BytesOut int64
}

// compactRun is one group of adjacent cold segments to merge.
type compactRun struct {
	inputs []SegmentMeta
	meta   SegmentMeta // filled by the merge
	in     int64       // input bytes on disk
	out    int64       // output bytes on disk
}

// planCompaction groups the cold segments, in window order, into runs
// of two or more whose combined span stays within maxWindows base
// windows. Segments in a run need not be contiguous in time — a span
// may cover empty windows — but they never overlap (spans are
// disjoint).
func planCompaction(m *Manifest, cut int64, maxWindows int) []*compactRun {
	var runs []*compactRun
	var cur []SegmentMeta
	flush := func() {
		if len(cur) >= 2 {
			runs = append(runs, &compactRun{inputs: cur})
		}
		cur = nil
	}
	for _, sm := range m.Segments {
		if sm.WindowEnd > cut {
			continue
		}
		if len(cur) > 0 && sm.WindowEnd-cur[0].WindowStart > int64(maxWindows)*m.WindowNanos {
			flush()
		}
		cur = append(cur, sm)
	}
	flush()
	return runs
}

// mergeRun merges one run's inputs into a single segment spanning
// [first.WindowStart, last.WindowEnd). Inputs contribute their blocks
// verbatim — no point decode. The output's level is one above the
// deepest input (docs/PERSISTENCE.md §8).
func (tx *dirTxn) mergeRun(r *compactRun) error {
	type acc struct {
		measurement string
		tags        map[string]string
		blocks      []blockenc.Block
	}
	byKey := make(map[string]*acc)
	var keys []string

	points, level := 0, 0
	for _, sm := range r.inputs {
		payload, err := loadSegmentPayload(tx.dir, sm)
		if err != nil {
			return err
		}
		r.in += segmentHeaderSize + int64(len(payload))
		if sm.Level > level {
			level = sm.Level
		}
		points += sm.Points
		list, err := decodeBlockPayload(payload, sm)
		if err != nil {
			return err
		}
		for i := range list {
			key := Key(list[i].Measurement, list[i].Tags)
			a, ok := byKey[key]
			if !ok {
				a = &acc{measurement: list[i].Measurement, tags: list[i].Tags}
				byKey[key] = a
				keys = append(keys, key)
			}
			a.blocks = append(a.blocks, list[i].Blocks...)
		}
	}

	// Inputs are processed in ascending window order and windows
	// partition time, so each key's concatenated blocks stay
	// time-ordered. Sorting by key keeps the payload canonical.
	sort.Strings(keys)
	out := make([]blockenc.Series, 0, len(keys))
	for _, key := range keys {
		a := byKey[key]
		out = append(out, blockenc.Series{Measurement: a.measurement, Tags: a.tags, Blocks: a.blocks})
	}

	first, last := r.inputs[0], r.inputs[len(r.inputs)-1]
	payload := blockenc.EncodePayload(out)
	meta, err := tx.writeSegment(first.WindowStart, last.WindowEnd, len(out), points, level+1, payload)
	if err != nil {
		return err
	}
	r.meta = meta
	r.out = segmentHeaderSize + int64(len(payload))
	return nil
}

// CompactDir merges adjacent cold segments of a committed directory in
// place and republishes the manifest with a bumped generation. It
// never touches segments whose window reaches past opts.ColdBefore,
// preserves the manifest's series and point totals, and commits through
// the one commit path of docs/PERSISTENCE.md §4 — input files are
// deleted only after the new manifest no longer references them, so a
// crash mid-pass leaves the previous snapshot fully restorable. A
// directory with nothing to merge stays at its current generation;
// only leftovers of interrupted passes are reaped.
func CompactDir(dir string, opts CompactOptions) (CompactStats, error) {
	var st CompactStats
	tx, err := beginDir(dir, false)
	if err != nil {
		return st, fmt.Errorf("tsdb: compactdir: %w", err)
	}
	m := tx.prev
	st.Generation = m.Generation
	maxWindows := opts.MaxWindows
	if maxWindows == 0 {
		maxWindows = DefaultCompactWindows
	}
	if maxWindows <= 1 {
		return st, nil
	}
	runs := planCompaction(m, opts.ColdBefore.UnixNano(), maxWindows)
	if len(runs) == 0 {
		return st, nil
	}

	// Merge the runs concurrently; each writes its own output file, and
	// nothing is visible until the manifest commit below. Two runs never
	// collide on a name because their window starts differ.
	pool := pipeline.NewPool(opts.Workers)
	defer pool.Close()
	jobs := make([]func() error, len(runs))
	for i, r := range runs {
		jobs[i] = func() error { return tx.mergeRun(r) }
	}
	if err := pool.DoErr(jobs...); err != nil {
		return st, fmt.Errorf("tsdb: compactdir: %w", err)
	}

	merged := make(map[string]bool)
	next := &Manifest{
		Version:     ManifestVersion,
		Generation:  tx.gen,
		WindowNanos: m.WindowNanos,
		StoreSeries: m.StoreSeries,
		TotalPoints: m.TotalPoints,
	}
	for _, r := range runs {
		next.Segments = append(next.Segments, r.meta)
		for _, sm := range r.inputs {
			merged[sm.File] = true
		}
		st.Merged += len(r.inputs)
		st.Written++
		st.BytesIn += r.in
		st.BytesOut += r.out
	}
	for _, sm := range m.Segments {
		if !merged[sm.File] {
			next.Segments = append(next.Segments, sm)
		}
	}

	// Commit point; only afterwards are the merged inputs deleted.
	if err := tx.commit(next); err != nil {
		return st, fmt.Errorf("tsdb: compactdir: %w", err)
	}
	st.Generation = tx.gen
	return st, nil
}

// Compact runs CompactDir on the store's behalf: it holds the store
// lock for the duration, so the pass serializes with SnapshotDir, and
// on success it advances the store's snapshot-generation bookkeeping —
// the next incremental snapshot then reuses the freshly merged
// segments instead of demoting to a full rewrite. dir is typically the
// directory the store last snapshotted into.
func (db *DB) Compact(dir string, opts CompactOptions) (CompactStats, error) {
	unlock := db.lockAll(false)
	defer unlock()
	prevGen := db.snapGen
	st, err := CompactDir(dir, opts)
	if err == nil && db.snapDir == dir && db.snapGen == prevGen && prevGen > 0 {
		db.snapGen = st.Generation
	}
	return st, err
}
