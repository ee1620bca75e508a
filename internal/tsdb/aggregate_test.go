package tsdb

// Tests for summary-level aggregate pushdown (docs/PERSISTENCE.md
// §10). The suite is anchored on two oracles: a brute-force per-point
// fold over Query results (exact for the integer-valued fixtures), and
// the aggDisablePushdown switch, which forces every block through the
// decode fallback — on the integer fixtures the pushdown path must
// match it bit for bit (TestAggSumGroupingNonInteger pins which sums
// agree on non-integer values).
// Test names carry "Agg" so CI's storage-smoke job can select the
// suite with -run Agg.

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// aggStore builds a deterministic integer-valued store: nSeries series
// of minute-spaced points covering days whole days from t0, value
// float64(s*100000+i). Integer values make every sum grouping exact,
// so column, pushdown and decode folds must agree bit for bit. With
// hourly segment windows each block holds 60 points — far under
// MaxBlockPoints — so every block spans exactly one hour.
func aggStore(nSeries, days int) *DB {
	db := Open()
	db.SetSegmentWindow(time.Hour)
	links := []string{"l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8"}
	n := days * 24 * 60
	for s := 0; s < nSeries; s++ {
		tags := map[string]string{"link": links[s%len(links)], "vp": []string{"vp-a", "vp-b"}[s/len(links)%2]}
		for i := 0; i < n; i++ {
			db.Write("tslp", tags, t0.Add(time.Duration(i)*time.Minute), float64(s*100000+i))
		}
	}
	return db
}

// refAggregate is the brute-force oracle: fold raw Query points into
// buckets with the same per-point accumulator the column path uses.
func refAggregate(db *DB, measurement string, from, to time.Time, step time.Duration) []AggSeries {
	n := int(to.Sub(from) / step)
	var out []AggSeries
	for _, s := range db.Query(measurement, nil, from, to) {
		accs := make([]aggAcc, n)
		for i := range accs {
			accs[i].min, accs[i].max = math.NaN(), math.NaN()
		}
		any := false
		for _, p := range s.Points {
			if p.Time.Before(from) || !p.Time.Before(to) {
				continue
			}
			accs[p.Time.Sub(from)/step].observe(p.Value)
			any = true
		}
		if !any {
			continue
		}
		buckets := make([]AggBucket, n)
		for i := range accs {
			a := &accs[i]
			b := AggBucket{Start: from.Add(time.Duration(i) * step), Count: a.count,
				Min: a.min, Max: a.max, Sum: math.NaN(), Mean: math.NaN()}
			if a.count > 0 {
				b.Sum = a.sum
				b.Mean = a.sum / float64(a.count)
			}
			buckets[i] = b
		}
		out = append(out, AggSeries{Measurement: s.Measurement, Tags: s.Tags, Buckets: buckets})
	}
	return out
}

// aggEqualBits compares aggregate results bit-exactly: NaN equals NaN
// (any payload), everything else by Float64bits — the identity the
// pushdown-vs-decode equivalence owes.
func aggEqualBits(a, b []AggSeries) bool {
	sameF := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Measurement != b[i].Measurement || !reflect.DeepEqual(a[i].Tags, b[i].Tags) ||
			len(a[i].Buckets) != len(b[i].Buckets) {
			return false
		}
		for j := range a[i].Buckets {
			x, y := a[i].Buckets[j], b[i].Buckets[j]
			if !x.Start.Equal(y.Start) || x.Count != y.Count ||
				!sameF(x.Min, y.Min) || !sameF(x.Max, y.Max) ||
				!sameF(x.Sum, y.Sum) || !sameF(x.Mean, y.Mean) {
				return false
			}
		}
	}
	return true
}

// forceDecodeAggregate runs QueryAggregate with pushdown disabled.
// Callers must not run in parallel: the switch is a package global.
func forceDecodeAggregate(t *testing.T, db *DB, measurement string, from, to time.Time, step time.Duration, fns AggFns) []AggSeries {
	t.Helper()
	aggDisablePushdown = true
	defer func() { aggDisablePushdown = false }()
	out, err := db.QueryAggregate(measurement, nil, from, to, step, fns)
	if err != nil {
		t.Fatalf("QueryAggregate(decode): %v", err)
	}
	return out
}

// TestAggArgsRejected: every malformed argument set fails with an
// error wrapping ErrAggArgs, never a partial result (docs/SERVING.md
// §7 maps these to structured 400s).
func TestAggArgsRejected(t *testing.T) {
	db := monoStore(100)
	from, to := t0, t0.Add(time.Hour)
	cases := []struct {
		name string
		from time.Time
		to   time.Time
		step time.Duration
		fns  AggFns
	}{
		{"zero fns", from, to, time.Minute, 0},
		{"unknown fns bit", from, to, time.Minute, AggAll + 1},
		{"zero step", from, to, 0, AggAll},
		{"negative step", from, to, -time.Minute, AggAll},
		{"empty range", from, from, time.Minute, AggAll},
		{"inverted range", to, from, time.Minute, AggAll},
		{"non-multiple range", from, to.Add(30 * time.Second), time.Minute, AggAll},
		{"too many buckets", from, from.Add(time.Duration(maxAggBuckets+1) * time.Second), time.Second, AggAll},
	}
	for _, tc := range cases {
		out, err := db.QueryAggregate("m", nil, tc.from, tc.to, tc.step, tc.fns)
		if !errors.Is(err, ErrAggArgs) {
			t.Fatalf("%s: err = %v, want ErrAggArgs", tc.name, err)
		}
		if out != nil {
			t.Fatalf("%s: returned %d series alongside the error", tc.name, len(out))
		}
	}
	if _, err := db.QueryAggregate("m", nil, from, to, time.Minute, AggAll); err != nil {
		t.Fatalf("valid arguments rejected: %v", err)
	}
}

// TestAggEquivalenceAcrossVersions is the equivalence oracle over
// every fold and every shape a directory takes as it ages: for a fresh
// snapshot, an incremental one whose dirtied window was rewritten, and
// a compacted one, the column fold of a materialized restore, the lazy
// pushdown, and the lazy forced-decode folds all match the brute-force
// per-point reference bit for bit (integer values make the sum
// groupings exact).
func TestAggEquivalenceAcrossVersions(t *testing.T) {
	src := aggStore(4, 2)
	from, to := t0, t0.Add(48*time.Hour)
	want := refAggregate(src, "tslp", from, to, time.Hour)
	if len(want) == 0 {
		t.Fatal("reference fold is empty")
	}

	compacted := snapToDir(t, src, DirOptions{})
	if st, err := CompactDir(compacted, CompactOptions{ColdBefore: maxTime}); err != nil || st.Written == 0 {
		t.Fatalf("compacted fixture: %+v, %v", st, err)
	}
	dirs := map[string]string{
		"fresh":     snapToDir(t, src, DirOptions{}),
		"compacted": compacted,
	}
	// Incremental directory: a full snapshot plus one backfilled window
	// rewritten by the next generation.
	incr := t.TempDir()
	if _, err := src.SnapshotDir(incr, DirOptions{Incremental: true}); err != nil {
		t.Fatal(err)
	}
	src.Write("tslp", map[string]string{"link": "l1", "vp": "vp-a"}, t0.Add(30*time.Minute), 42)
	if st, err := src.SnapshotDir(incr, DirOptions{Incremental: true}); err != nil || st.Reused == 0 || st.Written == 0 {
		t.Fatalf("incremental fixture: %+v, %v", st, err)
	}
	dirs["incremental"] = incr
	wantIncr := refAggregate(src, "tslp", from, to, time.Hour)

	for name, dir := range dirs {
		ref := want
		if name == "incremental" {
			ref = wantIncr
		}
		cols := materializedOpen(t, dir)
		got, err := cols.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
		if err != nil {
			t.Fatalf("%s: column QueryAggregate: %v", name, err)
		}
		if !aggEqualBits(got, ref) {
			t.Fatalf("%s: column aggregate differs from reference", name)
		}

		lz := lazyOpen(t, dir, DirOptions{})
		got, err = lz.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
		if err != nil {
			t.Fatalf("%s: lazy QueryAggregate: %v", name, err)
		}
		if !aggEqualBits(got, ref) {
			t.Fatalf("%s: lazy pushdown aggregate differs from reference", name)
		}
		if dec := forceDecodeAggregate(t, lz, "tslp", from, to, time.Hour, AggAll); !aggEqualBits(got, dec) {
			t.Fatalf("%s: pushdown and forced-decode folds disagree", name)
		}
	}
}

// TestAggZeroDecodePushdown is the acceptance gate: a one-hour-step
// aggregate over a fully contained multi-day window decodes zero
// blocks — every bucket is answered from summaries — and the result is
// bit-identical to the forced-decode fold of the same store.
func TestAggZeroDecodePushdown(t *testing.T) {
	src := aggStore(4, 3)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})
	from, to := t0, t0.Add(72*time.Hour)

	before := lazyStats(t, lz)
	got, err := lz.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
	if err != nil {
		t.Fatal(err)
	}
	after := lazyStats(t, lz)
	if d := after.BlocksDecoded - before.BlocksDecoded; d != 0 {
		t.Fatalf("pushdown aggregate decoded %d blocks, want 0", d)
	}
	if after.DecodedBytes != before.DecodedBytes {
		t.Fatalf("pushdown aggregate produced decoded bytes: %+v", after)
	}
	wantBuckets := uint64(len(got)) * 72
	if d := after.SummaryOnlyBuckets - before.SummaryOnlyBuckets; d != wantBuckets {
		t.Fatalf("summary_only_buckets rose by %d, want %d", d, wantBuckets)
	}
	if after.BlocksScanned == before.BlocksScanned {
		t.Fatal("pushdown aggregate scanned no summaries")
	}

	if dec := forceDecodeAggregate(t, lz, "tslp", from, to, time.Hour, AggAll); !aggEqualBits(got, dec) {
		t.Fatal("pushdown result differs from forced-decode result")
	}
	if !aggEqualBits(got, refAggregate(src, "tslp", from, to, time.Hour)) {
		t.Fatal("pushdown result differs from brute-force reference")
	}

	// Compaction keeps the pushdown intact: merge the cold windows and
	// re-aggregate — still zero decodes, still the same answer.
	if st, err := CompactDir(dir, CompactOptions{ColdBefore: maxTime}); err != nil || st.Written == 0 {
		t.Fatalf("CompactDir: %+v, %v", st, err)
	}
	clz := lazyOpen(t, dir, DirOptions{})
	b2 := lazyStats(t, clz)
	got2, err := clz.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
	if err != nil {
		t.Fatal(err)
	}
	if d := lazyStats(t, clz).BlocksDecoded - b2.BlocksDecoded; d != 0 {
		t.Fatalf("post-compaction pushdown decoded %d blocks, want 0", d)
	}
	if !aggEqualBits(got, got2) {
		t.Fatal("compaction changed the aggregate result")
	}
}

// TestAggSumGroupingNonInteger pins which lazy sums equal the column
// fold's on non-integer values, where grouping shows in the last ulp. A
// decoded block adds its points to the bucket's running sum one at a
// time, so a bucket fed only by decoded points is the sequential column
// sum; a bucket fed by one block summary alone is that block's stored
// Sum, the same sequential sum from zero. A bucket fed by several
// summaries adds one term per block, and may differ.
func TestAggSumGroupingNonInteger(t *testing.T) {
	src := Open()
	src.SetSegmentWindow(time.Hour)
	x := uint64(42)
	for i := 0; i < 360; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		src.Write("tslp", map[string]string{"link": "l1"}, t0.Add(time.Duration(i)*time.Minute),
			10*float64(x>>11)/(1<<53))
	}
	lz := lazyOpen(t, snapToDir(t, src, DirOptions{}), DirOptions{})
	from, to := t0, t0.Add(6*time.Hour)

	// Decoded points only: forced decode, and straddling 1 h buckets.
	twoHour := refAggregate(src, "tslp", from, to, 2*time.Hour)
	if dec := forceDecodeAggregate(t, lz, "tslp", from, to, 2*time.Hour, AggAll); !aggEqualBits(dec, twoHour) {
		t.Fatal("forced-decode 2 h buckets differ from the column sums")
	}
	before := lazyStats(t, lz)
	off := from.Add(30 * time.Minute)
	got, err := lz.QueryAggregate("tslp", nil, off, off.Add(5*time.Hour), time.Hour, AggAll)
	if err != nil {
		t.Fatal(err)
	}
	if lazyStats(t, lz).SummaryOnlyBuckets != before.SummaryOnlyBuckets {
		t.Fatal("straddling buckets folded a summary")
	}
	if !aggEqualBits(got, refAggregate(src, "tslp", off, off.Add(5*time.Hour), time.Hour)) {
		t.Fatal("straddling decoded buckets differ from the column sums")
	}

	// One summary per bucket: aligned 1 h buckets over hourly blocks.
	before = lazyStats(t, lz)
	got, err = lz.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
	if err != nil {
		t.Fatal(err)
	}
	if d := lazyStats(t, lz).SummaryOnlyBuckets - before.SummaryOnlyBuckets; d != 6 {
		t.Fatalf("%d summary-only buckets, want 6", d)
	}
	if !aggEqualBits(got, refAggregate(src, "tslp", from, to, time.Hour)) {
		t.Fatal("single-summary buckets differ from the column sums")
	}

	// Two summaries per bucket are two terms, not 120: the fixture must
	// show that grouping, or the checks above prove nothing.
	got, err = lz.QueryAggregate("tslp", nil, from, to, 2*time.Hour, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i, b := range got[0].Buckets {
		if b.Sum != twoHour[0].Buckets[i].Sum {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("every two-summary bucket equals its column sum: the values do not exercise sum grouping")
	}
}

// TestAggBucketStraddles sweeps the query origin across 14 boundary
// offsets: at offset 0 every hour-block is contained in its hour
// bucket (pure pushdown); at every other offset every block straddles
// a bucket boundary and must decode. All offsets must match the
// brute-force reference bit for bit.
func TestAggBucketStraddles(t *testing.T) {
	src := aggStore(2, 2)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})

	for off := 0; off < 14; off++ {
		from := t0.Add(time.Duration(off) * time.Minute)
		to := from.Add(24 * time.Hour)
		before := lazyStats(t, lz)
		got, err := lz.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		after := lazyStats(t, lz)
		decoded := after.BlocksDecoded + after.CacheHits - before.BlocksDecoded - before.CacheHits
		if off == 0 && decoded != 0 {
			t.Fatalf("aligned offset touched %d decoded blocks, want 0", decoded)
		}
		if off != 0 && decoded == 0 {
			t.Fatalf("offset %d: straddling blocks never decoded", off)
		}
		if !aggEqualBits(got, refAggregate(src, "tslp", from, to, time.Hour)) {
			t.Fatalf("offset %d: aggregate differs from reference", off)
		}
	}
}

// TestAggNaNSemantics pins the NaN contract on a store whose buckets
// mix clean values, partial NaN, all-NaN and emptiness: Count includes
// NaN points, Min/Max exclude them, Sum and Mean are NaN-poisoned, and
// the lazy open (whose all-NaN and partial-NaN blocks must not be
// mis-pruned or mis-pushed) agrees with the in-memory store.
func TestAggNaNSemantics(t *testing.T) {
	db := Open()
	db.SetSegmentWindow(time.Hour)
	tags := map[string]string{"link": "l1"}
	// Hour 0: clean. Hour 1: one NaN among values. Hour 2: all NaN.
	// Hour 3: empty.
	for i := 0; i < 60; i++ {
		db.Write("m", tags, t0.Add(time.Duration(i)*time.Minute), float64(i))
		v := float64(i)
		if i == 30 {
			v = math.NaN()
		}
		db.Write("m", tags, t0.Add(time.Hour).Add(time.Duration(i)*time.Minute), v)
		db.Write("m", tags, t0.Add(2*time.Hour).Add(time.Duration(i)*time.Minute), math.NaN())
	}
	from, to := t0, t0.Add(4*time.Hour)

	check := func(name string, out []AggSeries, err error) {
		t.Helper()
		if err != nil || len(out) != 1 || len(out[0].Buckets) != 4 {
			t.Fatalf("%s: got %d series (%v)", name, len(out), err)
		}
		b := out[0].Buckets
		if b[0].Count != 60 || b[0].Min != 0 || b[0].Max != 59 || b[0].Sum != 1770 || b[0].Mean != 29.5 {
			t.Fatalf("%s: clean bucket = %+v", name, b[0])
		}
		if b[1].Count != 60 || b[1].Min != 0 || b[1].Max != 59 || !math.IsNaN(b[1].Sum) || !math.IsNaN(b[1].Mean) {
			t.Fatalf("%s: partial-NaN bucket = %+v", name, b[1])
		}
		if b[2].Count != 60 || !math.IsNaN(b[2].Min) || !math.IsNaN(b[2].Max) || !math.IsNaN(b[2].Sum) {
			t.Fatalf("%s: all-NaN bucket = %+v", name, b[2])
		}
		if b[3].Count != 0 || !math.IsNaN(b[3].Min) || !math.IsNaN(b[3].Max) || !math.IsNaN(b[3].Sum) {
			t.Fatalf("%s: empty bucket = %+v", name, b[3])
		}
	}

	out, err := db.QueryAggregate("m", nil, from, to, time.Hour, AggAll)
	check("in-memory", out, err)

	dir := snapToDir(t, db, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})
	before := lazyStats(t, lz)
	out, err = lz.QueryAggregate("m", nil, from, to, time.Hour, AggAll)
	check("lazy pushdown", out, err)
	if d := lazyStats(t, lz).BlocksDecoded - before.BlocksDecoded; d != 0 {
		t.Fatalf("NaN blocks broke pushdown: %d decodes", d)
	}
	check("lazy decode", forceDecodeAggregate(t, lz, "m", from, to, time.Hour, AggAll), nil)

	// An unrequested sum is reported as NaN, not leaked.
	out, err = lz.QueryAggregate("m", nil, from, to, time.Hour, AggCount|AggMin|AggMax)
	if err != nil || !math.IsNaN(out[0].Buckets[0].Sum) || !math.IsNaN(out[0].Buckets[0].Mean) {
		t.Fatalf("unrequested sum leaked: %+v (%v)", out[0].Buckets[0], err)
	}
}

// TestAggByteBudgetConcurrent hammers a byte-budgeted cache from
// concurrent aggregate queries whose straddling blocks all decode:
// results stay correct, and the cache ends at or under its budget
// having evicted. Run under -race by CI's storage-smoke job.
func TestAggByteBudgetConcurrent(t *testing.T) {
	src := aggStore(4, 2)
	dir := snapToDir(t, src, DirOptions{})
	budget := int64(4 * 60 * decodedBlockBytes) // ~4 decoded hour-blocks
	lz := lazyOpen(t, dir, DirOptions{BlockCacheBytes: budget})

	from := t0.Add(30 * time.Minute) // misaligned: every block straddles
	to := from.Add(24 * time.Hour)
	want := refAggregate(src, "tslp", from, to, time.Hour)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := lz.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !aggEqualBits(got, want) {
					errs <- "concurrent aggregate differs from reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	st := lazyStats(t, lz)
	if st.CacheBytes > budget {
		t.Fatalf("cache holds %d bytes over the %d budget", st.CacheBytes, budget)
	}
	if st.CacheEvictions == 0 {
		t.Fatalf("tiny budget under 32 straddling scans evicted nothing: %+v", st)
	}
	if st.BlocksDecoded == 0 || st.DecodedBytes == 0 {
		t.Fatalf("straddling aggregates decoded nothing: %+v", st)
	}
	// The single-entry floor: a budget smaller than one block still
	// serves queries (the freshly decoded block is always retained).
	tiny := lazyOpen(t, dir, DirOptions{BlockCacheBytes: 1})
	got, err := tiny.QueryAggregate("tslp", nil, from, to, time.Hour, AggAll)
	if err != nil || !aggEqualBits(got, want) {
		t.Fatalf("1-byte budget broke aggregation (%v)", err)
	}
	if st := lazyStats(t, tiny); st.CachedBlocks > 1 {
		t.Fatalf("1-byte budget retained %d blocks", st.CachedBlocks)
	}
}

// TestAggMatchesDownsampleShape cross-checks the pushdown against the
// per-point bin-minimum fold the dashboards were first built on (a
// test-local reference: NaN-free integer data, fixed bins aligned to
// the range start).
func TestAggMatchesDownsampleShape(t *testing.T) {
	src := aggStore(1, 1)
	dir := snapToDir(t, src, DirOptions{})
	lz := lazyOpen(t, dir, DirOptions{})
	from, to := t0, t0.Add(24*time.Hour)

	agg, err := lz.QueryAggregate("tslp", nil, from, to, time.Hour, AggMin)
	if err != nil || len(agg) != 1 {
		t.Fatalf("QueryAggregate: %d series, %v", len(agg), err)
	}
	pts := lz.Query("tslp", nil, from, to)
	if len(pts) != 1 {
		t.Fatalf("Query: %d series", len(pts))
	}
	down := make([]float64, 24)
	for i := range down {
		down[i] = math.Inf(1)
	}
	for _, p := range pts[0].Points {
		if i := int(p.Time.Sub(from) / time.Hour); p.Value < down[i] {
			down[i] = p.Value
		}
	}
	if len(down) != len(agg[0].Buckets) {
		t.Fatalf("bin counts differ: %d vs %d", len(down), len(agg[0].Buckets))
	}
	for i, b := range agg[0].Buckets {
		if b.Count == 0 {
			continue
		}
		if math.Float64bits(down[i]) != math.Float64bits(b.Min) {
			t.Fatalf("bucket %v: aggregate min %v, per-point min %v", b.Start, b.Min, down[i])
		}
	}
}
