package tsdb

// Tests for the versioned zero-copy read path (docs/SERVING.md §1-§2):
// QueryView must agree with Query point-for-point, views must stay
// immutable across later writes, and ViewStamp must move exactly when a
// matching series' contents move.

import (
	"math/rand"
	"testing"
	"time"
)

func viewEqualsQuery(t *testing.T, db *DB, m string, filter map[string]string, from, to time.Time) {
	t.Helper()
	want := db.Query(m, filter, from, to)
	got := db.QueryView(m, filter, from, to)
	if len(got) != len(want) {
		t.Fatalf("QueryView returned %d series, Query %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if Key(w.Measurement, w.Tags) != Key(g.Measurement, g.Tags) {
			t.Fatalf("series %d: key %q vs %q", i, Key(g.Measurement, g.Tags), Key(w.Measurement, w.Tags))
		}
		if len(g.Times) != len(w.Points) || len(g.Values) != len(w.Points) {
			t.Fatalf("series %d: view has %d/%d entries, query %d points", i, len(g.Times), len(g.Values), len(w.Points))
		}
		for j, p := range w.Points {
			if g.Times[j] != p.Time.UnixNano() || g.Values[j] != p.Value {
				t.Fatalf("series %d point %d: view (%d, %v) vs query (%d, %v)",
					i, j, g.Times[j], g.Values[j], p.Time.UnixNano(), p.Value)
			}
		}
	}
}

func TestQueryViewEquivalence(t *testing.T) {
	db := Open()
	rng := rand.New(rand.NewSource(42))
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	links := []string{"L1", "L2", "L3"}
	sides := []string{"far", "near"}
	// Random writes, including out-of-order inserts, across 12 series.
	for i := 0; i < 4000; i++ {
		tags := map[string]string{
			"link": links[rng.Intn(len(links))],
			"side": sides[rng.Intn(len(sides))],
			"vp":   []string{"a", "b"}[rng.Intn(2)],
		}
		at := base.Add(time.Duration(rng.Intn(72*3600)) * time.Second)
		db.Write("tslp", tags, at, rng.Float64()*50)
	}
	filters := []map[string]string{
		nil,
		{"link": "L1"},
		{"link": "L2", "side": "far"},
		{"link": "L3", "side": "near", "vp": "a"},
		{"link": "nope"},
	}
	for _, f := range filters {
		for trial := 0; trial < 5; trial++ {
			from := base.Add(time.Duration(rng.Intn(48*3600)) * time.Second)
			to := from.Add(time.Duration(1+rng.Intn(24*3600)) * time.Second)
			viewEqualsQuery(t, db, "tslp", f, from, to)
		}
	}
	// Whole-range and empty-range edges.
	viewEqualsQuery(t, db, "tslp", nil, base.Add(-time.Hour), base.Add(100*time.Hour))
	viewEqualsQuery(t, db, "tslp", nil, base.Add(200*time.Hour), base.Add(300*time.Hour))
}

func TestQueryViewImmutableSnapshot(t *testing.T) {
	db := Open()
	tags := map[string]string{"link": "L", "side": "far"}
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		db.Write("tslp", tags, base.Add(time.Duration(i)*time.Minute), float64(i))
	}
	views := db.QueryView("tslp", tags, base, base.Add(time.Hour))
	if len(views) != 1 || views[0].Len() != 10 {
		t.Fatalf("unexpected views: %+v", views)
	}
	v := views[0]
	timesBefore := append([]int64(nil), v.Times...)
	valuesBefore := append([]float64(nil), v.Values...)

	// Later writes — append, out-of-order insert, and a Retain trim —
	// must not disturb the published snapshot.
	db.Write("tslp", tags, base.Add(30*time.Minute), 99)
	db.Write("tslp", tags, base.Add(-30*time.Minute), -1)
	db.Retain(base.Add(2*time.Minute), base.Add(time.Hour))

	for i := range timesBefore {
		if v.Times[i] != timesBefore[i] || v.Values[i] != valuesBefore[i] {
			t.Fatalf("view mutated at %d: (%d, %v) was (%d, %v)",
				i, v.Times[i], v.Values[i], timesBefore[i], valuesBefore[i])
		}
	}

	// A fresh view reflects the post-write, post-retain state and
	// agrees with Query again.
	viewEqualsQuery(t, db, "tslp", tags, base.Add(-time.Hour), base.Add(2*time.Hour))
}

// TestSeriesViewHeldAcrossConcurrentMutation holds a view while another
// goroutine runs the mutations that could reach the columns it aliases.
// Each script starts with in-order appends that land in place, past the
// view, in the very array the view aliases; then one runs an
// out-of-order insert (which must build fresh columns instead of
// shifting in place) and the other a Retain trimming both ends followed
// by more appends (which must reallocate rather than overwrite the
// dropped tail the view still covers). The reader re-checks the view
// throughout; under -race any store write to a published index is a
// detected race, and any visible change fails the comparison
// (docs/SERVING.md §1, validity contract).
func TestSeriesViewHeldAcrossConcurrentMutation(t *testing.T) {
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * time.Minute) }
	const spare = 20
	scripts := map[string]func(db *DB, write func()){
		"out-of-order insert": func(db *DB, write func()) {
			db.Write("tslp", map[string]string{"link": "L"}, base.Add(30*time.Second), -1)
		},
		"retain then append": func(db *DB, write func()) {
			db.Retain(at(10), at(50))
			for i := 0; i < 200; i++ {
				write()
			}
		},
	}
	for name, mutate := range scripts {
		db := Open()
		tags := map[string]string{"link": "L"}
		n := 0
		write := func() {
			db.Write("tslp", tags, at(n), float64(n))
			n++
		}
		// Grow the series until its columns have room for the in-place
		// appends, so the view below aliases the array they land in.
		sh := &db.shards[shardFor(Key("tslp", tags))]
		for room := 0; n < 100 || room < spare; {
			write()
			sh.mu.RLock()
			ser := sh.series[Key("tslp", tags)]
			room = cap(ser.times) - len(ser.times)
			sh.mu.RUnlock()
		}
		held := n
		views := db.QueryView("tslp", tags, base, at(held))
		if len(views) != 1 || views[0].Len() != held {
			t.Fatalf("%s: unexpected views: %+v", name, views)
		}
		v := views[0]

		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < spare; i++ {
				write()
			}
			mutate(db, write)
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			for i := 0; i < held; i++ {
				if v.Times[i] != at(i).UnixNano() || v.Values[i] != float64(i) {
					t.Fatalf("%s: held view changed at %d: (%d, %v)", name, i, v.Times[i], v.Values[i])
				}
			}
		}
		// The store itself moved on and still agrees with Query.
		viewEqualsQuery(t, db, "tslp", tags, base.Add(-time.Hour), at(n+1))
	}
}

func TestViewStampInvalidation(t *testing.T) {
	db := Open()
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	far := map[string]string{"link": "L", "side": "far"}
	near := map[string]string{"link": "L", "side": "near"}
	other := map[string]string{"link": "M", "side": "far"}
	db.Write("tslp", far, base, 10)
	db.Write("tslp", near, base, 5)
	db.Write("tslp", other, base, 7)

	linkL := map[string]string{"link": "L"}
	s0 := db.ViewStamp("tslp", linkL)
	if s1 := db.ViewStamp("tslp", linkL); s1 != s0 {
		t.Fatalf("stamp moved without a write: %x vs %x", s1, s0)
	}
	// A write to a non-matching series must not move the stamp.
	db.Write("tslp", other, base.Add(time.Minute), 8)
	if s1 := db.ViewStamp("tslp", linkL); s1 != s0 {
		t.Fatalf("stamp moved on unrelated write")
	}
	// A write to any matching series must move it.
	db.Write("tslp", near, base.Add(time.Minute), 6)
	s2 := db.ViewStamp("tslp", linkL)
	if s2 == s0 {
		t.Fatalf("stamp did not move on matching write")
	}
	// WriteBatch (the Staged commit path) moves it too.
	db.WriteBatch([]BatchPoint{{Measurement: "tslp", Tags: far, Time: base.Add(2 * time.Minute), Value: 11}})
	s3 := db.ViewStamp("tslp", linkL)
	if s3 == s2 {
		t.Fatalf("stamp did not move on WriteBatch")
	}
	// A new series matching the filter moves it.
	db.Write("tslp", map[string]string{"link": "L", "side": "far", "vp": "v2"}, base, 12)
	s4 := db.ViewStamp("tslp", linkL)
	if s4 == s3 {
		t.Fatalf("stamp did not move on new matching series")
	}
	// Retain trimming matching series moves it.
	db.Retain(base.Add(90*time.Second), base.Add(time.Hour))
	s5 := db.ViewStamp("tslp", linkL)
	if s5 == s4 {
		t.Fatalf("stamp did not move on Retain")
	}
}

func TestViewStampMovesOnRestore(t *testing.T) {
	db := Open()
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	tags := map[string]string{"link": "L", "side": "far"}
	db.Write("tslp", tags, base, 10)
	s0 := db.ViewStamp("tslp", tags)

	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if s1 := db.ViewStamp("tslp", tags); s1 != s0 {
		t.Fatalf("stamp moved on a snapshot")
	}
	if err := db.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	// Identical contents, but the whole store was replaced: the epoch
	// keeps the stamps distinct so nothing cached before the restore
	// can be served after it.
	if s2 := db.ViewStamp("tslp", tags); s2 == s0 {
		t.Fatalf("stamp did not move across RestoreDir")
	}
}

func TestTimeBounds(t *testing.T) {
	db := Open()
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	if _, _, ok := db.TimeBounds("tslp", nil); ok {
		t.Fatal("empty store reported bounds")
	}
	db.Write("tslp", map[string]string{"link": "L", "side": "far"}, base.Add(2*time.Hour), 1)
	db.Write("tslp", map[string]string{"link": "L", "side": "near"}, base, 2)
	db.Write("tslp", map[string]string{"link": "M", "side": "far"}, base.Add(50*time.Hour), 3)

	min, max, ok := db.TimeBounds("tslp", map[string]string{"link": "L"})
	if !ok || !min.Equal(base) || !max.Equal(base.Add(2*time.Hour)) {
		t.Fatalf("link L bounds [%v, %v] ok=%v", min, max, ok)
	}
	min, max, ok = db.TimeBounds("tslp", nil)
	if !ok || !min.Equal(base) || !max.Equal(base.Add(50*time.Hour)) {
		t.Fatalf("store bounds [%v, %v] ok=%v", min, max, ok)
	}
	if _, _, ok := db.TimeBounds("tslp", map[string]string{"link": "nope"}); ok {
		t.Fatal("missing link reported bounds")
	}
}

func TestStoreVersion(t *testing.T) {
	db := Open()
	v0 := db.StoreVersion()
	db.Write("tslp", map[string]string{"vp": "a"}, time.Unix(0, 0), 1)
	v1 := db.StoreVersion()
	if v1 <= v0 {
		t.Fatalf("StoreVersion did not advance on write: %d -> %d", v0, v1)
	}
	db.Write("tslp", map[string]string{"vp": "a"}, time.Unix(1, 0), 2)
	if v2 := db.StoreVersion(); v2 <= v1 {
		t.Fatalf("StoreVersion did not advance on second write: %d -> %d", v1, v2)
	}
}
