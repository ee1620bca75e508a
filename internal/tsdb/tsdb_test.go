package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

func TestWriteQueryRoundTrip(t *testing.T) {
	db := Open()
	tags := map[string]string{"vp": "vp1", "link": "l1", "side": "far"}
	for i := 0; i < 10; i++ {
		db.Write("tslp", tags, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	out := db.Query("tslp", map[string]string{"vp": "vp1"}, t0, t0.Add(time.Hour))
	if len(out) != 1 {
		t.Fatalf("got %d series", len(out))
	}
	if len(out[0].Points) != 10 {
		t.Fatalf("got %d points", len(out[0].Points))
	}
	// Range query trims.
	out = db.Query("tslp", nil, t0.Add(3*time.Minute), t0.Add(6*time.Minute))
	if len(out[0].Points) != 3 {
		t.Fatalf("range query returned %d points, want 3", len(out[0].Points))
	}
	if out[0].Points[0].Value != 3 {
		t.Fatalf("first point %v", out[0].Points[0])
	}
}

func TestTagFilterSeparatesSeries(t *testing.T) {
	db := Open()
	db.Write("tslp", map[string]string{"side": "near"}, t0, 1)
	db.Write("tslp", map[string]string{"side": "far"}, t0, 2)
	db.Write("loss", map[string]string{"side": "far"}, t0, 3)

	if got := len(db.Query("tslp", map[string]string{"side": "far"}, t0, t0.Add(time.Second))); got != 1 {
		t.Fatalf("filter matched %d series", got)
	}
	if got := len(db.Query("tslp", nil, t0, t0.Add(time.Second))); got != 2 {
		t.Fatalf("no-filter matched %d series", got)
	}
	if ms := db.Measurements(); len(ms) != 2 || ms[0] != "loss" || ms[1] != "tslp" {
		t.Fatalf("measurements %v", ms)
	}
	if vs := db.TagValues("tslp", "side"); len(vs) != 2 || vs[0] != "far" {
		t.Fatalf("tag values %v", vs)
	}
}

func TestOutOfOrderWrites(t *testing.T) {
	db := Open()
	db.Write("m", nil, t0.Add(2*time.Second), 2)
	db.Write("m", nil, t0.Add(0*time.Second), 0)
	db.Write("m", nil, t0.Add(1*time.Second), 1)
	out := db.Query("m", nil, t0, t0.Add(time.Minute))
	for i, p := range out[0].Points {
		if p.Value != float64(i) {
			t.Fatalf("points not time-ordered: %v", out[0].Points)
		}
	}
}

func TestKeyCanonical(t *testing.T) {
	a := Key("m", map[string]string{"b": "2", "a": "1"})
	b := Key("m", map[string]string{"a": "1", "b": "2"})
	if a != b {
		t.Fatalf("key not canonical: %q vs %q", a, b)
	}
	if a != "m,a=1,b=2" {
		t.Fatalf("key format %q", a)
	}
}

// TestKeyMatchesFormattedForm holds Key to the ",%s=%s" form it was
// first written in — series maps, shard routing, cache identities and
// every digest are keyed on these exact strings — over the inputs a
// hand-rolled writer could get wrong: empty tag sets, empty names and
// values, separators inside names and values, more tags than the
// stack array holds.
func TestKeyMatchesFormattedForm(t *testing.T) {
	formatted := func(measurement string, tags map[string]string) string {
		keys := make([]string, 0, len(tags))
		for k := range tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := measurement
		for _, k := range keys {
			out += fmt.Sprintf(",%s=%s", k, tags[k])
		}
		return out
	}
	many := map[string]string{}
	for i := 0; i < 11; i++ {
		many[fmt.Sprintf("t%02d", 10-i)] = fmt.Sprint(i)
	}
	for _, tc := range []struct {
		measurement string
		tags        map[string]string
	}{
		{"m", nil},
		{"m", map[string]string{}},
		{"", nil},
		{"", map[string]string{"a": "1"}},
		{"tslp", map[string]string{"link": "L00", "side": "far", "vp": "vp-a"}},
		{"m", map[string]string{"a": ""}},
		{"m", map[string]string{"": "v"}},
		{"m", map[string]string{"": ""}},
		{"m", map[string]string{"a,b": "1", "a": "b=1"}},
		{"m", map[string]string{"k=": ",v,", "=": "="}},
		{"m,x=y", map[string]string{"z": "é\x00"}},
		{"m", many},
	} {
		if got, want := Key(tc.measurement, tc.tags), formatted(tc.measurement, tc.tags); got != want {
			t.Errorf("Key(%q, %v) = %q, want %q", tc.measurement, tc.tags, got, want)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	db := Open()
	for i := 0; i < 100; i++ {
		db.Write("tslp", map[string]string{"vp": "a"}, t0.Add(time.Duration(i)*time.Second), float64(i))
		db.Write("loss", map[string]string{"vp": "b"}, t0.Add(time.Duration(i)*time.Second), float64(-i))
	}
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	db2 := Open()
	if err := db2.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if db2.PointCount() != db.PointCount() || db2.SeriesCount() != db.SeriesCount() {
		t.Fatalf("restore mismatch: %d/%d vs %d/%d",
			db2.PointCount(), db2.SeriesCount(), db.PointCount(), db.SeriesCount())
	}
	a := db.Query("tslp", nil, t0, t0.Add(time.Hour))
	b := db2.Query("tslp", nil, t0, t0.Add(time.Hour))
	if len(a) != len(b) || len(a[0].Points) != len(b[0].Points) {
		t.Fatal("restored query differs")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Open().RestoreDir(dir, DirOptions{}); err == nil {
		t.Fatal("expected error restoring garbage")
	}
}

func TestConcurrentWrites(t *testing.T) {
	db := Open()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tags := map[string]string{"vp": string(rune('a' + g))}
			for i := 0; i < 500; i++ {
				db.Write("m", tags, t0.Add(time.Duration(i)*time.Second), float64(i))
			}
		}(g)
	}
	wg.Wait()
	if db.PointCount() != 8*500 {
		t.Fatalf("lost writes: %d", db.PointCount())
	}
}

func TestQueryCopiesData(t *testing.T) {
	db := Open()
	db.Write("m", nil, t0, 1)
	out := db.Query("m", nil, t0, t0.Add(time.Second))
	out[0].Points[0].Value = 999
	again := db.Query("m", nil, t0, t0.Add(time.Second))
	if again[0].Points[0].Value != 1 {
		t.Fatal("query result aliases store memory")
	}
}

func TestRetain(t *testing.T) {
	db := Open()
	for i := 0; i < 100; i++ {
		db.Write("m", map[string]string{"s": "a"}, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	db.Write("old", nil, t0.Add(-time.Hour), 1)

	dropped := db.Retain(t0.Add(20*time.Minute), t0.Add(60*time.Minute))
	if dropped != 61 {
		t.Fatalf("dropped %d, want 61 (60 from m, 1 from old)", dropped)
	}
	if db.SeriesCount() != 1 {
		t.Fatalf("series %d, want 1 (old removed entirely)", db.SeriesCount())
	}
	out := db.Query("m", nil, t0, t0.Add(2*time.Hour))
	if len(out[0].Points) != 40 {
		t.Fatalf("kept %d points, want 40", len(out[0].Points))
	}
	if out[0].Points[0].Value != 20 {
		t.Fatalf("first kept point %v", out[0].Points[0])
	}
	// Retaining everything is a no-op.
	if d := db.Retain(t0, t0.Add(2*time.Hour)); d != 0 {
		t.Fatalf("no-op retain dropped %d", d)
	}
}
