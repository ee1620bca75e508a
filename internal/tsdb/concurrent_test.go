package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var stressEpoch = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// TestConcurrentStress hammers WriteBatch, Write, Query, TagValues,
// Snapshot and Retain from many goroutines at once. Its value is under
// `go test -race`: any unguarded shard or index access trips the
// detector. It also checks that nothing is lost: every written point is
// accounted for at the end.
func TestConcurrentStress(t *testing.T) {
	db := Open()
	const (
		writers      = 8
		readers      = 4
		batches      = 50
		perBatch     = 40
		snapshotters = 2
	)

	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})

	// Writers: each owns a disjoint vp tag so final counts are exact,
	// while sharing link/side tags so postings and shards collide.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vp := fmt.Sprintf("vp%d", w)
			for b := 0; b < batches; b++ {
				pts := make([]BatchPoint, 0, perBatch)
				for i := 0; i < perBatch; i++ {
					pts = append(pts, BatchPoint{
						Measurement: "tslp",
						Tags: map[string]string{
							"vp":   vp,
							"link": fmt.Sprintf("l%d", i%10),
							"side": []string{"near", "far"}[i%2],
						},
						Time:  stressEpoch.Add(time.Duration(b*perBatch+i) * time.Second),
						Value: float64(i),
					})
				}
				db.WriteBatch(pts)
				// Mix in single writes on a second measurement.
				db.Write("loss_rate", map[string]string{"vp": vp}, stressEpoch.Add(time.Duration(b)*time.Minute), 0.5)
			}
		}(w)
	}

	// Readers: range queries, tag scans, measurement listings.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				filter := map[string]string{"link": fmt.Sprintf("l%d", r%10), "side": "far"}
				for _, s := range db.Query("tslp", filter, stressEpoch, stressEpoch.Add(time.Hour)) {
					if s.Measurement != "tslp" {
						t.Errorf("query returned measurement %q", s.Measurement)
						return
					}
				}
				db.TagValues("tslp", "vp")
				db.Measurements()
			}
		}(r)
	}

	// Snapshotters: serialize a consistent view while writes continue.
	for s := 0; s < snapshotters; s++ {
		dir := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				// A snapshot must itself restore cleanly.
				if err := Open().RestoreDir(dir, DirOptions{}); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
			}
		}()
	}

	// One goroutine ages out data in a window nothing writes into, so the
	// final count stays predictable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			db.Retain(stressEpoch.Add(-time.Hour), stressEpoch.Add(24*time.Hour))
		}
	}()

	// Wait for writers + retainer, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress test deadlocked")
	}
	close(stop)
	readerWG.Wait()

	wantTSLP := writers * batches * perBatch
	got := 0
	for _, vp := range []string{"vp0", "vp1", "vp2", "vp3", "vp4", "vp5", "vp6", "vp7"} {
		for _, s := range db.Query("tslp", map[string]string{"vp": vp}, stressEpoch, stressEpoch.Add(24*time.Hour)) {
			got += len(s.Points)
		}
	}
	if got != wantTSLP {
		t.Fatalf("lost writes: got %d tslp points, want %d", got, wantTSLP)
	}
	if n := len(db.TagValues("tslp", "vp")); n != writers {
		t.Fatalf("TagValues(vp) = %d, want %d", n, writers)
	}
}

// TestIndexedQueryMatchesScan cross-checks the indexed query path against
// the full-scan reference on a store with many series and varied filters.
func TestIndexedQueryMatchesScan(t *testing.T) {
	db := Open()
	for vp := 0; vp < 20; vp++ {
		for link := 0; link < 15; link++ {
			for _, side := range []string{"near", "far"} {
				tags := map[string]string{
					"vp":   fmt.Sprintf("vp%d", vp),
					"link": fmt.Sprintf("l%d", link),
					"side": side,
				}
				for i := 0; i < 5; i++ {
					db.Write("tslp", tags, stressEpoch.Add(time.Duration(vp*60+link*4+i)*time.Second), float64(i))
				}
			}
		}
	}
	db.Write("loss_rate", map[string]string{"vp": "vp0"}, stressEpoch, 0.1)

	from, to := stressEpoch, stressEpoch.Add(time.Hour)
	filters := []map[string]string{
		nil,
		{"vp": "vp3"},
		{"link": "l7"},
		{"vp": "vp3", "side": "far"},
		{"vp": "vp3", "link": "l7", "side": "near"},
		{"vp": "nope"},
		{"bogus": "tag"},
	}
	for _, f := range filters {
		indexed := db.Query("tslp", f, from, to)
		scanned := db.queryScan("tslp", f, from, to)
		if len(indexed) != len(scanned) {
			t.Fatalf("filter %v: indexed %d series, scan %d", f, len(indexed), len(scanned))
		}
		for i := range indexed {
			ik := Key(indexed[i].Measurement, indexed[i].Tags)
			sk := Key(scanned[i].Measurement, scanned[i].Tags)
			if ik != sk {
				t.Fatalf("filter %v: series %d keys differ: %q vs %q", f, i, ik, sk)
			}
			if len(indexed[i].Points) != len(scanned[i].Points) {
				t.Fatalf("filter %v: series %q point counts differ", f, ik)
			}
		}
	}
}

// TestWriteBatchEquivalentToWrites asserts WriteBatch produces the same
// store state as point-at-a-time writes, including out-of-order input.
func TestWriteBatchEquivalentToWrites(t *testing.T) {
	mk := func() []BatchPoint {
		var pts []BatchPoint
		for i := 0; i < 30; i++ {
			pts = append(pts, BatchPoint{
				Measurement: "tslp",
				Tags:        map[string]string{"vp": "v", "link": fmt.Sprintf("l%d", i%3)},
				// Reverse time order exercises the insertion path.
				Time:  stressEpoch.Add(time.Duration(30-i) * time.Second),
				Value: float64(i),
			})
		}
		return pts
	}
	a, b := Open(), Open()
	a.WriteBatch(mk())
	for _, p := range mk() {
		b.Write(p.Measurement, p.Tags, p.Time, p.Value)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("batch store and write store digests differ")
	}
	if a.PointCount() != b.PointCount() || a.SeriesCount() != b.SeriesCount() {
		t.Fatalf("batch store %d/%d points/series, write store %d/%d",
			a.PointCount(), a.SeriesCount(), b.PointCount(), b.SeriesCount())
	}
	qa := a.Query("tslp", nil, stressEpoch, stressEpoch.Add(time.Hour))
	qb := b.Query("tslp", nil, stressEpoch, stressEpoch.Add(time.Hour))
	if len(qa) != len(qb) {
		t.Fatalf("query series differ: %d vs %d", len(qa), len(qb))
	}
	for i := range qa {
		for j := range qa[i].Points {
			if qa[i].Points[j] != qb[i].Points[j] {
				t.Fatalf("series %d point %d differs: %+v vs %+v", i, j, qa[i].Points[j], qb[i].Points[j])
			}
		}
	}
}

// TestRetainUpdatesIndex verifies emptied series leave the inverted index
// so later queries and tag listings don't resurrect them.
func TestRetainUpdatesIndex(t *testing.T) {
	db := Open()
	db.Write("tslp", map[string]string{"vp": "old"}, stressEpoch, 1)
	db.Write("tslp", map[string]string{"vp": "new"}, stressEpoch.Add(time.Hour), 2)
	if n := db.Retain(stressEpoch.Add(30*time.Minute), stressEpoch.Add(2*time.Hour)); n != 1 {
		t.Fatalf("dropped %d, want 1", n)
	}
	if got := db.TagValues("tslp", "vp"); len(got) != 1 || got[0] != "new" {
		t.Fatalf("TagValues after retain: %v", got)
	}
	if got := db.Query("tslp", map[string]string{"vp": "old"}, stressEpoch, stressEpoch.Add(2*time.Hour)); len(got) != 0 {
		t.Fatalf("dropped series still queryable: %v", got)
	}
}
