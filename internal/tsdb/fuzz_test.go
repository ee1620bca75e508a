package tsdb

// Fuzz target for the manifest parser (docs/PERSISTENCE.md §3). A
// follower plans a tail cycle from the manifest alone — which files it
// reuses unread, which it fetches, which it deletes — so whatever
// ParseManifest accepts must name only plain segment files and carry
// sane windows and cursors, and its memo of validated bytes must never
// answer differently from a fresh parse.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func FuzzParseManifest(f *testing.F) {
	dir := f.TempDir()
	if _, err := buildSegStore(time.Hour).SnapshotDir(dir, DirOptions{}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	entry := func(file string, cursor int64) []byte {
		return []byte(fmt.Sprintf(`{"version":1,"generation":1,"window_nanos":%d,"segments":[`+
			`{"file":%q,"shard":0,"window_start":0,"window_end":%d,"append_cursor":%d}]}`,
			int64(time.Hour), file, int64(time.Hour), cursor))
	}
	// The names TestParseManifestRejectsBadFileNames pins, and a negative
	// cursor.
	for _, file := range []string{"seg-00-0-g1.seg", "../x.seg", "a/seg-00-0-g1.seg", ManifestName} {
		f.Add(entry(file, 0))
	}
	f.Add(entry("seg-00-0-g1.seg", -1))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		fresh, ferr := decodeManifest(data)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("memoized parse err %v, fresh parse err %v", err, ferr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(m, fresh) {
			t.Fatalf("memoized parse %+v, fresh parse %+v", m, fresh)
		}
		if m.WindowNanos <= 0 {
			t.Fatalf("accepted window %d", m.WindowNanos)
		}
		for _, sm := range m.Segments {
			if !ValidSegmentName(sm.File) {
				t.Fatalf("accepted file name %q", sm.File)
			}
			if sm.AppendCursor < 0 {
				t.Fatalf("accepted cursor %d", sm.AppendCursor)
			}
			if sm.WindowEnd <= sm.WindowStart || sm.Shard < 0 || sm.Shard >= NumShards {
				t.Fatalf("accepted entry %+v", sm)
			}
		}
		// The memo hands out copies: mutating one parse must not leak
		// into the next.
		if len(m.Segments) > 0 {
			m.Segments[0].File = "../escaped.seg"
			if again, err := ParseManifest(data); err != nil || again.Segments[0].File == m.Segments[0].File {
				t.Fatalf("a caller's edit reached the memo: %v", err)
			}
		}
	})
}
