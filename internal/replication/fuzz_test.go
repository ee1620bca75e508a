package replication

// Fuzz target for the delta frame (docs/REPLICATION.md §8): a follower
// splices whatever tail a leader ships onto its own predecessor file,
// so decodeDeltaFrame and tsdb.AssembleDelta together must never panic
// and must accept nothing but the leader's real segment bytes.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"interdomain/internal/tsdb"
)

// deltaFixture snapshots a store twice into one directory, the second
// time by append-extending one segment, and returns the successor's
// manifest entry and file bytes plus the splice base a follower holding
// the predecessor would open.
func deltaFixture(f *testing.F) (tsdb.SegmentMeta, []byte, *tsdb.DeltaBase) {
	dir, baseDir := f.TempDir(), f.TempDir()
	db := tsdb.Open()
	tags := map[string]string{"link": "l1", "side": "far"}
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		db.Write("tslp", tags, start.Add(time.Duration(i)*5*time.Minute), float64(i))
	}
	if _, err := db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
		f.Fatal(err)
	}
	first, err := tsdb.LoadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	prev := first.Segments[0]
	old, err := os.ReadFile(filepath.Join(dir, prev.File))
	if err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(baseDir, prev.File), old, 0o644); err != nil {
		f.Fatal(err)
	}
	for i := 12; i < 20; i++ {
		db.Write("tslp", tags, start.Add(time.Duration(i)*5*time.Minute), float64(i))
	}
	if _, err := db.SnapshotDir(dir, tsdb.DirOptions{Incremental: true}); err != nil {
		f.Fatal(err)
	}
	second, err := tsdb.LoadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	sm := second.Segments[0]
	if sm.AppendCursor <= 0 {
		f.Fatalf("fixture segment carries no append cursor: %+v", sm)
	}
	succ, err := os.ReadFile(filepath.Join(dir, sm.File))
	if err != nil {
		f.Fatal(err)
	}
	base, err := tsdb.OpenDeltaBase(filepath.Join(baseDir, prev.File), sm)
	if err != nil {
		f.Fatal(err)
	}
	return sm, succ, base
}

func FuzzDeltaFrame(f *testing.F) {
	sm, succ, base := deltaFixture(f)
	hdr, payload := succ[:tsdb.SegmentHeaderSize], succ[tsdb.SegmentHeaderSize:]
	frame := encodeDeltaFrame(base.From, hdr, payload[base.From:])
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Add(append(bytes.Clone(hdr), payload[base.From:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The input as a frame off the wire, and — so mutations get past
		// the frame checksum to the splice itself — as the header and
		// tail of a frame the leader encoded.
		frames := [][]byte{data}
		if len(data) >= tsdb.SegmentHeaderSize {
			frames = append(frames, encodeDeltaFrame(base.From, data[:tsdb.SegmentHeaderSize], data[tsdb.SegmentHeaderSize:]))
		}
		for _, fr := range frames {
			from, h, tail, err := decodeDeltaFrame(fr)
			if err != nil || from != base.From {
				continue
			}
			full, err := tsdb.AssembleDelta(sm, base, h, tail)
			if err == nil && !bytes.Equal(full, succ) {
				t.Fatalf("accepted a splice that is not the leader's segment (%d bytes, want %d)", len(full), len(succ))
			}
		}
	})
}
