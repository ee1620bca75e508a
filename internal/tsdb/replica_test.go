package tsdb

// Tests for the exported replication handles (replica.go): the parse/
// verify/commit primitives internal/replication builds the wire
// protocol on. The on-disk rules they enforce are docs/PERSISTENCE.md
// §2-§4; the protocol built on them is docs/REPLICATION.md.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCommitManifestRoundTrip(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	db := buildSegStore(24 * time.Hour)
	if _, err := db.SnapshotDir(src, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(src)
	if err != nil {
		t.Fatal(err)
	}

	// Copy every segment byte-for-byte, then commit the leader's exact
	// manifest bytes — the follower's sequence.
	for _, sm := range m.Segments {
		b, err := os.ReadFile(filepath.Join(src, sm.File))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, sm.File), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cm, err := CommitManifest(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Generation != m.Generation {
		t.Fatalf("committed generation %d, want %d", cm.Generation, m.Generation)
	}
	got, err := os.ReadFile(filepath.Join(dst, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("committed manifest bytes differ from the source's")
	}

	// The equivalence oracle: the mirrored directory restores to the
	// same store.
	re := Open()
	if err := re.RestoreDir(dst, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if re.Digest() != db.Digest() {
		t.Fatalf("digest mismatch: restored %x, source %x", re.Digest(), db.Digest())
	}
	if re.SnapshotGeneration() != m.Generation {
		t.Fatalf("restored generation %d, want %d", re.SnapshotGeneration(), m.Generation)
	}
}

func TestCommitManifestRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	if _, err := CommitManifest(dir, []byte("not json")); err == nil {
		t.Fatal("garbage manifest committed")
	}
	if _, err := CommitManifest(dir, []byte(`{"version":99}`)); err == nil {
		t.Fatal("future-versioned manifest committed")
	}
	// Entries come in window order with disjoint spans
	// (docs/PERSISTENCE.md §3): two entries claiming overlapping time,
	// or listed out of order, are refused even at the current version
	// with well-formed names.
	h := int64(time.Hour)
	twoEntries := func(start0, end0, start1, end1 int64) []byte {
		return []byte(fmt.Sprintf(`{"version":%d,"generation":1,"window_nanos":%d,"segments":[`+
			`{"file":"seg-%d-g1.seg","window_start":%d,"window_end":%d},`+
			`{"file":"seg-%d-g1.seg","window_start":%d,"window_end":%d}]}`,
			ManifestVersion, h, start0, start0, end0, start1, start1, end1))
	}
	if _, err := CommitManifest(dir, twoEntries(0, 2*h, h, 3*h)); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping spans: got %v, want an overlap error", err)
	}
	if _, err := CommitManifest(dir, twoEntries(h, 2*h, 0, h)); err == nil || !strings.Contains(err.Error(), "window order") {
		t.Fatalf("entries out of order: got %v, want a window-order error", err)
	}
	// A per-shard v3 directory's manifest lists each window once per
	// shard: refused at parse, never read as something it is not.
	perShard := fmt.Sprintf(`{"version":1,"generation":3,"window_nanos":%d,"segments":[`+
		`{"file":"seg-00-0-g3.seg","shard":0,"window_start":0,"window_end":%d},`+
		`{"file":"seg-01-0-g3.seg","shard":1,"window_start":0,"window_end":%d}]}`, h, h, h)
	if _, err := CommitManifest(dir, []byte(perShard)); err == nil {
		t.Fatal("per-shard v3 manifest committed")
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatal("rejected commit left a manifest behind")
	}
}

func TestVerifySegmentFile(t *testing.T) {
	dir := t.TempDir()
	db := buildSegStore(24 * time.Hour)
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.Segments[0]
	path := filepath.Join(dir, sm.File)
	if err := VerifySegmentFile(path, sm); err != nil {
		t.Fatalf("clean segment rejected: %v", err)
	}

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One flipped payload byte must fail the CRC.
	bad := append([]byte(nil), orig...)
	bad[len(bad)-1] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegmentFile(path, sm); err == nil {
		t.Fatal("corrupt segment verified")
	}
	// Truncation must fail before the CRC is even checked.
	if err := os.WriteFile(path, orig[:len(orig)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegmentFile(path, sm); err == nil {
		t.Fatal("truncated segment verified")
	}
	// A valid file against the wrong manifest entry must fail too.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	wrong := sm
	wrong.CRC ^= 1
	if err := VerifySegmentFile(path, wrong); err == nil {
		t.Fatal("segment verified against a mismatched manifest entry")
	}
}

func TestValidSegmentName(t *testing.T) {
	valid := []string{"seg-1456790400000000000-g1.seg", "seg-0-g42.seg", "seg--3600000000000-g7.seg"}
	invalid := []string{
		"", "MANIFEST.json", "seg-0-g1.seg.tmp", "notaseg.seg",
		"../seg-0-g1.seg", "a/seg-0-g1.seg", "seg-0.seg", "seg-0-g0.seg", "seg-x-g1.seg",
		// Format v3's per-shard names.
		"seg-00-1456790400000000000-g1.seg", "seg-15-0-g42.seg",
	}
	for _, n := range valid {
		if !ValidSegmentName(n) {
			t.Errorf("ValidSegmentName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if ValidSegmentName(n) {
			t.Errorf("ValidSegmentName(%q) = true, want false", n)
		}
	}
}

// TestParseManifestRejectsBadFileNames: an entry whose file is not a
// plain segment name is refused at parse time, so neither a follower
// nor CommitManifest nor RestoreDir can be pointed outside the
// directory (docs/PERSISTENCE.md §3).
func TestParseManifestRejectsBadFileNames(t *testing.T) {
	manifest := func(file string) []byte {
		return []byte(fmt.Sprintf(`{"version":%d,"generation":1,"window_nanos":%d,"segments":[`+
			`{"file":%q,"window_start":0,"window_end":%d}]}`, ManifestVersion, int64(time.Hour), file, int64(time.Hour)))
	}
	if _, err := ParseManifest(manifest("seg-0-g1.seg")); err != nil {
		t.Fatalf("well-formed entry rejected: %v", err)
	}
	for _, file := range []string{"../x.seg", "a/seg-0-g1.seg", ManifestName} {
		if _, err := ParseManifest(manifest(file)); err == nil {
			t.Errorf("ParseManifest accepted file %q", file)
		}
	}
}

func TestSnapshotGeneration(t *testing.T) {
	db := buildSegStore(24 * time.Hour)
	if g := db.SnapshotGeneration(); g != 0 {
		t.Fatalf("fresh store generation %d, want 0", g)
	}
	dir := t.TempDir()
	if _, err := db.SnapshotDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if g := db.SnapshotGeneration(); g != 1 {
		t.Fatalf("after first snapshot generation %d, want 1", g)
	}
	db.Write("tslp", map[string]string{"link": "l1"}, t0.Add(time.Hour), 1)
	if _, err := db.SnapshotDir(dir, DirOptions{Incremental: true}); err != nil {
		t.Fatal(err)
	}
	if g := db.SnapshotGeneration(); g != 2 {
		t.Fatalf("after second snapshot generation %d, want 2", g)
	}
	re := Open()
	if err := re.RestoreDir(dir, DirOptions{}); err != nil {
		t.Fatal(err)
	}
	if g := re.SnapshotGeneration(); g != 2 {
		t.Fatalf("restored store generation %d, want 2", g)
	}
}
