package tsdb

// Exported handles for the replication layer (internal/replication;
// protocol spec in docs/REPLICATION.md). A follower mirrors a leader's
// segment directory by fetching the manifest, fetching only the
// segment files it does not already hold, verifying every file against
// its manifest entry, and committing with the same atomic
// manifest-rename protocol the snapshot writers use
// (docs/PERSISTENCE.md §4). Everything it needs — parse, verify,
// commit — lives here so the wire layer never re-implements (or
// weakens) the on-disk contract.

import (
	"fmt"
	"os"
	"path/filepath"
)

// LoadManifest reads and validates dir's committed manifest. It is the
// exported counterpart of the internal reader RestoreDir uses: a
// replication follower calls it to learn the generation it last
// committed, so a restart resumes tailing instead of refetching
// everything (docs/REPLICATION.md §3).
func LoadManifest(dir string) (*Manifest, error) {
	return readManifest(dir)
}

// CommitManifest atomically publishes raw manifest bytes as dir's
// committed manifest — temp file, fsync, rename over ManifestName,
// directory fsync (docs/PERSISTENCE.md §4) — after validating them
// with ParseManifest. It returns the parsed manifest. The replication
// follower commits the exact bytes the leader served, so the two
// directories' manifests are byte-identical; callers must have every
// referenced segment file verified and in place first, because the
// rename is the commit point.
func CommitManifest(dir string, data []byte) (*Manifest, error) {
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("tsdb: commit manifest: %w", err)
	}
	if err := publishManifest(dir, data); err != nil {
		return nil, err
	}
	return m, nil
}

// VerifySegmentFile fully validates one on-disk segment file against
// its manifest entry — header length, magic, version, identity fields,
// payload length, CRC-32C — without decoding the payload
// (docs/PERSISTENCE.md §2, reader obligations). The replication
// follower reuses a local file no committed manifest vouches for — a
// download of an interrupted cycle, anything on disk at its first cycle
// — only after this passes; downloads themselves are checked the same
// way in memory (AssembleDelta) before they are written, so a truncated
// or corrupt transfer fails loud before the manifest commit can make it
// visible.
func VerifySegmentFile(path string, sm SegmentMeta) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("tsdb: segment %s: %w", sm.File, err)
	}
	_, err = verifySegmentBytes(data, sm)
	return err
}

// ValidSegmentName reports whether name is a well-formed
// generation-qualified segment file name (seg-<windowStart>-g<gen>.seg,
// docs/PERSISTENCE.md §2) with no path components. The per-shard names
// of format v3 (seg-SS-<windowStart>-g<gen>.seg) are not. The replication
// exporter serves only such names, which both blocks path traversal
// and keeps manifests, temp files and foreign files unreachable
// through the segment endpoint.
func ValidSegmentName(name string) bool {
	if name == "" || name != filepath.Base(name) {
		return false
	}
	_, ok := parseSegmentGen(name)
	return ok
}

// SnapshotGeneration returns the manifest generation of the store's
// last successful SnapshotDir or RestoreDir, or 0 when the store has
// never touched a segment directory. On a replication follower this is
// the applied generation the serving tier reports in /api/v1/health.
func (db *DB) SnapshotGeneration() uint64 {
	db.global.RLock()
	defer db.global.RUnlock()
	return db.snapGen
}
