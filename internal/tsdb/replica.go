package tsdb

// Exported handles for the replication layer (internal/replication;
// protocol spec in docs/REPLICATION.md). A follower mirrors a leader's
// segment directory by fetching the manifest, fetching only the
// segment files it does not already hold, verifying every file against
// its manifest entry, and installing and committing them through the
// same commit path the snapshot writers use (commit.go,
// docs/PERSISTENCE.md §4). Everything it needs — parse, verify,
// install, commit — lives here so the wire layer never re-implements
// (or weakens) the on-disk contract.

import (
	"fmt"
	"os"
	"path/filepath"
)

// LoadManifest reads and validates dir's committed manifest. It is the
// exported counterpart of the internal reader RestoreDir uses, and
// changes nothing on disk.
func LoadManifest(dir string) (*Manifest, error) {
	return readManifest(dir)
}

// InstallSegment durably writes one segment file into dir under its
// manifest name, through the same durable write every segment writer
// uses (docs/PERSISTENCE.md §4). The bytes must already be verified
// against sm — AssembleDelta does that in memory — because the
// manifest commit that follows makes them visible; until then the file
// is an ignorable leftover of another generation.
func InstallSegment(dir string, sm SegmentMeta, data []byte) error {
	if !ValidSegmentName(sm.File) {
		return fmt.Errorf("tsdb: install: %q is not a segment file name", sm.File)
	}
	if err := writeDurable(dir, sm.File, data); err != nil {
		return fmt.Errorf("tsdb: install segment %s: %w", sm.File, err)
	}
	return nil
}

// CommitManifest validates raw manifest bytes with ParseManifest,
// publishes them as dir's committed manifest through the commit every
// writer uses — directory fsync, temp file, fsync, rename, directory
// fsync (docs/PERSISTENCE.md §4) — and then deletes what the commit
// superseded: every name in superseded the new manifest does not list
// or, with no names given, every temp file and unlisted segment file
// in a listing of dir. It returns the parsed manifest. The replication
// follower commits the exact bytes the leader served, so the two
// directories' manifests are byte-identical; callers must have every
// referenced segment file verified and in place first, because the
// rename is the commit point.
func CommitManifest(dir string, data []byte, superseded ...string) (*Manifest, error) {
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("tsdb: commit manifest: %w", err)
	}
	if err := publishManifest(dir, data); err != nil {
		return nil, err
	}
	if len(superseded) == 0 {
		_, _, err = reapDir(dir, m)
	} else {
		_, err = removeFiles(dir, dropped(superseded, m))
	}
	if err != nil {
		return nil, fmt.Errorf("tsdb: commit manifest: %w", err)
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
