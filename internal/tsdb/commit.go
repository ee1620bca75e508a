package tsdb

// The commit path of a segment directory (docs/PERSISTENCE.md §4).
// Every writer — SnapshotDir, CompactDir and the replication follower —
// persists through the same three pieces: one durable write puts each
// file in place, one begin reads the committed manifest and reaps what
// an interrupted writer left, and one commit publishes the next
// manifest and only then deletes what it dropped. Every file-system
// operation on the path goes through fsDo, the fault seam the
// crash-point tests drive.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// fsHook, when set, is consulted before every file-system operation of
// the commit path with the operation's name and path; an error it
// returns fails the operation instead of running it. It is nil in
// production: tests set it (export_test.go) to record the operation
// sequence and to fail or kill a writer at each operation in turn.
var fsHook func(op, path string) error

// fsDo runs one file-system operation of the commit path through the
// fault seam.
func fsDo(op, path string, do func() error) error {
	if fsHook != nil {
		if err := fsHook(op, path); err != nil {
			return err
		}
	}
	return do()
}

// writeDurable is the one durable write: data goes to name.tmp in dir,
// which is fsynced, closed and renamed to name. Any failure removes the
// temp file, so a file carries its final name only once it is complete
// and durable, and only a crash leaves a temp file behind.
func writeDurable(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+tmpSuffix)
	var f *os.File
	err := fsDo("create", tmp, func() (err error) {
		f, err = os.Create(tmp)
		return err
	})
	if err != nil {
		return err
	}
	err = fsDo("write", tmp, func() error {
		_, err := f.Write(data)
		return err
	})
	if err == nil {
		// Content must be durable before the rename can be: a rename
		// surviving power loss without its bytes would give a committed
		// manifest a bad file.
		err = fsDo("sync", tmp, f.Sync)
	}
	if cerr := fsDo("close", tmp, f.Close); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsDo("rename", tmp, func() error { return os.Rename(tmp, filepath.Join(dir, name)) })
	}
	if err != nil {
		fsDo("remove", tmp, func() error { return os.Remove(tmp) })
	}
	return err
}

// syncDir fsyncs a directory so renames inside it are durable, not just
// ordered.
func syncDir(dir string) error {
	return fsDo("syncdir", dir, func() error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// publishManifest is the commit point on raw manifest bytes: fsync the
// directory so every segment rename the manifest relies on is durable,
// write the bytes durably as ManifestName, and fsync the directory
// again so the commit itself survives power loss. Callers must have
// validated the bytes first.
func publishManifest(dir string, data []byte) error {
	err := syncDir(dir)
	if err == nil {
		err = writeDurable(dir, ManifestName, data)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("tsdb: publish manifest: %w", err)
	}
	return nil
}

// removeFiles deletes names from dir in order and returns how many it
// deleted. A file already gone is not an error — a commit repeated
// after a failed delete finds part of its work done — but any other
// failure is, after the rest were tried.
func removeFiles(dir string, names []string) (removed int, err error) {
	for _, name := range names {
		path := filepath.Join(dir, name)
		switch rerr := fsDo("remove", path, func() error { return os.Remove(path) }); {
		case rerr == nil:
			removed++
		case errors.Is(rerr, fs.ErrNotExist):
		case err == nil:
			err = fmt.Errorf("tsdb: remove %s: %w", name, rerr)
		}
	}
	return removed, err
}

// reapDir lists dir and deletes what m (nil: no manifest) does not
// vouch for: temp files and unlisted segment files. It returns the
// number deleted and the listed files present on disk, sorted.
func reapDir(dir string, m *Manifest) (removed int, held []string, err error) {
	listed := m.files()
	var entries []os.DirEntry
	if err := fsDo("readdir", dir, func() (err error) {
		entries, err = os.ReadDir(dir)
		return err
	}); err != nil {
		return 0, nil, err
	}
	var dead []string
	for _, e := range entries {
		switch name := e.Name(); {
		case listed[name]:
			held = append(held, name)
		case strings.HasSuffix(name, tmpSuffix), strings.HasSuffix(name, segmentSuffix):
			dead = append(dead, name)
		}
	}
	removed, err = removeFiles(dir, dead)
	return removed, held, err
}

// dropped returns, sorted, the names that m does not list: the files
// a commit of m supersedes.
func dropped(names []string, m *Manifest) []string {
	listed := m.files()
	out := slices.DeleteFunc(slices.Clone(names), func(name string) bool { return listed[name] })
	slices.Sort(out)
	return out
}

// dirTxn is one writer's pass over a segment directory, from beginDir
// to commit.
type dirTxn struct {
	dir string
	// prev is the committed manifest; nil when the directory has none.
	prev *Manifest
	// gen is the generation this pass writes and publishes.
	gen uint64
	// held lists, sorted, the committed files on disk: what the commit
	// may supersede.
	held []string
	// removed counts the files the reap and the commit deleted.
	removed int
}

// beginDir is the one begin. It reads dir's committed manifest and
// refuses one it cannot read — corrupt, or a per-shard directory of an
// older format, whose data the reap would destroy. A directory without
// a manifest is an error unless create is set, in which case dir is
// created if needed and every segment file in it is a leftover. It then
// reaps leftovers, which also frees the pass's generation-qualified
// names, and fixes the generation the pass publishes: the committed
// one plus one.
func beginDir(dir string, create bool) (*dirTxn, error) {
	if create {
		if err := fsDo("mkdir", dir, func() error { return os.MkdirAll(dir, 0o755) }); err != nil {
			return nil, err
		}
	}
	prev, err := readManifest(dir)
	if err != nil && (!create || !errors.Is(err, fs.ErrNotExist)) {
		return nil, fmt.Errorf("refusing to write %s: %w", dir, err)
	}
	tx := &dirTxn{dir: dir, prev: prev, gen: 1}
	if prev != nil {
		tx.gen = prev.Generation + 1
	}
	tx.removed, tx.held, err = reapDir(dir, prev)
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// commit is the one commit: it publishes next as the directory's
// manifest and only then deletes the committed files next no longer
// lists.
func (tx *dirTxn) commit(next *Manifest) error {
	if err := writeManifest(tx.dir, next); err != nil {
		return err
	}
	n, err := removeFiles(tx.dir, dropped(tx.held, next))
	tx.removed += n
	return err
}
