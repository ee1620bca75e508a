package tsdb

// Observability for segment directories: the serving tier reports what
// is actually on disk — bytes, file count, compaction depth — next to the manifest generation it already exposes
// (docs/SERVING.md, /api/v1/stats).

import (
	"fmt"
	"os"
	"path/filepath"
)

// DirInfo summarizes a committed segment directory for monitoring.
type DirInfo struct {
	// Generation is the committed manifest generation.
	Generation uint64 `json:"generation"`
	// Segments is the number of committed segment files.
	Segments int `json:"segments"`
	// Bytes is the total on-disk size of the committed segment files
	// (headers plus payloads; the manifest itself is excluded).
	Bytes int64 `json:"bytes"`
	// Points is the manifest's total point count.
	Points int `json:"points"`
	// MaxLevel is the deepest compaction level present
	// (docs/PERSISTENCE.md §8); 0 when nothing was ever compacted.
	MaxLevel int `json:"max_level"`
}

// ReadDirInfo reads a committed segment directory's manifest, stats its
// files and summarizes them. It validates nothing beyond what it
// reports, so the call stays cheap enough for a stats endpoint to make
// per request.
func ReadDirInfo(dir string) (DirInfo, error) {
	var info DirInfo
	m, err := readManifest(dir)
	if err != nil {
		return info, fmt.Errorf("tsdb: dirinfo: %w", err)
	}
	info.Generation = m.Generation
	info.Segments = len(m.Segments)
	info.Points = m.TotalPoints
	for _, sm := range m.Segments {
		if sm.Level > info.MaxLevel {
			info.MaxLevel = sm.Level
		}
		fi, err := os.Stat(filepath.Join(dir, sm.File))
		if err != nil {
			return info, fmt.Errorf("tsdb: dirinfo: %w", err)
		}
		info.Bytes += fi.Size()
	}
	return info, nil
}
