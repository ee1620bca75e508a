// Package replication ships a tsdb segment directory from a writing
// leader to read-only followers over HTTP, the read-scaling tier of
// the serving architecture (docs/REPLICATION.md). The leader side
// (Exporter) serves the datadir's committed manifest and its immutable
// generation-qualified segment files; the follower side (Follower)
// tails the manifest on an interval, fetches only new or changed
// segments — clean segments are reused byte-for-byte, exactly like
// incremental snapshots — commits them with the manifest-generation
// protocol of docs/PERSISTENCE.md §4, and hot-swaps a serving tsdb.DB
// via RestoreDir. Convergence is provable: after a tail cycle the
// follower store's Digest equals the leader snapshot's, and every
// partial, corrupt or version-skewed transfer fails loud through the
// segment headers' CRC-32C before a commit can make it visible.
package replication

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"interdomain/internal/tsdb"
)

const (
	// ManifestPath is the exporter's manifest endpoint: it serves the
	// datadir's committed MANIFEST.json bytes verbatim, with a strong
	// ETag so an unchanged manifest costs a follower one 304
	// (docs/REPLICATION.md §2).
	ManifestPath = "/replica/v2/manifest"

	// SegmentPathPrefix prefixes the exporter's per-segment endpoint:
	// GET /replica/v2/segment/<name> streams one immutable
	// generation-qualified segment file (docs/REPLICATION.md §2).
	SegmentPathPrefix = "/replica/v2/segment/"

	// DeltaPathPrefix prefixes the delta endpoint: GET
	// /replica/v2/delta/<name>?from=<offset> returns a delta frame
	// carrying the segment's header and its payload bytes from the
	// requested offset on (docs/REPLICATION.md §8).
	DeltaPathPrefix = "/replica/v2/delta/"

	// GenerationHeader carries the manifest generation on manifest
	// responses, so operators (and tests) can read the leader's
	// generation without parsing the body.
	GenerationHeader = "X-Replica-Generation"
)

// etagTable is the CRC-32C table manifest ETags are computed with —
// the same polynomial the segment headers use.
var etagTable = crc32.MakeTable(crc32.Castagnoli)

// manifestETag derives the strong ETag of a manifest body: generation
// plus crc, the CRC-32C of the exact bytes, so any recommit — even one
// that somehow reused a generation — changes the tag.
func manifestETag(gen uint64, crc uint32) string {
	return fmt.Sprintf("\"g%d-%08x\"", gen, crc)
}

// Exporter is the leader-side HTTP handler serving a segment directory
// to followers. It keeps no state about the directory beyond the bytes
// it validated last: every manifest request re-reads the committed
// MANIFEST.json and validates any bytes it has not seen, so a snapshot
// landing between two requests is simply the next generation served.
// Segment files are immutable once published
// (docs/PERSISTENCE.md §2), which is what makes serving them without
// coordination safe: a name either resolves to exactly the bytes the
// manifest promised, or — after a later snapshot deleted it — to a
// 404 the follower handles by restarting its cycle on the fresh
// manifest.
type Exporter struct {
	dir string
	mux *http.ServeMux
	// valid is the manifest the exporter validated last. A request that
	// finds the same bytes on disk — every 304 poll, every further
	// follower's GET of one generation — validates nothing again.
	valid atomic.Pointer[validManifest]
}

// validManifest is manifest bytes the exporter validated, keyed by
// their ETag CRC, with the generation they declare.
type validManifest struct {
	crc  uint32
	gen  uint64
	data []byte
}

// NewExporter returns an exporter over the segment directory dir. The
// directory does not need to exist (or hold a manifest) yet; manifest
// requests answer 503 until the first snapshot commits.
func NewExporter(dir string) *Exporter {
	e := &Exporter{dir: dir, mux: http.NewServeMux()}
	e.mux.HandleFunc(ManifestPath, e.handleManifest)
	e.mux.HandleFunc(SegmentPathPrefix, e.handleSegment)
	e.mux.HandleFunc(DeltaPathPrefix, e.handleDelta)
	return e
}

// ServeHTTP implements http.Handler.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) { e.mux.ServeHTTP(w, r) }

// handleManifest serves the committed manifest bytes verbatim. The
// bytes are validated before serving — the exporter never vouches for
// a manifest RestoreDir would reject — once per distinct content, and
// carry a strong ETag plus the generation header.
func (e *Exporter) handleManifest(w http.ResponseWriter, r *http.Request) {
	data, err := os.ReadFile(filepath.Join(e.dir, tsdb.ManifestName))
	if err != nil {
		http.Error(w, "no committed snapshot in the replica directory yet", http.StatusServiceUnavailable)
		return
	}
	crc := crc32.Checksum(data, etagTable)
	v := e.valid.Load()
	if v == nil || v.crc != crc || !bytes.Equal(v.data, data) {
		m, err := tsdb.ParseManifest(data)
		if err != nil {
			http.Error(w, fmt.Sprintf("replica directory manifest is invalid: %v", err), http.StatusInternalServerError)
			return
		}
		v = &validManifest{crc: crc, gen: m.Generation, data: data}
		e.valid.Store(v)
	}
	etag := manifestETag(v.gen, crc)
	w.Header().Set("ETag", etag)
	w.Header().Set(GenerationHeader, strconv.FormatUint(v.gen, 10))
	if inmMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleSegment streams one segment file. Only well-formed
// generation-qualified names resolve (tsdb.ValidSegmentName), so the
// manifest, temp files and anything outside the directory are
// unreachable; content addressing is the follower's job — it verifies
// every byte against the manifest entry's checksum before commit.
func (e *Exporter) handleSegment(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, SegmentPathPrefix)
	if !tsdb.ValidSegmentName(name) {
		http.Error(w, "not a segment file name", http.StatusBadRequest)
		return
	}
	f, err := os.Open(filepath.Join(e.dir, name))
	if err != nil {
		// Superseded segments are deleted after the next manifest
		// commit; a follower holding the old manifest restarts its
		// cycle on the fresh one (docs/REPLICATION.md §5).
		http.Error(w, "segment not present (superseded or never committed)", http.StatusNotFound)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	_, _ = io.Copy(w, f)
}

// handleDelta serves the tail of a segment's payload from a
// follower-chosen offset, framed with the segment's header and a
// transport checksum (docs/REPLICATION.md §8). The exporter makes no
// promise that the offset is meaningful — the follower derived it from
// its own local predecessor, and the spliced file's full CRC is the
// only authority — so the handler's checks are purely structural: a
// valid segment name and an offset inside the payload. Anything else
// is the follower's cue to fall back to a whole-segment fetch.
func (e *Exporter) handleDelta(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, DeltaPathPrefix)
	if !tsdb.ValidSegmentName(name) {
		http.Error(w, "not a segment file name", http.StatusBadRequest)
		return
	}
	from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from <= 0 {
		http.Error(w, "from must be a positive payload byte offset", http.StatusBadRequest)
		return
	}
	data, err := os.ReadFile(filepath.Join(e.dir, name))
	if err != nil {
		http.Error(w, "segment not present (superseded or never committed)", http.StatusNotFound)
		return
	}
	if len(data) < tsdb.SegmentHeaderSize {
		http.Error(w, "segment file truncated", http.StatusInternalServerError)
		return
	}
	payload := data[tsdb.SegmentHeaderSize:]
	if from >= int64(len(payload)) {
		// The local copy the follower derived its offset from is not a
		// strict prefix of this segment — e.g. the leader rewrote the
		// window. 416 tells the follower precisely that.
		http.Error(w, "offset at or beyond payload end", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	frame := encodeDeltaFrame(from, data[:tsdb.SegmentHeaderSize], payload[from:])
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// inmMatches reports whether an If-None-Match header value matches the
// strong etag: "*" or any listed entity tag, weak-prefixed entries
// compared by their opaque tag.
func inmMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}
