package api

// The API's error contract and conditional-request helpers
// (docs/SERVING.md §7). Every error response from every endpoint is
// one structured envelope —
//
//	{"error": {"code": "<stable code>", "message": "<human text>"}}
//
// — emitted by writeError below; handlers never hand-roll an error
// body. The code is machine-readable and stable across releases so
// clients can branch on it; the message is human prose and may change.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"interdomain/internal/readcache"
)

// ErrorCode is a stable machine-readable error code carried in every
// error envelope (docs/SERVING.md §7).
type ErrorCode string

// The error codes the API emits. The set is append-only: a code, once
// shipped, never changes meaning.
const (
	// CodeBadRequest marks a malformed or invalid request (HTTP 400).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound marks a request for data that does not exist
	// (HTTP 404).
	CodeNotFound ErrorCode = "not_found"
	// CodeUnprocessable marks a well-formed request whose analysis
	// could not run, e.g. too little data for the detector (HTTP 422).
	CodeUnprocessable ErrorCode = "unprocessable"
	// CodeUnavailable marks a server that cannot serve yet — a
	// follower that has not applied a leader snapshot (HTTP 503).
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInternal marks a server-side failure (HTTP 5xx).
	CodeInternal ErrorCode = "internal"
)

// codeForStatus maps an HTTP status to its stable error code. The
// mapping is total: unlisted 4xx statuses report bad_request, all
// else internal.
func codeForStatus(status int) ErrorCode {
	switch {
	case status == http.StatusNotFound:
		return CodeNotFound
	case status == http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case status == http.StatusServiceUnavailable:
		return CodeUnavailable
	case status >= 400 && status < 500:
		return CodeBadRequest
	default:
		return CodeInternal
	}
}

// ErrorDetail is the error member of the envelope: a stable code plus
// a human-readable message.
type ErrorDetail struct {
	// Code is the stable machine-readable error code.
	Code ErrorCode `json:"code"`
	// Message is human-readable prose; not stable, never branch on it.
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every API error response.
type ErrorEnvelope struct {
	// Error holds the code and message.
	Error ErrorDetail `json:"error"`
}

// writeError emits the structured error envelope with the status'
// stable code. It is the single exit for every error response in the
// package (docs/SERVING.md §7).
func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	// An envelope always encodes, so writeJSON never calls back here.
	writeJSON(w, status, ErrorEnvelope{Error: ErrorDetail{
		Code:    codeForStatus(status),
		Message: fmt.Sprintf(format, args...),
	}})
}

// statusError carries an HTTP status code out of a cached computation;
// serveCached unwraps it into writeError. Never cached (readcache
// drops errored computations), so an error response is recomputed —
// and may succeed — on the next request.
type statusError struct {
	code int
	msg  string
}

// Error returns the message.
func (e statusError) Error() string { return e.msg }

// writeComputeError renders an error coming out of cache.Do.
func writeComputeError(w http.ResponseWriter, err error) {
	var se statusError
	if errors.As(err, &se) {
		writeError(w, se.code, "%s", se.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

// etagFor derives the strong ETag of a cacheable response from its
// readcache key. The key already condenses the full response identity
// — endpoint, request parameters, config hash, and the ViewStamp over
// every contributing series — so two requests carry the same ETag
// exactly when the cache would serve them the same bytes, and any
// store write that could change the response moves the stamp and with
// it the tag (docs/SERVING.md §7).
//
// The tag is FNV-64a over the fields in decimal, NUL-separated, as
// "%016x" in quotes; it is built by hand because it is computed on every
// cacheable request, 304s included.
func etagFor(key readcache.Key) string {
	var scratch [128]byte
	b := append(append(append(scratch[:0], key.Kind...), 0), key.ID...)
	b = strconv.AppendInt(append(b, 0), key.From, 10)
	b = strconv.AppendInt(append(b, 0), key.To, 10)
	b = strconv.AppendInt(append(b, 0), int64(key.Days), 10)
	b = strconv.AppendUint(append(b, 0), key.CfgHash, 10)
	b = strconv.AppendUint(append(b, 0), key.Stamp, 10)
	b = strconv.AppendInt(append(b, 0), int64(key.Limit), 10)
	b = strconv.AppendInt(append(b, 0), int64(key.Offset), 10)
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	tag := [18]byte{0: '"', 17: '"'}
	for i := 16; i > 0; i, h = i-1, h>>4 {
		tag[i] = "0123456789abcdef"[h&15]
	}
	return string(tag[:])
}

// clientHasCurrent reports whether the request's If-None-Match header
// matches the response's strong etag ("*" or any listed tag; weak
// tags compared by their opaque part). A match means serveCached can
// answer 304 Not Modified without computing — or even looking up —
// the body.
func clientHasCurrent(r *http.Request, etag string) bool {
	header := r.Header.Get("If-None-Match")
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
