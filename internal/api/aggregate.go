package api

// Aggregate query mode of /api/v1/query (docs/SERVING.md §7): the agg
// and step parameters switch the endpoint from raw series pages to
// per-bucket count/min/max/sum/mean columns computed by
// tsdb.QueryAggregate — which, over a lazily opened directory,
// answers fully contained blocks from their summaries without decoding
// a point (docs/PERSISTENCE.md §10). Responses are memoized and
// ETagged exactly like raw queries, under their own cache kind, so an
// unchanged store serves dashboards from cached bytes and a write to
// any contributing series invalidates exactly the affected panels.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"time"

	"interdomain/internal/readcache"
	"interdomain/internal/tsdb"
)

// aggFnNames maps the wire names of the agg parameter to their
// tsdb.AggFns bits, in canonical response-column order.
var aggFnNames = []struct {
	name string
	bit  tsdb.AggFns
}{
	{"count", tsdb.AggCount},
	{"min", tsdb.AggMin},
	{"max", tsdb.AggMax},
	{"sum", tsdb.AggSum},
	{"mean", tsdb.AggMean},
}

// parseAggFns parses the comma-separated agg parameter into a function
// mask plus the canonical name list the response echoes. Unknown and
// empty names are rejected; duplicates are harmless.
func parseAggFns(s string) (tsdb.AggFns, []string, error) {
	var fns tsdb.AggFns
	for _, raw := range strings.Split(s, ",") {
		name := strings.TrimSpace(raw)
		found := false
		for _, f := range aggFnNames {
			if name == f.name {
				fns |= f.bit
				found = true
				break
			}
		}
		if !found {
			return 0, nil, fmt.Errorf("unknown aggregate function %q: want count, min, max, sum or mean", name)
		}
	}
	return fns, aggNames(fns), nil
}

// aggNames lists the wire names of the functions in fns in canonical
// order: the form responses echo and cache keys embed.
func aggNames(fns tsdb.AggFns) []string {
	var names []string
	for _, f := range aggFnNames {
		if fns&f.bit != 0 {
			names = append(names, f.name)
		}
	}
	return names
}

// nullFloat is a float64 that marshals NaN (and the infinities, which
// encoding/json cannot represent either) as JSON null: the wire shape
// of an empty, all-NaN or NaN-poisoned aggregate bucket
// (docs/SERVING.md §7).
type nullFloat float64

// MarshalJSON renders the value, or null when it has no JSON number.
func (f nullFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return fmt.Appendf(nil, "%g", v), nil
}

// AggSeriesJSON is one series in an aggregate query response: bucket
// start times plus one column per requested function. Unrequested
// columns are omitted.
type AggSeriesJSON struct {
	// Tags identifies the series.
	Tags map[string]string `json:"tags"`
	// Starts holds each bucket's inclusive start; bucket i covers
	// [Starts[i], Starts[i]+step).
	Starts []time.Time `json:"starts"`
	// Count is the per-bucket point count (NaN points included).
	Count []int `json:"count,omitempty"`
	// Min and Max are the per-bucket NaN-excluding extrema; null marks
	// an empty or all-NaN bucket.
	Min []nullFloat `json:"min,omitempty"`
	Max []nullFloat `json:"max,omitempty"`
	// Sum is the per-bucket sum; null when empty or NaN-poisoned.
	Sum []nullFloat `json:"sum,omitempty"`
	// Mean is Sum/Count; null under the same conditions as Sum.
	Mean []nullFloat `json:"mean,omitempty"`
}

// AggregateResponse is the aggregate-mode /api/v1/query payload: one
// page of aggregated series plus the normalized request echo and the
// same pagination metadata as raw queries (docs/SERVING.md §7).
type AggregateResponse struct {
	// Series is the page of aggregated series; never null.
	Series []AggSeriesJSON `json:"series"`
	// Agg echoes the requested functions in canonical order.
	Agg []string `json:"agg"`
	// Step echoes the bucket width.
	Step string `json:"step"`
	// Total, Limit, Offset and Truncated page the series set exactly as
	// in QueryResponse.
	Total     int  `json:"total"`
	Limit     int  `json:"limit"`
	Offset    int  `json:"offset"`
	Truncated bool `json:"truncated"`
}

// handleAggregate serves the aggregate mode of /api/v1/query. The
// caller has parsed m, from, to, limit and offset; this handler owns
// agg and step, the cache identity, and the tsdb.ErrAggArgs → 400
// mapping.
func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request, q url.Values, m string, from, to time.Time, limit, offset int) {
	aggParam, stepParam := q.Get("agg"), q.Get("step")
	if aggParam == "" {
		writeError(w, http.StatusBadRequest, "step requires agg: name aggregate functions to compute")
		return
	}
	if stepParam == "" {
		writeError(w, http.StatusBadRequest, "agg requires step: name a bucket width like 15m or 1h")
		return
	}
	fns, names, err := parseAggFns(aggParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad agg: %v", err)
		return
	}
	step, err := time.ParseDuration(stepParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad step %q: %v", stepParam, err)
		return
	}

	filter := map[string]string{}
	for k, vs := range q {
		switch k {
		case "m", "from", "to", "limit", "offset", "vmin", "vmax", "agg", "step":
			continue
		}
		if len(vs) > 0 {
			filter[k] = vs[0]
		}
	}
	// The function set and step join the cache identity through the ID
	// suffix, like value bounds do for raw queries; the ViewStamp over
	// the filter invalidates on any contributing write.
	key := readcache.Key{
		Kind:   "agg",
		ID:     tsdb.Key(m, filter) + "|agg=" + strings.Join(names, ",") + "|step=" + step.String(),
		From:   from.UnixNano(),
		To:     to.UnixNano(),
		Stamp:  s.DB.ViewStamp(m, filter),
		Limit:  limit,
		Offset: offset,
	}
	etag := etagFor(key)
	if clientHasCurrent(r, etag) {
		writeNotModified(w, etag)
		return
	}
	v, _, err := s.cache.Do(key, func() (any, error) {
		series, err := s.DB.QueryAggregate(m, filter, from, to, step, fns)
		if err != nil {
			if errors.Is(err, tsdb.ErrAggArgs) {
				return nil, statusError{http.StatusBadRequest, err.Error()}
			}
			return nil, err
		}
		page := pageOf(series, limit, offset)
		return appendBody(func(dst []byte) ([]byte, error) {
			return appendAggregateBody(dst, page, fns, names, step.String(), len(series), limit, offset)
		})
	})
	if err != nil {
		writeComputeError(w, err)
		return
	}
	w.Header().Set("ETag", etag)
	writeJSONBody(w, v.([]byte))
}
