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
	"strings"
	"time"

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

// aggSpec is a validated agg/step pair: the function mask, its
// canonical names, and the bucket width.
type aggSpec struct {
	fns   tsdb.AggFns
	names []string
	step  time.Duration
}

// Agg returns the aggregate mode's agg and step parameters, or nil when
// neither is present (raw mode). Value bounds would change what the
// summary pushdown may answer, so the two modes don't compose and
// vmin/vmax are rejected here. Step values the store refuses
// (non-positive, or not dividing the range) surface from
// computeAggregate as tsdb.ErrAggArgs.
func (p *reqParams) Agg() *aggSpec {
	aggS, stepS := p.q.Get("agg"), p.q.Get("step")
	switch {
	case aggS == "" && stepS == "":
		return nil
	case p.q.Get("vmin") != "" || p.q.Get("vmax") != "":
		p.fail("vmin/vmax are not supported with agg")
	case aggS == "":
		p.fail("step requires agg: name aggregate functions to compute")
	case stepS == "":
		p.fail("agg requires step: name a bucket width like 15m or 1h")
	}
	spec := &aggSpec{}
	var err error
	if spec.fns, spec.names, err = parseAggFns(aggS); err != nil {
		p.fail("bad agg: %v", err)
	}
	if spec.step, err = time.ParseDuration(stepS); err != nil {
		p.fail("bad step %q: %v", stepS, err)
	}
	return spec
}

// computeAggregate encodes one page of the aggregate mode of
// /api/v1/query, mapping tsdb.ErrAggArgs to a 400.
func (s *Server) computeAggregate(m string, filter map[string]string, from, to time.Time, agg *aggSpec, limit, offset int) ([]byte, error) {
	series, err := s.DB.QueryAggregate(m, filter, from, to, agg.step, agg.fns)
	if errors.Is(err, tsdb.ErrAggArgs) {
		return nil, statusError{http.StatusBadRequest, err.Error()}
	}
	if err != nil {
		return nil, err
	}
	page := pageOf(series, limit, offset)
	return appendBody(func(dst []byte) ([]byte, error) {
		return appendAggregateBody(dst, page, agg.fns, agg.names, agg.step.String(), len(series), limit, offset)
	})
}
