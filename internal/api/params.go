package api

// Shared query-parameter validation for the read endpoints. Before
// this helper, /api/v1/query, /api/v1/congestion and the dashboard
// each hand-rolled the same required-string / RFC 3339 / bounded-int
// checks with slightly different error wording. parseParams gives the
// three one vocabulary: every violation becomes a structured
// bad_request envelope (docs/SERVING.md §7) naming the parameter, the
// rejected value and what was expected, and handlers read like the
// contract they implement.

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"interdomain/internal/tsdb"
)

// reqParams is one request's query parameters with accumulated
// validation state: the first violation sticks, later accessors still
// return usable zero values, and the handler checks once at the end.
type reqParams struct {
	q   url.Values
	err error
}

// parseParams wraps a request's query values for validated access.
// Accessors record the first violation; the handler finishes with
// Check, which writes the bad_request envelope and reports whether it
// did.
func parseParams(r *http.Request) *reqParams {
	return &reqParams{q: r.URL.Query()}
}

// fail records the first violation.
func (p *reqParams) fail(format string, args ...interface{}) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// Get returns the parameter's raw value ("" when absent).
func (p *reqParams) Get(name string) string { return p.q.Get(name) }

// Required returns a parameter that must be present and non-empty.
func (p *reqParams) Required(name string) string {
	v := p.q.Get(name)
	if v == "" {
		p.fail("need %s parameter", name)
	}
	return v
}

// Time returns a required RFC 3339 timestamp parameter.
func (p *reqParams) Time(name string) time.Time {
	v := p.q.Get(name)
	if v == "" {
		p.fail("need %s parameter (RFC 3339 timestamp)", name)
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		p.fail("bad %s %q: need an RFC 3339 timestamp", name, v)
		return time.Time{}
	}
	return t
}

// IntInRange returns an optional integer parameter defaulting to def
// and required to lie in [min, max].
func (p *reqParams) IntInRange(name string, def, min, max int) int {
	v := p.q.Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min || n > max {
		p.fail("bad %s %q: need an integer in [%d, %d]", name, v, min, max)
		return def
	}
	return n
}

// Page returns /api/v1/query's limit and offset (docs/SERVING.md §7),
// applying the default and the clamp. limit=0 is valid — a
// metadata-only response; negative or non-integer values are rejected.
func (p *reqParams) Page() (limit, offset int) {
	var err error
	limit = DefaultQueryLimit
	if vs := p.q["limit"]; len(vs) > 0 {
		limit, err = strconv.Atoi(vs[0])
		if err != nil || limit < 0 {
			p.fail("bad limit %q: need a non-negative integer", vs[0])
			return 0, 0
		}
		if limit > MaxQueryLimit {
			limit = MaxQueryLimit
		}
	}
	if vs := p.q["offset"]; len(vs) > 0 {
		offset, err = strconv.Atoi(vs[0])
		if err != nil || offset < 0 {
			p.fail("bad offset %q: need a non-negative integer", vs[0])
			return 0, 0
		}
	}
	return limit, offset
}

// ValueBound reads the optional vmin/vmax parameters into a
// tsdb.ValueBound (docs/SERVING.md §7). Either end may be given alone;
// the missing end defaults to the matching infinity. Nil means no bound
// — the query behaves exactly as before the parameters existed. On a
// lazily opened store the bound prunes whole blocks by their value
// summaries before any decode (docs/PERSISTENCE.md §9).
func (p *reqParams) ValueBound() *tsdb.ValueBound {
	vminS, vmaxS := p.q.Get("vmin"), p.q.Get("vmax")
	if vminS == "" && vmaxS == "" {
		return nil
	}
	vb := &tsdb.ValueBound{Min: math.Inf(-1), Max: math.Inf(1)}
	if vminS != "" {
		v, err := strconv.ParseFloat(vminS, 64)
		if err != nil || math.IsNaN(v) {
			p.fail("bad vmin %q: need a number", vminS)
			return nil
		}
		vb.Min = v
	}
	if vmaxS != "" {
		v, err := strconv.ParseFloat(vmaxS, 64)
		if err != nil || math.IsNaN(v) {
			p.fail("bad vmax %q: need a number", vmaxS)
			return nil
		}
		vb.Max = v
	}
	if vb.Min > vb.Max {
		p.fail("vmin %g exceeds vmax %g", vb.Min, vb.Max)
		return nil
	}
	return vb
}

// TagFilter returns /api/v1/query's tag filter: the first value of
// every parameter the endpoint does not itself define.
func (p *reqParams) TagFilter() map[string]string {
	filter := map[string]string{}
	for k, vs := range p.q {
		switch k {
		case "m", "from", "to", "limit", "offset", "vmin", "vmax", "agg", "step":
			continue
		}
		if len(vs) > 0 {
			filter[k] = vs[0]
		}
	}
	return filter
}

// Check writes the accumulated violation, if any, as a bad_request
// envelope and reports whether the handler must stop.
func (p *reqParams) Check(w http.ResponseWriter) bool {
	if p.err == nil {
		return false
	}
	writeError(w, http.StatusBadRequest, "%v", p.err)
	return true
}
