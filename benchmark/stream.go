package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

// reqKind is the endpoint family of one read request.
type reqKind int

const (
	kindCongestion reqKind = iota
	kindQuery
	kindAgg
	kindDashboard
	numKinds
)

// request is one generated read. key indexes the hot key table (-1 on
// cold-scan, whose keys almost never repeat); reval asks the client to
// send the ETag it last saw for the key as If-None-Match.
type request struct {
	kind  reqKind
	key   int
	path  string
	reval bool
	// What path asks for, kept so the layer probes can put the same
	// question to the layers' public functions. to is unused by
	// congestion (which has days), both are unused by the dashboard.
	link     string
	from, to time.Time
	days     int
}

// aggShape is the aggregate a mix asks for: the functions, as the agg
// parameter names them and as tsdb.QueryAggregate takes them, and the
// bucket width.
type aggShape struct {
	names string
	fns   tsdb.AggFns
	step  time.Duration
}

var (
	hotAgg  = aggShape{"min,mean", tsdb.AggMin | tsdb.AggMean, time.Hour}
	coldAgg = aggShape{"min,mean,max", tsdb.AggMin | tsdb.AggMean | tsdb.AggMax, 6 * time.Hour}
)

// stream yields a workload's requests. Everything it draws comes from
// its seed, so one seed gives one request sequence.
type stream struct {
	spec fixtureSpec
	rng  *rand.Rand
	zipf *rand.Zipf
	hot  *hotKeys // nil on cold-scan
}

func rfc(t time.Time) string { return url.QueryEscape(t.UTC().Format(time.RFC3339)) }

// hotKeys is hot-front's (and churn's) key table: for each link one
// congestion verdict over the whole store, one raw query of the last
// day and one hourly aggregate of the last week, plus the dashboard
// index — 3·links+1 cache keys. Rendering the index adds one link-status
// entry per link, which is what puts 64 links at the read cache's
// 256-entry bound. The ranges run one day past the bulk-loaded data so
// the samples churn publishes land inside them.
type hotKeys struct {
	reqs  []request // indexed by key
	links int
}

func newHotKeys(spec fixtureSpec) *hotKeys {
	h := &hotKeys{links: spec.links}
	to := spec.end().Add(24 * time.Hour)
	for l := 0; l < spec.links; l++ {
		h.reqs = append(h.reqs, congestionRequest(linkID(l), netsim.Day(1), spec.days))
	}
	for l := 0; l < spec.links; l++ {
		h.reqs = append(h.reqs, queryRequest(linkID(l), to.Add(-48*time.Hour), to))
	}
	for l := 0; l < spec.links; l++ {
		h.reqs = append(h.reqs, aggRequest(linkID(l), to.Add(-8*24*time.Hour), to, hotAgg))
	}
	h.reqs = append(h.reqs, request{kind: kindDashboard, path: "/dashboard"})
	for key := range h.reqs {
		h.reqs[key].key = key
	}
	return h
}

func congestionRequest(link string, from time.Time, days int) request {
	return request{kind: kindCongestion, key: -1, link: link, from: from, days: days,
		path: fmt.Sprintf("/api/v1/congestion?link=%s&from=%s&days=%d", link, rfc(from), days)}
}

func queryRequest(link string, from, to time.Time) request {
	return request{kind: kindQuery, key: -1, link: link, from: from, to: to,
		path: fmt.Sprintf("/api/v1/query?m=%s&link=%s&from=%s&to=%s", measurement, link, rfc(from), rfc(to))}
}

func aggRequest(link string, from, to time.Time, agg aggShape) request {
	return request{kind: kindAgg, key: -1, link: link, from: from, to: to,
		path: fmt.Sprintf("/api/v1/query?m=%s&link=%s&from=%s&to=%s&agg=%s&step=%s",
			measurement, link, rfc(from), rfc(to), agg.names, agg.step)}
}

func (h *hotKeys) key(kind reqKind, link int) int {
	if kind == kindDashboard {
		return 3 * h.links
	}
	return int(kind)*h.links + link
}

// newStream returns the request stream of a serving workload: the hot
// mix when hot is set, the cold scan otherwise.
func newStream(spec fixtureSpec, seed int64, hot *hotKeys) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{
		spec: spec, rng: rng, hot: hot,
		// zipf(1.1) over links: many readers, few links hot.
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(spec.links-1)),
	}
}

// agg is the aggregate shape of the stream's mix.
func (s *stream) agg() aggShape {
	if s.hot != nil {
		return hotAgg
	}
	return coldAgg
}

func (s *stream) next() request {
	if s.hot != nil {
		return s.nextHot()
	}
	return s.nextCold()
}

// nextHot: 50% congestion, 25% last-day raw query, 22% last-week
// aggregate, 3% dashboard index; one request in five revalidates.
func (s *stream) nextHot() request {
	link := int(s.zipf.Uint64())
	var kind reqKind
	switch p := s.rng.Intn(100); {
	case p < 50:
		kind = kindCongestion
	case p < 75:
		kind = kindQuery
	case p < 97:
		kind = kindAgg
	default:
		kind = kindDashboard
	}
	rq := s.hot.reqs[s.hot.key(kind, link)]
	rq.reval = s.rng.Intn(5) == 0
	return rq
}

// nextCold: uniform links; 30% congestion over a random window, 40%
// three-day raw query at a random hour, 30% two-thirds-of-the-store
// aggregate in 6-hour buckets started half an hour off the bucket grid
// (so edge buckets cannot be answered from block summaries). Some 10^4
// distinct keys against a 256-entry cache.
func (s *stream) nextCold() request {
	link := linkID(s.rng.Intn(s.spec.links))
	days := s.spec.days
	switch p := s.rng.Intn(100); {
	case p < 30:
		win := days*2/5 + s.rng.Intn(days-days*2/5+1) // [0.4·days, days]
		from := netsim.Day(s.rng.Intn(days/2 + 1))
		return congestionRequest(link, from, win)
	case p < 70:
		from := netsim.Epoch.Add(time.Duration(s.rng.Intn((days-3)*24+1)) * time.Hour)
		return queryRequest(link, from, from.Add(72*time.Hour))
	default:
		span := days * 7 / 10
		from := netsim.Epoch.Add(time.Duration(s.rng.Intn((days-span)*24+1))*time.Hour + 30*time.Minute)
		return aggRequest(link, from, from.Add(time.Duration(span)*24*time.Hour), coldAgg)
	}
}
