package api

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strings"
	"time"

	"interdomain/internal/analysis"
	"interdomain/internal/readcache"
	"interdomain/internal/tsdb"
)

// This file provides the visualization front-end of the system (the
// Grafana role in §3): /dashboard renders an HTML page with an inline SVG
// of a link's far/near latency series and, when enough data exists, the
// inferred recurring-congestion windows shaded — the same presentation as
// the paper's Figures 3 and 6. Rendered pages are memoized in the read
// cache keyed by the link's series versions, and the link index fans its
// per-link status analyses out on the server's worker pool
// (docs/SERVING.md §3).

const (
	dashboardPath = "/dashboard"
	htmlType      = "text/html; charset=utf-8"
)

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	p := parseParams(r)
	link := p.Get("link")
	if link == "" {
		// The index depends on every tslp series, so its ViewStamp over
		// the unfiltered measurement is the invalidation (and ETag)
		// handle: any tslp write moves it.
		key := readcache.Key{
			Kind:  "dashindex",
			Stamp: s.DB.ViewStamp("tslp", nil),
		}
		s.serveCached(w, r, key, htmlType, false, func() (any, error) {
			return s.renderLinkIndex(), nil
		})
		return
	}
	vp := p.Get("vp")
	from := p.Time("from")
	days := p.IntInRange("days", 1, 1, 60)
	if p.Check(w) {
		return
	}

	key := readcache.Key{
		Kind:  "dashboard",
		ID:    link + "\x00" + vp,
		From:  from.UnixNano(),
		Days:  days,
		Stamp: s.DB.ViewStamp("tslp", linkFilter(link, "", vp)),
	}
	s.serveCached(w, r, key, htmlType, false, func() (any, error) {
		return s.renderLinkPage(link, vp, from, days)
	})
}

// renderLinkPage builds one link's dashboard HTML: far/near series from
// zero-copy store views, level-shift episode shading, inline SVG.
func (s *Server) renderLinkPage(link, vp string, from time.Time, days int) ([]byte, error) {
	bin := 15 * time.Minute
	n := days * 96
	to := from.Add(time.Duration(n) * bin)
	build := func(side string) *analysis.BinSeries {
		series := analysis.NewBinSeries(from, bin, n)
		for _, view := range s.DB.QueryView("tslp", linkFilter(link, side, vp), from, to) {
			for i, ns := range view.Times {
				series.ObserveNanos(ns, view.Values[i])
			}
		}
		return series
	}
	far, near := build("far"), build("near")
	if far.Coverage() == 0 {
		return nil, statusError{http.StatusNotFound, fmt.Sprintf("no TSLP data for link %q in range", link)}
	}

	// Congestion shading via the level-shift detector (works on short
	// ranges, like the deployed real-time dashboards).
	shifts := analysis.DetectLevelShifts(far, analysis.DefaultLevelShift())

	page := dashboardData{
		Link: link, VP: vp,
		From: from.Format("2006-01-02 15:04"), Days: days,
		SVG: template.HTML(renderSVG(far, near, shifts.Episodes, from, bin)),
	}
	var b strings.Builder
	if err := dashboardTmpl.Execute(&b, page); err != nil {
		return nil, statusError{http.StatusInternalServerError, fmt.Sprintf("render: %v", err)}
	}
	return []byte(b.String()), nil
}

// linkStatus is one link's row in the index: a cheap analysis over the
// link's most recent day of data.
type linkStatus struct {
	// Link is the link id.
	Link string
	// HasData reports whether any TSLP point exists for the link.
	HasData bool
	// Coverage is the fraction of the last day's 15-minute bins with
	// far-side data.
	Coverage float64
	// Episodes is the number of level-shift congestion episodes
	// detected in the last day.
	Episodes int
	// Through is the timestamp of the link's newest point.
	Through time.Time
}

// renderLinkIndex builds the index page bytes: every link with TSLP
// data together with a status badge — coverage and level-shift episodes
// over the link's most recent day. The per-link analyses are
// independent, so they fan out on the server's worker pool, and each is
// memoized keyed by the link's series versions; the whole page is in
// turn memoized keyed by the measurement-wide stamp, so an index render
// against an unchanged store serves cached bytes.
func (s *Server) renderLinkIndex() []byte {
	links := s.DB.TagValues("tslp", "link")
	statuses := make([]linkStatus, len(links))
	jobs := make([]func(), len(links))
	for i, l := range links {
		jobs[i] = func() { statuses[i] = s.linkStatusCached(l) }
	}
	s.pool.Do(jobs...)

	var b strings.Builder
	b.WriteString("<!doctype html><title>interdomain links</title><h1>Links with TSLP data</h1><ul>")
	for _, st := range statuses {
		fmt.Fprintf(&b, `<li><a href="%s?link=%s&from=2016-03-01T00:00:00Z&days=1">%s</a>`,
			dashboardPath, template.URLQueryEscaper(st.Link), template.HTMLEscapeString(st.Link))
		if st.HasData {
			fmt.Fprintf(&b, ` — last day: %.0f%% coverage, %d congestion episode(s), data through %s`,
				100*st.Coverage, st.Episodes, st.Through.UTC().Format("2006-01-02 15:04"))
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul>")
	return []byte(b.String())
}

// linkStatusCached computes (or serves from cache) one link's index
// status.
func (s *Server) linkStatusCached(link string) linkStatus {
	key := readcache.Key{
		Kind:  "linkstatus",
		ID:    link,
		Stamp: s.DB.ViewStamp("tslp", linkFilter(link, "", "")),
	}
	v, _, err := s.cache.Do(key, func() (any, error) {
		return s.computeLinkStatus(link), nil
	})
	if err != nil {
		return linkStatus{Link: link}
	}
	return v.(linkStatus)
}

// computeLinkStatus analyzes the link's most recent day: far-side
// coverage at 15-minute bins and level-shift episodes. The bins come
// from QueryAggregate rather than a per-point view fold: the buckets
// are step-aligned with the bins, so the per-bucket NaN-excluding Min
// is exactly the min-filter a BinSeries applies — and on a lazily
// opened store the whole day is answered from block summaries,
// never decoding a point (docs/PERSISTENCE.md §10).
func (s *Server) computeLinkStatus(link string) linkStatus {
	st := linkStatus{Link: link}
	_, max, ok := s.DB.TimeBounds("tslp", linkFilter(link, "", ""))
	if !ok {
		return st
	}
	st.HasData, st.Through = true, max
	const bin = 15 * time.Minute
	// The day ending at the newest point, bin-aligned so repeated
	// renders of an unchanged store bin identically.
	end := max.Truncate(bin).Add(bin)
	start := end.Add(-24 * time.Hour)
	series := analysis.NewBinSeries(start, bin, 96)
	aggs, err := s.DB.QueryAggregate("tslp", linkFilter(link, "far", ""), start, end, bin, tsdb.AggCount|tsdb.AggMin)
	if err != nil {
		// Unreachable for this fixed step/range shape; fail closed to
		// "no data" rather than render a wrong badge.
		return st
	}
	for _, as := range aggs {
		for _, b := range as.Buckets {
			if b.Count == 0 || math.IsNaN(b.Min) {
				continue // empty or all-NaN bucket: no bin data
			}
			// Observe keeps the minimum, folding multiple vantage-point
			// series into the same bin exactly like the per-point path.
			series.ObserveNanos(b.Start.UnixNano(), b.Min)
		}
	}
	st.Coverage = series.Coverage()
	if st.Coverage > 0 {
		st.Episodes = len(analysis.DetectLevelShifts(series, analysis.DefaultLevelShift()).Episodes)
	}
	return st
}

type dashboardData struct {
	Link, VP string
	From     string
	Days     int
	SVG      template.HTML
}

var dashboardTmpl = template.Must(template.New("dash").Parse(`<!doctype html>
<title>TSLP {{.Link}}</title>
<style>body{font-family:sans-serif;margin:2em}h1{font-size:1.1em}</style>
<h1>TSLP latency — link {{.Link}}{{if .VP}} from {{.VP}}{{end}}</h1>
<p>{{.Days}} day(s) from {{.From}} UTC. Far side in red, near side in blue,
inferred congestion episodes shaded.</p>
{{.SVG}}
`))

// renderSVG draws the two series and shades episode windows.
func renderSVG(far, near *analysis.BinSeries, episodes []analysis.Window, from time.Time, bin time.Duration) string {
	const width, height, pad = 960, 280, 30
	n := far.Len()
	maxV := 10.0
	for _, v := range far.Values {
		if !math.IsNaN(v) && v > maxV {
			maxV = v
		}
	}
	maxV *= 1.1
	x := func(i int) float64 { return pad + float64(i)/float64(n-1)*(width-2*pad) }
	y := func(v float64) float64 { return height - pad - v/maxV*(height-2*pad) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, width, height)
	// Episode shading.
	for _, ep := range episodes {
		i0 := int(ep.Start.Sub(from) / bin)
		i1 := int(ep.End.Sub(from) / bin)
		if i1 <= 0 || i0 >= n {
			continue
		}
		if i0 < 0 {
			i0 = 0
		}
		if i1 > n-1 {
			i1 = n - 1
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="#ddd"/>`,
			x(i0), pad, x(i1)-x(i0), height-2*pad)
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`, pad, height-pad, width-pad, height-pad)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`, pad, pad, pad, height-pad)
	fmt.Fprintf(&b, `<text x="2" y="%d" font-size="10">%.0fms</text>`, pad+4, maxV)
	fmt.Fprintf(&b, `<text x="2" y="%d" font-size="10">0</text>`, height-pad)
	// Series.
	b.WriteString(polyline(far, x, y, "#c0392b"))
	b.WriteString(polyline(near, x, y, "#2980b9"))
	b.WriteString(`</svg>`)
	return b.String()
}

func polyline(s *analysis.BinSeries, x func(int) float64, y func(float64) float64, color string) string {
	var pts strings.Builder
	for i, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		fmt.Fprintf(&pts, "%.1f,%.1f ", x(i), y(v))
	}
	if pts.Len() == 0 {
		return ""
	}
	return fmt.Sprintf(`<polyline points="%s" fill="none" stroke="%s" stroke-width="1"/>`,
		strings.TrimSpace(pts.String()), color)
}
