package api

// The append encoder of encode.go against encoding/json on the
// documented response types (docs/SERVING.md §7: "the differential test
// is the specification"). The reference below is the reflection path
// the handlers used to take — views copied into QueryResponse /
// AggregateResponse values, then json.NewEncoder(buf).Encode — and
// exists only here.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"interdomain/internal/tsdb"
)

// refQueryBody is the reflection encoding of one raw page.
func refQueryBody(page []tsdb.SeriesView, total, limit, offset int) ([]byte, error) {
	out := make([]QuerySeries, 0, len(page))
	for _, view := range page {
		qs := QuerySeries{Tags: view.Tags, Times: make([]time.Time, len(view.Times)), Values: view.Values}
		for i, ns := range view.Times {
			qs.Times[i] = time.Unix(0, ns).UTC()
		}
		out = append(out, qs)
	}
	return encodeBody(QueryResponse{
		Series: out, Total: total, Limit: limit, Offset: offset,
		Truncated: offset+len(out) < total,
	})
}

// refAggregateBody is the reflection encoding of one aggregate page.
func refAggregateBody(page []tsdb.AggSeries, fns tsdb.AggFns, names []string, step string, total, limit, offset int) ([]byte, error) {
	out := make([]AggSeriesJSON, 0, len(page))
	for _, as := range page {
		n := len(as.Buckets)
		js := AggSeriesJSON{Tags: as.Tags, Starts: make([]time.Time, n)}
		if fns&tsdb.AggCount != 0 {
			js.Count = make([]int, n)
		}
		if fns&tsdb.AggMin != 0 {
			js.Min = make([]nullFloat, n)
		}
		if fns&tsdb.AggMax != 0 {
			js.Max = make([]nullFloat, n)
		}
		if fns&tsdb.AggSum != 0 {
			js.Sum = make([]nullFloat, n)
		}
		if fns&tsdb.AggMean != 0 {
			js.Mean = make([]nullFloat, n)
		}
		for i, b := range as.Buckets {
			js.Starts[i] = b.Start.UTC()
			if js.Count != nil {
				js.Count[i] = b.Count
			}
			if js.Min != nil {
				js.Min[i] = nullFloat(b.Min)
			}
			if js.Max != nil {
				js.Max[i] = nullFloat(b.Max)
			}
			if js.Sum != nil {
				js.Sum[i] = nullFloat(b.Sum)
			}
			if js.Mean != nil {
				js.Mean[i] = nullFloat(b.Mean)
			}
		}
		out = append(out, js)
	}
	return encodeBody(AggregateResponse{
		Series: out, Agg: names, Step: step,
		Total: total, Limit: limit, Offset: offset,
		Truncated: offset+len(out) < total,
	})
}

// encodeGen draws the inputs the two encoders are compared on.
type encodeGen struct{ rng *rand.Rand }

// nastyStrings are the string shapes encoding/json treats specially:
// HTML-escaped bytes, quotes and backslashes, the short and \u00XX
// control escapes, DEL, the JSONP separators, multi-byte runes, and
// invalid UTF-8 (a lone continuation byte, an overlong form, a
// truncated sequence).
var nastyStrings = []string{
	"", "far", "L00", "vp-a", "a b", "x=y,z",
	"<script>", "a<b", "b>a", "a&b", `say "hi"`, `back\slash`, "<>&\"\\",
	"\x00", "\x01\x1f", "tab\there", "nl\nhere", "cr\rhere", "\b\f", "del\x7f",
	"\u2028", "x\u2029y", "é", "日本", "\U0001f600",
	"\x80", "\xff\xfe", "\xc0\x80", "abc\xe2\x80", "ok\xffok",
}

func (g encodeGen) str() string {
	s := nastyStrings[g.rng.Intn(len(nastyStrings))]
	if g.rng.Intn(4) == 0 {
		s += nastyStrings[g.rng.Intn(len(nastyStrings))]
	}
	return s
}

func (g encodeGen) tags() map[string]string {
	switch n := g.rng.Intn(6); n {
	case 5:
		return nil
	default:
		tags := make(map[string]string, n)
		for i := 0; i < n; i++ {
			tags[g.str()] = g.str()
		}
		return tags
	}
}

// finiteFloats are the values on either side of every branch of the
// float form: zeros, the 1e-6 and 1e21 exponent cutoffs, one- and
// two-digit exponents of both signs, the extremes, integers.
var finiteFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 1e6, 123456789, -987654321012,
	1e-7, 1e-6, 9.99e-7, 1e-9, -1e-9, 1.5e-10, 1e-100, 1e20, 1e21, 9.99e20, -1e21, 1e100,
	5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	0.1, 21.523, 1.0 / 3, 12345.678e-12,
}

func (g encodeGen) float() float64 {
	if g.rng.Intn(3) == 0 {
		for {
			if f := math.Float64frombits(g.rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	return finiteFloats[g.rng.Intn(len(finiteFloats))]
}

// nanos draws a timestamp: anywhere an int64 of nanoseconds reaches
// (1677–2262), with and without sub-second digits.
func (g encodeGen) nanos() int64 {
	ns := int64(g.rng.Uint64())
	switch g.rng.Intn(3) {
	case 0:
		ns -= ns % 1e9
	case 1:
		ns -= ns % 1e6
	}
	return ns
}

func (g encodeGen) views() []tsdb.SeriesView {
	page := make([]tsdb.SeriesView, g.rng.Intn(4))
	for i := range page {
		n := 1 + g.rng.Intn(6)
		v := tsdb.SeriesView{Measurement: "tslp", Tags: g.tags(), Times: make([]int64, n), Values: make([]float64, n)}
		for j := range v.Times {
			v.Times[j], v.Values[j] = g.nanos(), g.float()
		}
		page[i] = v
	}
	return page
}

// aggFloat is a bucket value: finite, or one of the three that encode
// as null.
func (g encodeGen) aggFloat() float64 {
	switch g.rng.Intn(8) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*g.rng.Intn(2))
	}
	return g.float()
}

func (g encodeGen) aggSeries(allNaN bool) []tsdb.AggSeries {
	zone := time.FixedZone("east", 5*3600+30*60)
	page := make([]tsdb.AggSeries, g.rng.Intn(4))
	for i := range page {
		as := tsdb.AggSeries{Measurement: "tslp", Tags: g.tags(), Buckets: make([]tsdb.AggBucket, g.rng.Intn(6))}
		for j := range as.Buckets {
			b := &as.Buckets[j]
			b.Start = time.Unix(0, g.nanos())
			if g.rng.Intn(2) == 0 {
				b.Start = b.Start.In(zone)
			}
			b.Count = g.rng.Intn(2000)
			b.Min, b.Max, b.Sum, b.Mean = g.aggFloat(), g.aggFloat(), g.aggFloat(), g.aggFloat()
			if allNaN {
				b.Min, b.Max, b.Sum, b.Mean = math.NaN(), math.NaN(), math.NaN(), math.NaN()
			}
		}
		page[i] = as
	}
	return page
}

// paging draws total/limit/offset around a page of the given length,
// limit=0 and the exact-fit (not truncated) case included.
func (g encodeGen) paging(served int) (total, limit, offset int) {
	offset = g.rng.Intn(3)
	total = offset + served + g.rng.Intn(2)*g.rng.Intn(50)
	limit = served + g.rng.Intn(3)*100
	if served == 0 && g.rng.Intn(2) == 0 {
		limit = 0
	}
	return total, limit, offset
}

// TestEncodersMatchEncodingJSON: over 2,400 seeded random pages the
// append encoders produce exactly the bytes of the reflection encoding.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	g := encodeGen{rand.New(rand.NewSource(16))}
	for i := 0; i < 1200; i++ {
		page := g.views()
		total, limit, offset := g.paging(len(page))
		got, err := appendQueryBody(nil, page, total, limit, offset)
		want, refErr := refQueryBody(page, total, limit, offset)
		if err != nil || refErr != nil {
			t.Fatalf("query case %d: errors %v / %v on finite input", i, err, refErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query case %d:\n got %s\nwant %s", i, got, want)
		}
	}
	// Shapes the store never hands out but the types allow: a view
	// with no points, its value column nil (null) or merely empty ([]).
	for _, values := range [][]float64{nil, {}} {
		page := []tsdb.SeriesView{{Tags: map[string]string{}, Values: values}}
		got, _ := appendQueryBody(nil, page, 1, 1, 0)
		if want, _ := refQueryBody(page, 1, 1, 0); !bytes.Equal(got, want) {
			t.Fatalf("empty view:\n got %s\nwant %s", got, want)
		}
	}
	for i := 0; i < 1200; i++ {
		fns := tsdb.AggFns(i % 32) // every subset of the five columns, none included
		page := g.aggSeries(i%7 == 0)
		total, limit, offset := g.paging(len(page))
		step := (time.Duration(1+g.rng.Intn(48)) * 30 * time.Minute).String()
		got, err := appendAggregateBody(nil, page, fns, aggNames(fns), step, total, limit, offset)
		want, refErr := refAggregateBody(page, fns, aggNames(fns), step, total, limit, offset)
		if err != nil || refErr != nil {
			t.Fatalf("aggregate case %d: errors %v / %v", i, err, refErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("aggregate case %d (fns %05b):\n got %s\nwant %s", i, fns, got, want)
		}
	}
}

// TestEncodersAppendAndShareNothing: the encoders extend dst in place
// and two documents built in one buffer do not disturb each other.
func TestEncodersAppendAndShareNothing(t *testing.T) {
	g := encodeGen{rand.New(rand.NewSource(3))}
	page := g.views()
	want, err := refQueryBody(page, len(page), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendQueryBody([]byte("prefix"), page, len(page), 10, 0)
	if err != nil || string(got) != "prefix"+string(want) {
		t.Fatalf("appendQueryBody after a prefix: %q (err=%v)", got, err)
	}
	body, err := appendBody(func(dst []byte) ([]byte, error) { return appendQueryBody(dst, page, len(page), 10, 0) })
	if err != nil || !bytes.Equal(body, want) || cap(body) != len(body) {
		t.Fatalf("appendBody: %d bytes cap %d, want %d exact (err=%v)", len(body), cap(body), len(want), err)
	}
}

// TestEncodersRefuseWhatEncodingJSONRefuses: NaN and the infinities in
// a raw value column and a year past 9999 in a time column fail with
// the message the reflection path failed with — the one the 500
// envelope carries.
func TestEncodersRefuseWhatEncodingJSONRefuses(t *testing.T) {
	tags := map[string]string{"link": "l1"}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		page := []tsdb.SeriesView{{Tags: tags, Times: []int64{1, 2, 3}, Values: []float64{1, bad, 3}}}
		_, err := appendQueryBody(nil, page, 1, 10, 0)
		_, refErr := refQueryBody(page, 1, 10, 0)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("value %v: error %q, encoding/json %q", bad, err, refErr)
		}
	}
	for _, start := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 6, 1, 0, 0, 0, 0, time.UTC),
	} {
		page := []tsdb.AggSeries{{Tags: tags, Buckets: []tsdb.AggBucket{{Start: start, Count: 1, Min: 1}}}}
		_, err := appendAggregateBody(nil, page, tsdb.AggMin, []string{"min"}, "1h0m0s", 1, 10, 0)
		_, refErr := refAggregateBody(page, tsdb.AggMin, []string{"min"}, "1h0m0s", 1, 10, 0)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("start %v: error %q, encoding/json %q", start, err, refErr)
		}
	}
	if _, err := appendBody(func(dst []byte) ([]byte, error) { return appendFloat(dst, math.NaN()) }); err == nil {
		t.Error("appendBody swallowed the encoder's error")
	}
}

// TestQueryNaNValueIs500Envelope: end to end, a stored NaN still
// surfaces from /api/v1/query as the internal-error envelope with
// encoding/json's message, and is not cached.
func TestQueryNaNValueIs500Envelope(t *testing.T) {
	db := tsdb.Open()
	at := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	db.Write("tslp", map[string]string{"link": "l1"}, at, 1)
	db.Write("tslp", map[string]string{"link": "l1"}, at.Add(time.Minute), math.NaN())
	s := New(db)
	defer s.Close()
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/api/v1/query?m=tslp&link=l1&from=2016-03-01T00:00:00Z&to=2016-03-02T00:00:00Z", nil))
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("body %q: %v", rec.Body.String(), err)
		}
		if rec.Code != http.StatusInternalServerError || env.Error.Code != CodeInternal ||
			!strings.Contains(env.Error.Message, "json: unsupported value: NaN") {
			t.Fatalf("status %d envelope %+v", rec.Code, env)
		}
	}
}
