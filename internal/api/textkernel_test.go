package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"interdomain/internal/tsdb"
)

// fixtureShaped draws the repository benchmark's value shape, a
// per-series base 8+20u plus unit noise v (benchmark/fixture.go), from
// a fixed LCG.
type fixtureShaped struct {
	x    uint64
	base float64
}

func (g *fixtureShaped) unit() float64 {
	g.x = g.x*6364136223846793005 + 1442695040888963407
	return float64(g.x>>11) / (1 << 53)
}

// goldenPages builds the two pages TestGoldenQueryBody digests: the
// cold-scan raw query's shape — far and near of one link over three
// days at the five-minute cadence, 2×864 points on one shared time
// column — and the hourly aggregate of the same points.
func goldenPages() ([]tsdb.SeriesView, []tsdb.AggSeries) {
	start := time.Date(2016, 2, 28, 0, 0, 0, 0, time.UTC) // runs over the leap day
	g := &fixtureShaped{x: 24}
	times := make([]int64, 864)
	for i := range times {
		times[i] = start.Add(time.Duration(i) * 5 * time.Minute).UnixNano()
	}
	var views []tsdb.SeriesView
	var aggs []tsdb.AggSeries
	for _, side := range []string{"far", "near"} {
		tags := map[string]string{"link": "L07", "side": side, "vp": "vp0"}
		base := 8 + 20*g.unit()
		v := tsdb.SeriesView{Measurement: "tslp", Tags: tags, Times: times, Values: make([]float64, len(times))}
		as := tsdb.AggSeries{Measurement: "tslp", Tags: tags}
		for i := range v.Values {
			v.Values[i] = base + g.unit()
			if i%12 == 0 {
				as.Buckets = append(as.Buckets, tsdb.AggBucket{Start: time.Unix(0, times[i]).UTC(), Min: v.Values[i], Max: v.Values[i]})
			}
			b := &as.Buckets[len(as.Buckets)-1]
			b.Count++
			b.Min, b.Max, b.Sum = min(b.Min, v.Values[i]), max(b.Max, v.Values[i]), b.Sum+v.Values[i]
			b.Mean = b.Sum / float64(b.Count)
		}
		views, aggs = append(views, v), append(aggs, as)
	}
	return views, aggs
}

// TestGoldenQueryBody pins the bytes of one raw page and one aggregate
// page. The digests were taken from the encoder of the commit before
// the text kernel (strconv.AppendFloat and Time.AppendFormat per
// point): the repository benchmark's byte oracle runs this same encoder
// on the leader, so it cannot see a digit both sides get wrong.
func TestGoldenQueryBody(t *testing.T) {
	views, aggs := goldenPages()
	query, err := appendQueryBody(nil, views, 2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fns := tsdb.AggCount | tsdb.AggMin | tsdb.AggMax | tsdb.AggSum | tsdb.AggMean
	agg, err := appendAggregateBody(nil, aggs, fns, aggNames(fns), "1h0m0s", 2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
		size int
		want string
	}{
		{"query", query, 72414, "2e078f23ed2626d80faefbe5052e89efbf4cb810c4444e205b40797b78786222"},
		{"aggregate", agg, 14857, "5dda6b55d6af28874c68ec3fc0b0ef027333a5f822da4c706a49393df265b50f"},
	} {
		sum := sha256.Sum256(c.body)
		if got := hex.EncodeToString(sum[:]); len(c.body) != c.size || got != c.want {
			t.Errorf("%s body: %d bytes, sha256 %s; want %d bytes, %s", c.name, len(c.body), got, c.size, c.want)
		}
	}
}

// refAppendFloat is appendFloat as it stood on strconv's generic path,
// the form TestEncodersMatchEncodingJSON held to encoding/json before
// the digit generator replaced it; finite f only.
func refAppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// checkFloat holds both float forms of the kernel to strconv on one
// finite value: the raw value column's and the aggregate columns' %g.
func checkFloat(t testing.TB, f float64, scratch []byte) {
	got, err := appendFloat(scratch[:0], f)
	if want := refAppendFloat(scratch[64:64], f); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%x) = %s (err=%v), strconv %s", math.Float64bits(f), got, err, want)
	}
	got = appendNullFloat(scratch[:0], f)
	if want := strconv.AppendFloat(scratch[64:64], f, 'g', -1, 64); !bytes.Equal(got, want) {
		t.Fatalf("appendNullFloat(%x) = %s, strconv %s", math.Float64bits(f), got, want)
	}
}

// floatEdges are the values on the branches of the digit generator and
// its writer: zeros, the denormal range's ends, the integer fast path's
// limit, the exponent-form cutoffs of both float forms, a halfway case
// above 2^53, the extremes, and every power of ten a double reaches
// with its neighbours (a power of two's closer lower bound falls among
// them, and 10^k is where the digit count changes).
func floatEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1,
		5e-324, math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52), // denormal min, max, first normal
		1<<53 - 1, 1 << 53, 1<<53 + 2, 9007199254740993, -(1<<53 - 1),
		1e-6, 9.999999999999999e-7, 1e-4, 9.999999999999999e-5, 999999, 1e6, 1e21, 9.999999999999999e20,
		math.MaxFloat64, -math.MaxFloat64, 0.3, 2.5, 0.5, 1.0 / 3, 5e-7, 123456.7,
	}
	for k := -323; k <= 308; k++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		if err != nil {
			panic(err)
		}
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	return edges
}

// TestShortestDecimalTables: the integer approximations of log2 10^e,
// log10 2^q and log10 3/4·2^q agree with math/big over every exponent a
// double has, the shift they give stays in [1,4], every table entry has
// its top bit set, and the exact entries are exact.
func TestShortestDecimalTables(t *testing.T) {
	pow := func(base int64, e int) *big.Rat { // base^e, e of either sign
		r := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			r.Inv(r)
		}
		return r
	}
	// within reports p <= x < q.
	within := func(p, x, q *big.Rat) bool { return p.Cmp(x) <= 0 && x.Cmp(q) < 0 }
	for e := -400; e <= 400; e++ {
		if l := floorLog2Pow10(e); !within(pow(2, l), pow(10, e), pow(2, l+1)) {
			t.Fatalf("floorLog2Pow10(%d) = %d", e, l)
		}
	}
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		k := (q * 1262611) >> 22
		if !within(pow(10, k), pow(2, q), pow(10, k+1)) {
			t.Fatalf("floor(log10 2^%d) = %d", q, k)
		}
		kc := (q*1262611 - 524031) >> 22
		if x := new(big.Rat).Mul(threeQuarters, pow(2, q)); !within(pow(10, kc), x, pow(10, kc+1)) {
			t.Fatalf("floor(log10 3/4·2^%d) = %d", q, kc)
		}
		for _, k := range []int{k, kc} {
			if h := q + floorLog2Pow10(-k) + 1; h < 1 || h > 4 || -k < pow10Min || -k > pow10Max {
				t.Fatalf("q=%d k=%d: shift %d", q, k, h)
			}
		}
	}
	for i, g := range pow10Tab {
		if g[0]>>63 != 1 {
			t.Fatalf("10^%d: top bit clear in %x", i+pow10Min, g)
		}
	}
	if g := pow10Tab[0-pow10Min]; g != [2]uint64{1 << 63, 0} {
		t.Fatalf("10^0 = %x", g)
	}
	if g := pow10Tab[1-pow10Min]; g != [2]uint64{0xA << 60, 0} {
		t.Fatalf("10^1 = %x", g)
	}
}

// TestAppendFloatSweep: 10^7 seeded random bit patterns and 10^6 values
// of the repository benchmark's shape (base 8+20u, +4 on the far side,
// noise v, +15 on a plateau) render exactly as strconv renders them, in
// both float forms. -short sweeps a tenth.
func TestAppendFloatSweep(t *testing.T) {
	random, shaped := 10_000_000, 1_000_000
	if testing.Short() {
		random, shaped = random/10, shaped/10
	}
	scratch := make([]byte, 128)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < random; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkFloat(t, f, scratch)
	}
	g := &fixtureShaped{x: 24}
	for i := 0; i < shaped; i++ {
		if i%864 == 0 {
			g.base = 8 + 20*g.unit() + float64(4*(i/864%2))
		}
		f := g.base + g.unit()
		if i%7 == 0 {
			f += 15
		}
		checkFloat(t, f, scratch)
	}
}

// TestSharedTimeColumn: the copy of the previous series' rendered
// times fires only on an equal column — never on one that differs in
// its last element, is a proper prefix or extension, or merely follows
// a different one — and a column equal to the one before it renders the
// same whether or not the two share backing memory.
func TestSharedTimeColumn(t *testing.T) {
	day := time.Date(2016, 12, 31, 23, 40, 0, 0, time.UTC).UnixNano()
	col := func(n int, edit func([]int64)) []int64 {
		c := make([]int64, n)
		for i := range c {
			c[i] = day + int64(i)*int64(5*time.Minute) // crosses the year's end
		}
		if edit != nil {
			edit(c)
		}
		return c
	}
	base := col(12, nil)
	columns := map[string][]int64{
		"same slice":     base,
		"equal copy":     col(12, nil),
		"last differs":   col(12, func(c []int64) { c[11]++ }),
		"first differs":  col(12, func(c []int64) { c[0] -= int64(time.Second) }),
		"proper prefix":  base[:11],
		"extension":      col(13, nil),
		"empty":          {},
		"sub-second end": col(12, func(c []int64) { c[11] += 1500 }),
	}
	view := func(side string, times []int64) tsdb.SeriesView {
		v := tsdb.SeriesView{Measurement: "tslp", Tags: map[string]string{"side": side}, Times: times, Values: make([]float64, len(times))}
		for i := range v.Values {
			v.Values[i] = float64(len(side)) + float64(i)/8
		}
		return v
	}
	for name, second := range columns {
		for _, page := range [][]tsdb.SeriesView{
			{view("far", base), view("near", second)},
			{view("far", second), view("near", base)},
			{view("far", base), view("near", second), view("third", base)},
			{view("far", second), view("near", second), view("third", base)},
		} {
			got, err := appendQueryBody(nil, page, len(page), 10, 0)
			want, refErr := refQueryBody(page, len(page), 10, 0)
			if err != nil || refErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s (%d series): errors %v / %v\n got %s\nwant %s", name, len(page), err, refErr, got, want)
			}
		}
	}
}

// timeEdges are the instants around everything the run renderer keys
// on, as Unix seconds: the epoch and the second before it, day, leap
// day and year rollovers, the last instant MarshalJSON accepts and the
// first it refuses, year zero's ends, and times far outside.
var timeEdges = []int64{
	0, -1, 1, 86399, 86400, 86401,
	time.Date(2016, 2, 28, 23, 59, 59, 0, time.UTC).Unix(), // into the leap day, and out of it
	time.Date(2016, 2, 29, 23, 59, 59, 0, time.UTC).Unix(),
	time.Date(2016, 12, 31, 23, 59, 59, 0, time.UTC).Unix(),
	time.Date(2100, 2, 28, 23, 59, 59, 0, time.UTC).Unix(), // no leap day in 2100
	time.Date(999, 12, 31, 23, 59, 59, 0, time.UTC).Unix(),
	time.Date(9999, 12, 31, 23, 59, 58, 0, time.UTC).Unix(),
	year10000 - 1, year10000, year10000 + 86400,
	time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - 1,
	-nanosReach, nanosReach,
}

// nanosReach is how many whole seconds an int64 of nanoseconds holds.
const nanosReach = math.MaxInt64 / 1_000_000_000

// sameOutcome reports whether an encoder and its reference agree: the
// same bytes, or refusals with the same message.
func sameOutcome(got []byte, err error, want []byte, refErr error) bool {
	if err != nil || refErr != nil {
		return err != nil && refErr != nil && err.Error() == refErr.Error()
	}
	return bytes.Equal(got, want)
}

// checkTimeColumns holds the run renderer to encoding/json on one
// column of instants, through both documents: as the nanosecond column
// of a raw page beside a second series that shares it, differs from it
// in the last element or is its prefix (variant), and as the bucket
// starts of an aggregate page, where an instant is any time.Time — a
// year past 9999 included — and the zone varies. Either the bytes or
// the refusal must match.
func checkTimeColumns(t testing.TB, secs, nsecs []int64, variant uint8) {
	tags := map[string]string{"side": "far"}
	times := make([]int64, 0, len(secs))
	for i, sec := range secs {
		if -nanosReach < sec && sec < nanosReach { // a raw column is int64 nanoseconds
			times = append(times, sec*1e9+nsecs[i])
		}
	}
	second := slices.Clone(times)
	switch n := len(second); {
	case n == 0:
	case variant%3 == 1:
		second[n-1]++
	case variant%3 == 2:
		second = second[:n-1]
	}
	views := []tsdb.SeriesView{
		{Measurement: "tslp", Tags: tags, Times: times, Values: make([]float64, len(times))},
		{Measurement: "tslp", Tags: tags, Times: second, Values: make([]float64, len(second))},
	}
	got, err := appendQueryBody(nil, views, 2, 10, 0)
	want, refErr := refQueryBody(views, 2, 10, 0)
	if !sameOutcome(got, err, want, refErr) {
		t.Fatalf("raw page of %v:\n got %s (err=%v)\nwant %s (err=%v)", times, got, err, want, refErr)
	}

	zone := time.FixedZone("west", -(3*3600 + 30*60))
	as := tsdb.AggSeries{Measurement: "tslp", Tags: tags, Buckets: make([]tsdb.AggBucket, len(secs))}
	for i, sec := range secs {
		as.Buckets[i].Start = time.Unix(sec, nsecs[i])
		if (int(variant)+i)%2 == 0 {
			as.Buckets[i].Start = as.Buckets[i].Start.In(zone)
		}
	}
	page := []tsdb.AggSeries{as, as}
	got, err = appendAggregateBody(nil, page, tsdb.AggCount, []string{"count"}, "1h0m0s", 2, 10, 0)
	want, refErr = refAggregateBody(page, tsdb.AggCount, []string{"count"}, "1h0m0s", 2, 10, 0)
	if !sameOutcome(got, err, want, refErr) {
		t.Fatalf("aggregate page of %v+%v:\n got %s (err=%v)\nwant %s (err=%v)", secs, nsecs, got, err, want, refErr)
	}
}

// TestAppendTimesEdges runs every edge instant as a column of its own
// neighbourhood — the seconds before and after it, then a day and a
// year on — whole and with sub-second digits on one entry.
func TestAppendTimesEdges(t *testing.T) {
	for i, edge := range timeEdges {
		secs := []int64{edge - 2, edge - 1, edge, edge + 1, edge + 86400, edge + 366*86400}
		if edge > math.MaxInt64-367*86400 || edge < math.MinInt64+2 {
			secs = []int64{edge}
		}
		checkTimeColumns(t, secs, make([]int64, len(secs)), uint8(i))
		nsecs := make([]int64, len(secs))
		nsecs[i%len(secs)] = []int64{1, 500, 120_000_000, 999_999_999}[i%4]
		checkTimeColumns(t, secs, nsecs, uint8(i))
	}
}

var benchSink []byte

// reportPerValue adds ns/value to a benchmark whose operation renders
// perOp values.
func reportPerValue(b *testing.B, perOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/value")
}

// BenchmarkAppendFloat is one value column of the repository
// benchmark's shape — 1,024 values of 8+20u+v, sixteen or seventeen
// digits each — through the digit generator and through the strconv
// path it replaced.
func BenchmarkAppendFloat(b *testing.B) {
	g := &fixtureShaped{x: 24}
	base := 8 + 20*g.unit()
	values := make([]float64, 1024)
	for i := range values {
		values[i] = base + g.unit()
	}
	dst := make([]byte, 0, 32*len(values))
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for _, f := range values {
				dst, _ = appendFloat(dst, f)
			}
		}
		benchSink = dst
		reportPerValue(b, len(values))
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for _, f := range values {
				dst = refAppendFloat(dst, f)
			}
		}
		benchSink = dst
		reportPerValue(b, len(values))
	})
}

// BenchmarkAppendTimes is one time column of the cold-scan raw query,
// three days at the five-minute cadence, rendered as runs and through
// the per-point AppendFormat the runs replaced.
func BenchmarkAppendTimes(b *testing.B) {
	views, _ := goldenPages()
	times := views[0].Times
	dst := make([]byte, 0, 24*len(times))
	b.Run("runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var run timeRun
			dst = dst[:0]
			for _, ns := range times {
				dst, _ = run.append(dst, ns/1e9, ns%1e9)
			}
		}
		benchSink = dst
		reportPerValue(b, len(times))
	})
	b.Run("AppendFormat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for _, ns := range times {
				dst, _ = appendTime(dst, time.Unix(0, ns).UTC())
			}
		}
		benchSink = dst
		reportPerValue(b, len(times))
	})
}
