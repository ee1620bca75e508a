package analysis

import (
	"math"
	"testing"
	"time"

	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

var start = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// plateauSeries builds a WindowDays-long 15-minute far-side series: base RTT
// with a daily elevated plateau on the given days, plus outliers.
func plateauSeries(days, binsPerDay int, base, elev float64, plateauStart, plateauEnd int, congestedDay func(int) bool, seed uint64) *BinSeries {
	s := NewBinSeries(start, 15*time.Minute, days*binsPerDay)
	r := netsim.NewRNG(seed)
	for d := 0; d < days; d++ {
		for b := 0; b < binsPerDay; b++ {
			v := base + r.Float64()*0.8
			if congestedDay(d) && b >= plateauStart && b < plateauEnd {
				v = base + elev + r.Float64()*2
			}
			// No outlier injection here: the upstream min-of-samples
			// binning removes slow-path spikes before this stage, and per
			// §4.2 a single genuinely elevated interval counts as 1.04%
			// congestion — so spikes in the binned input would rightly
			// flag days.
			s.Values[d*binsPerDay+b] = v
		}
	}
	return s
}

func flatSeries(days, binsPerDay int, base float64, seed uint64) *BinSeries {
	return plateauSeries(days, binsPerDay, base, 0, 0, 0, func(int) bool { return false }, seed)
}

func TestAutocorrDetectsRecurringCongestion(t *testing.T) {
	cfg := DefaultAutocorr()
	// Plateau 20:00-23:00 local = bins 80..92, every day.
	far := plateauSeries(cfg.WindowDays, cfg.BinsPerDay, 20, 25, 80, 92, func(int) bool { return true }, 1)
	near := flatSeries(cfg.WindowDays, cfg.BinsPerDay, 5, 2)
	res, err := Autocorrelation(far, near, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recurring {
		t.Fatalf("recurring congestion not detected (reject=%q)", res.RejectReason)
	}
	// The recurring window should cover most of the plateau and little else.
	in, out := 0, 0
	for b, w := range res.WindowBins {
		if !w {
			continue
		}
		if b >= 79 && b <= 92 {
			in++
		} else {
			out++
		}
	}
	if in < 8 {
		t.Fatalf("window covers only %d plateau bins", in)
	}
	if out > 3 {
		t.Fatalf("window includes %d off-plateau bins", out)
	}
	// Every day should be congested with fraction ~12/96.
	for d, day := range res.Days {
		if !day.Congested {
			t.Fatalf("day %d not congested", d)
		}
		if day.Fraction < 0.08 || day.Fraction > 0.16 {
			t.Fatalf("day %d fraction %f, want ~0.125", d, day.Fraction)
		}
	}
}

func TestAutocorrQuietLink(t *testing.T) {
	cfg := DefaultAutocorr()
	far := flatSeries(cfg.WindowDays, cfg.BinsPerDay, 20, 3)
	near := flatSeries(cfg.WindowDays, cfg.BinsPerDay, 5, 4)
	res, err := Autocorrelation(far, near, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recurring {
		t.Fatal("false positive on a quiet link")
	}
	for d, day := range res.Days {
		if day.Congested || day.Fraction != 0 {
			t.Fatalf("day %d flagged on quiet link", d)
		}
	}
}

func TestAutocorrPartialDays(t *testing.T) {
	cfg := DefaultAutocorr()
	// Congestion only on even days: odd days must be uncongested.
	even := func(d int) bool { return d%2 == 0 }
	far := plateauSeries(cfg.WindowDays, cfg.BinsPerDay, 20, 25, 80, 92, even, 5)
	near := flatSeries(cfg.WindowDays, cfg.BinsPerDay, 5, 6)
	res, err := Autocorrelation(far, near, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recurring {
		t.Fatalf("alternating-day congestion not detected (reject=%q)", res.RejectReason)
	}
	for d, day := range res.Days {
		if even(d) && !day.Congested {
			t.Errorf("congested day %d missed", d)
		}
		if !even(d) && day.Congested {
			t.Errorf("quiet day %d flagged", d)
		}
	}
}

func TestAutocorrNearSideExclusion(t *testing.T) {
	cfg := DefaultAutocorr()
	// Both near and far elevated at the same times: congestion is inside
	// the access network, not at the interdomain link.
	far := plateauSeries(cfg.WindowDays, cfg.BinsPerDay, 20, 25, 80, 92, func(int) bool { return true }, 7)
	near := plateauSeries(cfg.WindowDays, cfg.BinsPerDay, 5, 25, 80, 92, func(int) bool { return true }, 8)
	res, err := Autocorrelation(far, near, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recurring {
		t.Fatal("internal congestion misattributed to the interdomain link")
	}
}

func TestAutocorrRejectsIncoherentPeaks(t *testing.T) {
	cfg := DefaultAutocorr()
	// Two separated peaks driven by disjoint day sets: §4.2 rejects this.
	far := NewBinSeries(start, 15*time.Minute, cfg.WindowDays*cfg.BinsPerDay)
	r := netsim.NewRNG(9)
	for d := 0; d < cfg.WindowDays; d++ {
		for b := 0; b < cfg.BinsPerDay; b++ {
			v := 20 + r.Float64()*0.8
			if d%2 == 0 && b >= 20 && b < 28 {
				v = 45 + r.Float64()*2
			}
			if d%2 == 1 && b >= 70 && b < 78 {
				v = 45 + r.Float64()*2
			}
			far.Values[d*cfg.BinsPerDay+b] = v
		}
	}
	res, err := Autocorrelation(far, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recurring {
		t.Fatal("incoherent two-peak pattern accepted as recurring congestion")
	}
	if res.RejectReason == "" {
		t.Fatal("rejection should carry a reason")
	}
}

func TestAutocorrSparseDayUnclassified(t *testing.T) {
	cfg := DefaultAutocorr()
	far := plateauSeries(cfg.WindowDays, cfg.BinsPerDay, 20, 25, 80, 92, func(int) bool { return true }, 15)
	// Blank out most of day 10 (probing outage).
	for b := 0; b < cfg.BinsPerDay*3/4; b++ {
		far.Values[10*cfg.BinsPerDay+b] = math.NaN()
	}
	res, err := Autocorrelation(far, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Days[10].Classified {
		t.Fatal("day with 25% coverage should be unclassified")
	}
	if !res.Days[11].Classified {
		t.Fatal("healthy day should remain classified")
	}
}

func TestAutocorrErrorOnShortSeries(t *testing.T) {
	cfg := DefaultAutocorr()
	short := NewBinSeries(start, 15*time.Minute, 10)
	if _, err := Autocorrelation(short, nil, cfg); err == nil {
		t.Fatal("expected error for short series")
	}
}

func TestCongestionWindows(t *testing.T) {
	cfg := DefaultAutocorr()
	far := plateauSeries(cfg.WindowDays, cfg.BinsPerDay, 20, 25, 80, 92, func(int) bool { return true }, 11)
	res, err := Autocorrelation(far, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := res.CongestionWindows(start, 15*time.Minute)
	if len(ws) < cfg.WindowDays/2 {
		t.Fatalf("only %d windows for %d congested days", len(ws), cfg.WindowDays)
	}
	for _, w := range ws {
		if !w.End.After(w.Start) {
			t.Fatalf("degenerate window %+v", w)
		}
		if w.Duration() > 6*time.Hour {
			t.Fatalf("window too long: %v", w.Duration())
		}
	}
}

func TestLevelShiftDetectsEpisode(t *testing.T) {
	// 5-minute bins, one 2-hour elevated episode in a day of data.
	n := 288
	s := NewBinSeries(start, 5*time.Minute, n)
	r := netsim.NewRNG(21)
	for i := 0; i < n; i++ {
		v := 15 + r.Float64()
		if i >= 150 && i < 174 { // 2 hours
			v = 45 + r.Float64()*2
		}
		s.Values[i] = v
	}
	res := DetectLevelShifts(s, DefaultLevelShift())
	if len(res.Episodes) != 1 {
		t.Fatalf("got %d episodes, want 1 (shifts at %v)", len(res.Episodes), res.ShiftIndexes)
	}
	ep := res.Episodes[0]
	gotStart := int(ep.Start.Sub(start) / (5 * time.Minute))
	gotEnd := int(ep.End.Sub(start) / (5 * time.Minute))
	if gotStart < 140 || gotStart > 160 || gotEnd < 164 || gotEnd > 184 {
		t.Fatalf("episode [%d, %d), want ~[150, 174)", gotStart, gotEnd)
	}
}

func TestLevelShiftIgnoresOutliers(t *testing.T) {
	n := 288
	s := NewBinSeries(start, 5*time.Minute, n)
	r := netsim.NewRNG(22)
	for i := 0; i < n; i++ {
		s.Values[i] = 15 + r.Float64()
		if i%37 == 0 {
			s.Values[i] += 60 // isolated slow-path spikes
		}
	}
	res := DetectLevelShifts(s, DefaultLevelShift())
	if len(res.Episodes) != 0 {
		t.Fatalf("outlier spikes produced %d episodes", len(res.Episodes))
	}
}

func TestLevelShiftTooShort(t *testing.T) {
	s := NewBinSeries(start, 5*time.Minute, 10)
	res := DetectLevelShifts(s, DefaultLevelShift())
	if len(res.Episodes) != 0 || len(res.ShiftIndexes) != 0 {
		t.Fatal("short series should yield nothing")
	}
}

func TestBinSeriesObserveMinFilter(t *testing.T) {
	s := NewBinSeries(start, 15*time.Minute, 4)
	s.Observe(start.Add(2*time.Minute), 30)
	s.Observe(start.Add(3*time.Minute), 10) // min wins
	s.Observe(start.Add(4*time.Minute), 20)
	if s.Values[0] != 10 {
		t.Fatalf("bin value %f, want min 10", s.Values[0])
	}
	s.Observe(start.Add(-time.Minute), 1) // out of range: ignored
	s.Observe(start.Add(time.Hour), 2)    // bin 4: out of range
	if !math.IsNaN(s.Values[1]) {
		t.Fatal("untouched bin should stay NaN")
	}
	if s.Coverage() != 0.25 {
		t.Fatalf("coverage %f", s.Coverage())
	}
}

func TestMergeVPResults(t *testing.T) {
	day0 := start
	mk := func(congested bool, frac float64) []DayResult {
		return []DayResult{{Day: day0, Classified: true, Congested: congested, Fraction: frac}}
	}
	merged := MergeVPResults([][]DayResult{mk(true, 0.2), mk(true, 0.1), mk(false, 0)})
	if len(merged) != 1 {
		t.Fatalf("got %d days", len(merged))
	}
	if !merged[0].Congested {
		t.Fatal("majority congested should win")
	}
	if math.Abs(merged[0].Fraction-0.1) > 1e-9 {
		t.Fatalf("fraction %f, want 0.1", merged[0].Fraction)
	}
	merged = MergeVPResults([][]DayResult{mk(true, 0.2), mk(false, 0), mk(false, 0)})
	if merged[0].Congested {
		t.Fatal("minority congested should lose")
	}
	if MergeVPResults(nil) != nil {
		t.Fatal("empty merge should be nil")
	}
}

func TestWindowHelpers(t *testing.T) {
	w := Window{Start: start, End: start.Add(time.Hour)}
	if !w.Contains(start) || w.Contains(start.Add(time.Hour)) {
		t.Fatal("window bounds wrong (half-open)")
	}
	if w.Duration() != time.Hour {
		t.Fatal("duration wrong")
	}
	if InAnyWindow([]Window{w}, start.Add(2*time.Hour)) {
		t.Fatal("InAnyWindow false positive")
	}
	if !InAnyWindow([]Window{w}, start.Add(30*time.Minute)) {
		t.Fatal("InAnyWindow false negative")
	}
}

// TestFoldSideBinsLikeObserveNanos: the bin-edge walk of
// BinColumn.foldSide puts every point at or after a window's Start where
// BinSeries.ObserveNanos's division puts it — runs inside one bin,
// steps to the next bin, gaps of many bins, the last bin's edge and
// points past the window — and a point before Start on the grid bin
// before it (floor division: a shared grid has no double-width bin 0;
// a window's fold takes no point before its Start, so the two never
// meet).
func TestFoldSideBinsLikeObserveNanos(t *testing.T) {
	cfg := incTestConfig()
	bin := int64(24 * time.Hour / time.Duration(cfg.BinsPerDay))
	n := cfg.WindowDays * cfg.BinsPerDay
	col := NewBinColumn(time.Duration(bin), start.UnixNano())
	want := NewBinSeries(start, time.Duration(bin), n)
	end := int64(n) * bin
	offsets := []int64{
		-3 * bin, -bin - 1, -bin, -bin + 1, -1, 0, 1, bin / 2, bin - 1, // around Start
		bin, bin + 1, 2*bin - 1, 2 * bin, 3 * bin, 3*bin + 7, // same bin, next bin
		10 * bin, 10*bin + 5, 12*bin - 1, 40*bin + 3, // gaps
		end - bin - 1, end - bin, end - 1, end, end + 1, end + 5*bin, // around the window's end
	}
	view := tsdb.SeriesView{Measurement: "tslp", Tags: map[string]string{"side": "far"}}
	before := map[int64]float64{} // grid bin (relative to Start) -> min of the points before Start
	r := netsim.NewRNG(24)
	for _, off := range offsets {
		ns, v := start.UnixNano()+off, 10+r.Float64()
		view.Times, view.Values = append(view.Times, ns), append(view.Values, v)
		if off >= 0 {
			want.ObserveNanos(ns, v)
		} else if k := floorDiv(off, bin); before[k] == 0 || v < before[k] {
			before[k] = v
		}
	}
	if got := col.foldSide(col.farCur, []tsdb.SeriesView{view}, true, math.MinInt64, math.MaxInt64); got != len(offsets) {
		t.Fatalf("folded %d of %d points", got, len(offsets))
	}
	k0 := col.index(start.UnixNano())
	got := make([]float64, n)
	col.slice(got, k0, true)
	for i := range want.Values {
		if g, w := got[i], want.Values[i]; g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("bin %d: folded %v, ObserveNanos %v", i, g, w)
		}
	}
	for k, w := range before {
		g := make([]float64, 1)
		col.slice(g, k0+k, true)
		if g[0] != w {
			t.Errorf("grid bin %d before Start: folded %v, want %v", k, g[0], w)
		}
	}
}
