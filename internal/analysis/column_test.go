package analysis

// Tests for a BinColumn's span (docs/DETECTION.md §3): it covers the
// data-holding parts of the windows read from it, and once the store
// moves it drops what no open Accumulator reads.

import (
	"reflect"
	"testing"
	"time"

	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

func TestColumnSpanFollowsLiveWindows(t *testing.T) {
	cfg := incTestConfig()
	cfg.WindowDays = 5
	day := func(d int) time.Time { return incStart.AddDate(0, 0, d) }
	db := tsdb.Open()
	rng := netsim.NewRNG(5)
	write := func(at time.Time) {
		for _, side := range []string{"far", "near"} {
			db.Write("tslp", map[string]string{"link": "L", "side": side}, at, 40+5*rng.Float64())
		}
	}
	next := incStart
	appendHour := func() { write(next); next = next.Add(time.Hour) }
	for next.Before(day(18)) {
		appendHour()
	}

	viewCalls := 0
	views := func(lo, hi int64) (uint64, []tsdb.SeriesView, []tsdb.SeriesView) {
		viewCalls++
		from, to := time.Unix(0, lo), time.Unix(0, hi)
		return db.Epoch(), db.QueryView("tslp", map[string]string{"link": "L", "side": "far"}, from, to),
			db.QueryView("tslp", map[string]string{"link": "L", "side": "near"}, from, to)
	}
	col := NewBinColumn(cfg.BinWidth(), incStart.UnixNano())
	advance := func(a *Accumulator, start time.Time) AdvanceInfo {
		t.Helper()
		first, _, _ := db.TimeBounds("tslp", map[string]string{"link": "L"})
		got, info := a.Advance(col, db.ViewStamp("tslp", map[string]string{"link": "L"}), first.UnixNano(), views)
		n := cfg.WindowDays * cfg.BinsPerDay
		far, near := NewBinSeries(start, cfg.BinWidth(), n), NewBinSeries(start, cfg.BinWidth(), n)
		lo, hi := WindowSpan(start, cfg)
		_, fv, nv := views(lo, hi)
		viewCalls--
		for _, v := range fv {
			for i, ns := range v.Times {
				far.ObserveNanos(ns, v.Values[i])
			}
		}
		for _, v := range nv {
			for i, ns := range v.Times {
				near.ObserveNanos(ns, v.Values[i])
			}
		}
		if want, _ := Autocorrelation(far, near, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("window from %s diverged from batch:\n got %+v\nwant %+v", start, got, want)
		}
		return info
	}
	span := func() (time.Time, time.Time) { return time.Unix(0, col.lo).UTC(), time.Unix(0, col.hi).UTC() }

	hot, hist := NewAccumulator(day(14), cfg), NewAccumulator(day(0), cfg)
	advance(hot, day(14))
	advance(hist, day(0))
	if lo, hi := span(); !lo.Equal(day(0)) || !hi.Equal(day(19)) {
		t.Fatalf("span [%s, %s) after two windows, want [%s, %s)", lo, hi, day(0), day(19))
	}

	// A window wholly before the first point takes no view and leaves
	// the span as it was.
	early := NewAccumulator(day(-30), cfg)
	calls := viewCalls
	if info := advance(early, day(-30)); info.PointsFolded != 0 || viewCalls != calls {
		t.Fatalf("window before the data folded %d points in %d view calls", info.PointsFolded, viewCalls-calls)
	}
	if lo, _ := span(); !lo.Equal(day(0)) {
		t.Fatalf("window before the data moved the span to %s", lo)
	}
	early.Close()

	// While the historical window is open, an append folds just itself.
	appendHour()
	if info := advance(hot, day(14)); info.Full || info.PointsFolded != 2 {
		t.Fatalf("append with both windows open: %+v", info)
	}
	// Once it closes, the next store move drops the span it alone read:
	// one re-fold, then appends are incremental again.
	hist.Close()
	appendHour()
	if info := advance(hot, day(14)); !info.Full {
		t.Fatalf("closing the historical window kept the column: %+v", info)
	}
	if lo, hi := span(); !lo.Equal(day(14)) || !hi.Equal(day(19)) {
		t.Fatalf("span [%s, %s) after closing the historical window, want [%s, %s)", lo, hi, day(14), day(19))
	}
	appendHour()
	if info := advance(hot, day(14)); info.Full || info.PointsFolded != 2 {
		t.Fatalf("append after the shrink: %+v", info)
	}
	// A closed window still advances correctly; it just grows the span.
	if info := advance(hist, day(0)); !info.Full {
		t.Fatalf("closed window over a re-folded column: %+v", info)
	}
	if len(col.live) != 1 {
		t.Fatalf("%d live windows, want 1", len(col.live))
	}
}
