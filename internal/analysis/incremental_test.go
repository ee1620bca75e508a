package analysis

// Equivalence harness for the incremental detector (docs/DETECTION.md
// §4): random write schedules — in-order appends, out-of-order inserts,
// duplicate timestamps, out-of-window writes, retention trims, and
// whole-store restore round-trips — are applied to a live tsdb, and
// after every step the Incremental accumulator's result is compared
// against a fresh batch Autocorrelation over the same views. The two
// must match exactly (reflect.DeepEqual over the full result, which the
// serving tier's encode then maps to byte-identical bodies; the api
// package asserts the encoded-body form end to end).

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"interdomain/internal/netsim"
	"interdomain/internal/tsdb"
)

func incTestConfig() AutocorrConfig {
	return AutocorrConfig{
		WindowDays:     4,
		BinsPerDay:     24,
		ThresholdMs:    7,
		MinPeakDays:    2,
		SufficientFrac: 0.5,
		MinDayCoverage: 0.3,
	}
}

var incStart = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// incHarness drives one (db, accumulator) pair through a schedule.
type incHarness struct {
	t    *testing.T
	db   *tsdb.DB
	inc  *Incremental
	cfg  AutocorrConfig
	link string

	bin time.Duration
	n   int
	end time.Time

	// next append timestamp per (vp, side) series.
	next map[string]time.Time

	fulls, incs, unchanged int
}

func newIncHarness(t *testing.T) *incHarness {
	cfg := incTestConfig()
	bin := 24 * time.Hour / time.Duration(cfg.BinsPerDay)
	n := cfg.WindowDays * cfg.BinsPerDay
	return &incHarness{
		t:    t,
		db:   tsdb.Open(),
		inc:  NewIncremental(incStart, cfg),
		cfg:  cfg,
		link: "AS-a|AS-b",
		bin:  bin,
		n:    n,
		end:  incStart.Add(time.Duration(n) * bin),
		next: map[string]time.Time{},
	}
}

func (h *incHarness) write(vp, side string, at time.Time, v float64) {
	h.db.Write("tslp", map[string]string{"link": h.link, "vp": vp, "side": side}, at, v)
}

// value synthesizes an RTT for a timestamp: base plus a diurnal
// congestion plateau on the far side so recurrence actually triggers.
func (h *incHarness) value(side string, at time.Time, rng *netsim.RNG) float64 {
	v := 40 + 5*rng.Float64()
	if side == "far" {
		hour := at.UTC().Hour()
		if hour >= 18 && hour < 22 {
			v += 30
		}
	}
	return v
}

// views queries the current far/near contributing views exactly as the
// serving tier does.
func (h *incHarness) views(side string) []tsdb.SeriesView {
	return h.db.QueryView("tslp", map[string]string{"link": h.link, "side": side}, incStart, h.end)
}

// check advances the accumulator and asserts equality with a batch run
// over the same views.
func (h *incHarness) check() AdvanceInfo {
	h.t.Helper()
	farViews, nearViews := h.views("far"), h.views("near")
	got, info := h.inc.Advance(h.db.Epoch(), farViews, nearViews)

	far := NewBinSeries(incStart, h.bin, h.n)
	near := NewBinSeries(incStart, h.bin, h.n)
	for _, v := range farViews {
		for i, ns := range v.Times {
			far.ObserveNanos(ns, v.Values[i])
		}
	}
	for _, v := range nearViews {
		for i, ns := range v.Times {
			near.ObserveNanos(ns, v.Values[i])
		}
	}
	want, err := Autocorrelation(far, near, h.cfg)
	if err != nil {
		h.t.Fatalf("batch reference: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		h.t.Fatalf("incremental result diverged from batch (full=%v folded=%d):\n got %+v\nwant %+v",
			info.Full, info.PointsFolded, got, want)
	}
	switch {
	case info.Full:
		h.fulls++
	case info.Unchanged:
		h.unchanged++
	default:
		h.incs++
	}
	return info
}

// appendBurst appends 1..12 in-order points across random (vp, side)
// series.
func (h *incHarness) appendBurst(rng *netsim.RNG, vps []string) {
	for i, k := 0, 1+rng.Intn(12); i < k; i++ {
		vp := vps[rng.Intn(len(vps))]
		side := []string{"far", "near"}[rng.Intn(2)]
		key := vp + "|" + side
		at, ok := h.next[key]
		if !ok {
			at = incStart.Add(time.Duration(rng.Intn(120)) * time.Minute)
		}
		h.write(vp, side, at, h.value(side, at, rng))
		h.next[key] = at.Add(time.Duration(5+rng.Intn(35)) * time.Minute)
	}
}

// TestIncrementalEquivalenceRandomSchedules is the §4 equivalence
// gate: three independently seeded schedules mixing every mutation the
// store supports, with a batch comparison after every step.
func TestIncrementalEquivalenceRandomSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := netsim.NewRNG(seed)
			h := newIncHarness(t)
			vps := []string{"vp1", "vp2"}
			for step := 0; step < 60; step++ {
				switch p := rng.Float64(); {
				case p < 0.50: // in-order appends: the incremental fast path
					h.appendBurst(rng, vps)
				case p < 0.62: // out-of-order insert into the folded prefix
					vp := vps[rng.Intn(len(vps))]
					at := incStart.Add(time.Duration(rng.Intn(h.n)) * h.bin / 2)
					h.write(vp, "far", at, h.value("far", at, rng))
				case p < 0.70: // duplicate timestamp
					vp := vps[rng.Intn(len(vps))]
					if at, ok := h.next[vp+"|far"]; ok {
						h.write(vp, "far", at.Add(-5*time.Minute), 200)
					}
				case p < 0.78: // out-of-window write (moves versions only)
					vp := vps[rng.Intn(len(vps))]
					h.write(vp, "far", h.end.Add(time.Hour), 40)
				case p < 0.85: // retention trim
					cut := incStart.Add(time.Duration(rng.Intn(h.n/2)) * h.bin)
					h.db.Retain(cut, h.end.Add(24*time.Hour))
				case p < 0.92: // restart: snapshot + restore round-trip
					dir := t.TempDir()
					if _, err := h.db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					if err := h.db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
						t.Fatalf("restore: %v", err)
					}
				default: // a new vantage point appears mid-campaign
					vp := fmt.Sprintf("vp%d", 3+rng.Intn(3))
					at := incStart.Add(time.Duration(rng.Intn(h.n)) * h.bin)
					h.write(vp, "far", at, h.value("far", at, rng))
					h.write(vp, "near", at, h.value("near", at, rng))
				}
				h.check()
			}
			if h.incs == 0 || h.fulls == 0 {
				t.Fatalf("schedule did not exercise both paths: %d incremental, %d full, %d unchanged",
					h.incs, h.fulls, h.unchanged)
			}
			t.Logf("seed %d: %d incremental, %d full, %d unchanged advances", seed, h.incs, h.fulls, h.unchanged)
		})
	}
}

// TestIncrementalPureAppendStaysIncremental is the performance
// contract of docs/DETECTION.md §4 (the ruler's
// analysis.advance_us_p50 measures its cost): a steady in-order write
// workload must never fall back to a full recompute after the initial
// fold, and a warm one-point append folds exactly that point.
func TestIncrementalPureAppendStaysIncremental(t *testing.T) {
	rng := netsim.NewRNG(7)
	h := newIncHarness(t)
	vps := []string{"vp1", "vp2", "vp3"}
	if info := h.check(); !info.Full {
		t.Fatalf("first advance must be a full fold, got %+v", info)
	}
	for step := 0; step < 40; step++ {
		h.appendBurst(rng, vps)
		if info := h.check(); info.Full {
			t.Fatalf("step %d: pure-append schedule fell back to a full recompute", step)
		}
	}
	if h.incs == 0 {
		t.Fatal("no incremental advances recorded")
	}
	at, ok := h.next["vp1|far"]
	if !ok {
		t.Fatal("schedule never appended to vp1's far series")
	}
	h.write("vp1", "far", at, h.value("far", at, rng))
	if info := h.check(); info.Full || info.PointsFolded != 1 {
		t.Fatalf("warm one-point advance: %+v, want an incremental fold of 1 point", info)
	}
}

// TestIncrementalInvalidationTriggers pins the §4 fallback triggers
// one by one.
func TestIncrementalInvalidationTriggers(t *testing.T) {
	newWarm := func(t *testing.T) *incHarness {
		h := newIncHarness(t)
		rng := netsim.NewRNG(11)
		h.appendBurst(rng, []string{"vp1"})
		h.appendBurst(rng, []string{"vp1"})
		h.check()
		return h
	}

	t.Run("out-of-order insert forces full", func(t *testing.T) {
		h := newWarm(t)
		h.write("vp1", "far", incStart.Add(time.Minute), 41)
		if info := h.check(); !info.Full {
			t.Fatalf("expected full recompute, got %+v", info)
		}
	})
	t.Run("retention trim forces full", func(t *testing.T) {
		h := newWarm(t)
		if h.db.Retain(incStart.Add(2*time.Hour), h.end) == 0 {
			t.Skip("trim removed nothing")
		}
		if info := h.check(); !info.Full {
			t.Fatalf("expected full recompute, got %+v", info)
		}
	})
	t.Run("restore forces full", func(t *testing.T) {
		h := newWarm(t)
		dir := t.TempDir()
		if _, err := h.db.SnapshotDir(dir, tsdb.DirOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := h.db.RestoreDir(dir, tsdb.DirOptions{}); err != nil {
			t.Fatal(err)
		}
		if info := h.check(); !info.Full {
			t.Fatalf("expected full recompute after epoch move, got %+v", info)
		}
	})
	t.Run("out-of-window write forces full, result unchanged", func(t *testing.T) {
		h := newWarm(t)
		before, _ := h.inc.Advance(h.db.Epoch(), h.views("far"), h.views("near"))
		h.write("vp1", "far", h.end.Add(time.Hour), 40)
		after := h.check()
		if !after.Full {
			t.Fatalf("version moved without new in-window points: expected conservative full recompute")
		}
		got, _ := h.inc.Advance(h.db.Epoch(), h.views("far"), h.views("near"))
		if !reflect.DeepEqual(got, before) {
			t.Fatal("out-of-window write changed the result")
		}
	})
	t.Run("higher sample in a filled bin is Unchanged", func(t *testing.T) {
		h := newWarm(t)
		// Fold a point into a bin that already holds a lower min.
		var at time.Time
		for _, v := range h.views("far") {
			at = time.Unix(0, v.Times[len(v.Times)-1]).UTC()
		}
		h.write("vp1", "far", at.Add(time.Second), 10000)
		info := h.check()
		if info.Full || !info.Unchanged {
			t.Fatalf("expected Unchanged advance, got %+v", info)
		}
	})
}
