package main

// The fleet section is self-checking — digest equality at every hop,
// the 5x delta-ratio floor, generation agreement along the relay chain
// — so invoking it IS the test (the same pattern CI's bench-smoke job uses for the
// self-checking benchmarks). The bench-gate plumbing is tested against
// temp files: a passing baseline, a regressed metric, and a metric
// missing from the run.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFleetSectionSelfChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet section builds real replica fleets")
	}
	if err := runFleetSection(); err != nil {
		t.Fatal(err)
	}
	ratio, ok := benchRatios["delta_bytes_ratio"]
	if !ok || ratio < 5 {
		t.Fatalf("delta_bytes_ratio = %v (recorded %v), want >= 5", ratio, ok)
	}
}

func TestFinishBenchGate(t *testing.T) {
	fill := func() {
		for _, k := range []string{"compression_ratio", "block_skip_ratio", "cold_open_speedup",
			"aggregate_pushdown_speedup", "detect_update_speedup", "delta_bytes_ratio"} {
			benchRatios[k] = 10
		}
	}
	reset := benchRatios
	defer func() { benchRatios = reset }()

	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// A run missing a required metric fails before writing anything.
	benchRatios = map[string]float64{}
	if err := finishBench("", ""); err == nil || !strings.Contains(err.Error(), "delta_bytes_ratio") && !strings.Contains(err.Error(), "compression_ratio") {
		t.Fatalf("missing-metric error = %v", err)
	}

	// A complete run writes the JSON artifact and passes its own gate.
	benchRatios = map[string]float64{}
	fill()
	out := filepath.Join(dir, "out.json")
	base := write("base.json", `{"metrics":{"delta_bytes_ratio":10}}`)
	if err := finishBench(out, base); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}

	// A regressed metric (beyond the 20% slack) fails the gate.
	regressed := write("regressed.json", `{"metrics":{"delta_bytes_ratio":20}}`)
	if err := finishBench("", regressed); err == nil || !strings.Contains(err.Error(), "delta_bytes_ratio") {
		t.Fatalf("regression error = %v", err)
	}

	// A baseline metric this run never measured fails too.
	unknown := write("unknown.json", `{"metrics":{"no_such_metric":1}}`)
	if err := finishBench("", unknown); err == nil || !strings.Contains(err.Error(), "not measured") {
		t.Fatalf("unmeasured-metric error = %v", err)
	}
}
