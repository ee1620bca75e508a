package blockenc

import "testing"

// fixtureDay is one series-day of the repository benchmark's fixture
// (benchmark/fixture.go): 288 points at a five-minute cadence, values a
// per-series base plus uniform noise in [0, 1) — full-width random
// mantissas, the codec's expensive case — with a 15 ms evening plateau.
func fixtureDay() ([]int64, []float64) {
	const points = 288
	times := make([]int64, points)
	values := make([]float64, points)
	x := uint64(1)
	for i := range times {
		times[i] = 1456790400e9 + int64(i)*300e9
		x = x*6364136223846793005 + 1442695040888963407
		values[i] = 21.5 + float64(x>>11)/(1<<53)
		if h := i / 12; h >= 19 && h < 22 {
			values[i] += 15
		}
	}
	return times, values
}

var benchSink int

// BenchmarkBlockDecode reports Block.Decode — both columns plus the
// summary cross-check — in ns/point on one fixture-shaped block.
func BenchmarkBlockDecode(b *testing.B) {
	times, values := fixtureDay()
	block := BuildBlocks(times, values)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, _, err := block.Decode()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(ts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(times)), "ns/point")
}

// BenchmarkBlockEncode reports BuildBlocks — both columns plus the
// summary — in ns/point on the same block.
func BenchmarkBlockEncode(b *testing.B) {
	times, values := fixtureDay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(BuildBlocks(times, values))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(times)), "ns/point")
}
