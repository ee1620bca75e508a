package blockenc

// Round-trip and corruption tests for the block encodings
// (docs/PERSISTENCE.md §2). The round-trip suite covers every shape
// the probing modules emit — fixed cadences, jittered cadences,
// duplicate timestamps, constant values, NaN/Inf, denormals — and the
// corruption suite is fuzz-style: byte flips and truncations at every
// position must produce a descriptive error or a clean value change,
// never a panic or runaway allocation.

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// column is one synthetic time/value column pair.
type column struct {
	name   string
	times  []int64
	values []float64
}

// testColumns builds the column shapes the encoders must handle.
func testColumns() []column {
	rng := rand.New(rand.NewSource(42))
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()

	fixed := column{name: "fixed cadence"}
	for i := 0; i < 3000; i++ {
		fixed.times = append(fixed.times, base+int64(i)*int64(5*time.Minute))
		fixed.values = append(fixed.values, 20+math.Sin(float64(i)/96)*5)
	}

	jitter := column{name: "jittered cadence"}
	at := base
	for i := 0; i < 2500; i++ {
		at += int64(5*time.Minute) + rng.Int63n(int64(time.Second)) - int64(time.Second)/2
		jitter.times = append(jitter.times, at)
		jitter.values = append(jitter.values, rng.NormFloat64()*30)
	}

	dup := column{name: "duplicate timestamps"}
	for i := 0; i < 500; i++ {
		t := base + int64(i/3)*int64(time.Minute) // every timestamp three times
		dup.times = append(dup.times, t)
		dup.values = append(dup.values, float64(i))
	}

	constant := column{name: "constant values"}
	for i := 0; i < 1000; i++ {
		constant.times = append(constant.times, base+int64(i)*int64(time.Hour))
		constant.values = append(constant.values, 7.25)
	}

	nasty := column{
		name:  "special values",
		times: []int64{-5, -1, 0, 1, 2, 3, 4, 5, 6, 7},
		values: []float64{
			0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
			-math.SmallestNonzeroFloat64, 1e-300,
		},
	}

	single := column{name: "single point", times: []int64{base}, values: []float64{3.14}}

	return []column{fixed, jitter, dup, constant, nasty, single}
}

// sameFloats compares bit-exactly so NaNs count as equal to themselves.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestColumnRoundTrip: AppendTimes/DecodeTimes and
// AppendValues/DecodeValues are exact inverses for every column shape,
// bit-for-bit including NaN payloads (docs/PERSISTENCE.md §2.3, §2.4).
func TestColumnRoundTrip(t *testing.T) {
	for _, c := range testColumns() {
		ts, err := DecodeTimes(AppendTimes(nil, c.times), len(c.times))
		if err != nil {
			t.Fatalf("%s: DecodeTimes: %v", c.name, err)
		}
		if !reflect.DeepEqual(ts, c.times) {
			t.Fatalf("%s: timestamps did not round-trip", c.name)
		}
		vs, err := DecodeValues(AppendValues(nil, c.values), len(c.values))
		if err != nil {
			t.Fatalf("%s: DecodeValues: %v", c.name, err)
		}
		if !sameFloats(vs, c.values) {
			t.Fatalf("%s: values did not round-trip", c.name)
		}
	}
}

// TestBuildBlocks: long columns split at MaxBlockPoints, summaries are
// exact, and Decode reassembles the original columns.
func TestBuildBlocks(t *testing.T) {
	c := testColumns()[0] // 3000 points -> 3 blocks
	blocks := BuildBlocks(c.times, c.values)
	if want := (len(c.times) + MaxBlockPoints - 1) / MaxBlockPoints; len(blocks) != want {
		t.Fatalf("got %d blocks, want %d", len(blocks), want)
	}
	var ts []int64
	var vs []float64
	for _, b := range blocks {
		if b.Count == 0 || b.Count > MaxBlockPoints {
			t.Fatalf("block count %d out of range", b.Count)
		}
		bts, bvs, err := b.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if b.MinT != bts[0] || b.MaxT != bts[len(bts)-1] {
			t.Fatalf("summary time bounds [%d,%d] disagree with decoded [%d,%d]",
				b.MinT, b.MaxT, bts[0], bts[len(bts)-1])
		}
		for _, v := range bvs {
			if v < b.Min || v > b.Max {
				t.Fatalf("value %v outside summary [%v,%v]", v, b.Min, b.Max)
			}
		}
		ts = append(ts, bts...)
		vs = append(vs, bvs...)
	}
	if !reflect.DeepEqual(ts, c.times) || !sameFloats(vs, c.values) {
		t.Fatal("blocks did not reassemble the original columns")
	}
}

// payloadFixture builds a multi-series payload from the test columns.
func payloadFixture() []Series {
	var series []Series
	for i, c := range testColumns() {
		series = append(series, Series{
			Measurement: "tslp",
			Tags:        map[string]string{"link": c.name, "side": []string{"near", "far"}[i%2]},
			Blocks:      BuildBlocks(c.times, c.values),
		})
	}
	return series
}

// TestPayloadRoundTrip: EncodePayload/DecodePayload preserve series
// identity and every point, and identical content encodes to identical
// bytes (the canonical-encoding property incremental snapshots and
// replication reuse rely on).
func TestPayloadRoundTrip(t *testing.T) {
	series := payloadFixture()
	data := EncodePayload(series)
	if !reflect.DeepEqual(data, EncodePayload(series)) {
		t.Fatal("encoding is not deterministic")
	}

	got, err := DecodePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(series) {
		t.Fatalf("got %d series, want %d", len(got), len(series))
	}
	for i, s := range got {
		want := series[i]
		if s.Measurement != want.Measurement || !reflect.DeepEqual(s.Tags, want.Tags) {
			t.Fatalf("series %d identity mismatch", i)
		}
		if len(s.Blocks) != len(want.Blocks) {
			t.Fatalf("series %d: got %d blocks, want %d", i, len(s.Blocks), len(want.Blocks))
		}
		for bi, b := range s.Blocks {
			gts, gvs, err := b.Decode()
			if err != nil {
				t.Fatalf("series %d block %d: %v", i, bi, err)
			}
			wts, wvs, err := want.Blocks[bi].Decode()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gts, wts) || !sameFloats(gvs, wvs) {
				t.Fatalf("series %d block %d: points did not round-trip", i, bi)
			}
		}
	}
}

// TestPayloadVersionLayouts pins the one payload layout
// (docs/PERSISTENCE.md §2.2): every block summary carries the five
// fixed-width and varint fields in order with a fixed64 sum after max,
// so a payload's length is exactly its entries' — and a decoded
// block's sum matches a fresh summarize of its decoded values
// bit-for-bit.
func TestPayloadVersionLayouts(t *testing.T) {
	series := payloadFixture()
	data := EncodePayload(series)
	want := len(binary.AppendUvarint(nil, uint64(len(series))))
	for _, s := range series {
		want += len(AppendSeries(nil, s))
	}
	if len(data) != want {
		t.Fatalf("payload is %d bytes, its head plus entries %d", len(data), want)
	}
	// One block, hand-laid: minT maxT | min max sum (3 x fixed64) | count
	// | len+times | len+values.
	b := BuildBlocks([]int64{5, 6}, []float64{1.5, 2.5})[0]
	entry := AppendSeries(nil, Series{Measurement: "m", Blocks: []Block{b}})
	hand := []byte{1, 'm', 0, 1}
	hand = binary.AppendVarint(hand, 5)
	hand = binary.AppendVarint(hand, 6)
	for _, f := range []float64{1.5, 2.5, 4} {
		hand = binary.BigEndian.AppendUint64(hand, math.Float64bits(f))
	}
	hand = binary.AppendUvarint(hand, 2)
	hand = append(binary.AppendUvarint(hand, uint64(len(b.Times))), b.Times...)
	hand = append(binary.AppendUvarint(hand, uint64(len(b.Values))), b.Values...)
	if !reflect.DeepEqual(entry, hand) {
		t.Fatalf("entry bytes\n got %x\nwant %x", entry, hand)
	}

	decoded, err := DecodePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range decoded {
		for bi, b := range s.Blocks {
			_, vs, err := b.Decode()
			if err != nil {
				t.Fatalf("series %d block %d: %v", i, bi, err)
			}
			if _, _, sum := summarize(vs); math.Float64bits(sum) != math.Float64bits(b.Sum) {
				t.Fatalf("series %d block %d: sum %v != recomputed %v", i, bi, b.Sum, sum)
			}
		}
	}
}

// TestDecodeVerifiesSum: a summary sum that disagrees with the
// decoded values is corruption, same contract as min/max/time bounds.
// NaN sums (any NaN in the block poisons the sum) must verify too.
func TestDecodeVerifiesSum(t *testing.T) {
	b := BuildBlocks([]int64{1, 2, 3, 4}, []float64{1, 2, 3, 4})[0]
	if b.Sum != 10 {
		t.Fatalf("sum = %v, want 10", b.Sum)
	}
	if _, _, err := b.Decode(); err != nil {
		t.Fatalf("honest sum rejected: %v", err)
	}
	b.Sum++
	if _, _, err := b.Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered sum accepted (err=%v)", err)
	}

	nan := BuildBlocks([]int64{1, 2, 3}, []float64{1, math.NaN(), 3})[0]
	if !math.IsNaN(nan.Sum) {
		t.Fatalf("NaN-poisoned sum = %v, want NaN", nan.Sum)
	}
	if _, _, err := nan.Decode(); err != nil {
		t.Fatalf("NaN sum rejected: %v", err)
	}
	nan.Sum = 4
	if _, _, err := nan.Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN->finite sum tamper accepted (err=%v)", err)
	}
}

// TestDecodeCorruptionSafety is the fuzz-style robustness gate: for a
// real payload, every single-byte flip and every truncation must
// either fail with an error wrapping ErrCorrupt or decode without a
// panic (the payload-level CRC catches silent changes; this package
// only owes memory safety and bounded work).
func TestDecodeCorruptionSafety(t *testing.T) {
	data := EncodePayload(payloadFixture())

	decodeAll := func(data []byte) error {
		series, err := DecodePayload(data)
		if err != nil {
			return err
		}
		for _, s := range series {
			for _, b := range s.Blocks {
				if _, _, err := b.Decode(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if err := decodeAll(data); err != nil {
		t.Fatalf("pristine payload rejected: %v", err)
	}

	// Truncations at every length.
	step := 1
	if len(data) > 4096 {
		step = len(data) / 4096
	}
	for n := 0; n < len(data); n += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation to %d bytes panicked: %v", n, r)
				}
			}()
			if err := decodeAll(data[:n]); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: error does not wrap ErrCorrupt: %v", n, err)
			}
		}()
	}

	// Byte flips at every (sampled) position, several patterns each.
	rng := rand.New(rand.NewSource(99))
	for pos := 0; pos < len(data); pos += step {
		for _, mask := range []byte{0xff, 1 << (rng.Intn(8))} {
			mut := make([]byte, len(data))
			copy(mut, data)
			mut[pos] ^= mask
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("flip at %d panicked: %v", pos, r)
					}
				}()
				if err := decodeAll(mut); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip at %d: error does not wrap ErrCorrupt: %v", pos, err)
				}
			}()
		}
	}
}

// TestDecodeRejectsAbsurdCounts: corrupt counts cannot drive
// allocation — a tiny buffer claiming millions of series or points is
// rejected quickly.
func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	// Huge series count followed by nothing.
	data := []byte{0xff, 0xff, 0xff, 0xff, 0x07} // uvarint ~2^31
	if _, err := DecodePayload(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd series count accepted: %v", err)
	}
	// A block claiming more than MaxBlockPoints. Hand-built: series
	// count 1, measurement "m", 0 tags, 1 block, minT 0, maxT 0,
	// min/max/sum bits, count 1<<30.
	bad := []byte{1, 1, 'm', 0, 1, 0, 0}
	bad = append(bad, make([]byte, 24)...)          // min/max/sum
	bad = append(bad, 0x80, 0x80, 0x80, 0x80, 0x04) // uvarint 1<<30
	if _, err := DecodePayload(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd block count accepted: %v", err)
	}
}

// TestCompressionOnCadenceData pins the reason the block format exists: a
// fixed-cadence column must encode far below the 16 bytes/point of
// raw (time, value) pairs.
func TestCompressionOnCadenceData(t *testing.T) {
	c := testColumns()[0]
	enc := len(AppendTimes(nil, c.times)) + len(AppendValues(nil, c.values))
	raw := 16 * len(c.times)
	if enc*2 > raw {
		t.Fatalf("fixed-cadence column compressed only %dx (%d of %d raw bytes)",
			raw/enc, enc, raw)
	}
}

// TestDecodeVerifiesSummary: the lazy read path prunes whole blocks on
// summary fields without decoding them (docs/PERSISTENCE.md §9), so a
// summary that lies about its block's contents must be reported as
// ErrCorrupt by Decode, not silently accepted. Every summary field is
// tampered in turn; the columns themselves stay valid throughout.
func TestDecodeVerifiesSummary(t *testing.T) {
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	times := make([]int64, 100)
	values := make([]float64, 100)
	for i := range times {
		times[i] = base + int64(i)*int64(5*time.Minute)
		values[i] = 10 + float64(i%7)
	}
	good := BuildBlocks(times, values)[0]
	if _, _, err := good.Decode(); err != nil {
		t.Fatalf("honest summary rejected: %v", err)
	}

	tampers := []struct {
		name string
		mut  func(*Block)
	}{
		{"minT shifted", func(b *Block) { b.MinT++ }},
		{"maxT shifted", func(b *Block) { b.MaxT -= int64(time.Minute) }},
		{"min lowered", func(b *Block) { b.Min -= 5 }},
		{"min raised", func(b *Block) { b.Max += 1 }},
		{"max NaN", func(b *Block) { b.Max = math.NaN() }},
	}
	for _, tc := range tampers {
		b := good
		tc.mut(&b)
		if _, _, err := b.Decode(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: tampered summary accepted (err=%v)", tc.name, err)
		}
	}

	// All-NaN columns summarize as (NaN, NaN); that must still verify.
	nan := BuildBlocks([]int64{1, 2, 3}, []float64{math.NaN(), math.NaN(), math.NaN()})[0]
	if !math.IsNaN(nan.Min) || !math.IsNaN(nan.Max) {
		t.Fatalf("all-NaN summary = [%v,%v], want NaNs", nan.Min, nan.Max)
	}
	if _, _, err := nan.Decode(); err != nil {
		t.Fatalf("all-NaN summary rejected: %v", err)
	}
	nan.Min = 0
	if _, _, err := nan.Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN->0 min tamper accepted (err=%v)", err)
	}
}

// TestDecodeRejectsDisorderedTimes: a hand-built time column that
// decodes to out-of-order timestamps is corruption — the block index
// and range pruning assume non-decreasing order inside every block.
func TestDecodeRejectsDisorderedTimes(t *testing.T) {
	ts := []int64{100, 50, 200}
	b := Block{
		MinT: 100, MaxT: 200, Count: 3,
		Times:  AppendTimes(nil, ts),
		Values: AppendValues(nil, []float64{1, 2, 3}),
	}
	b.Min, b.Max = 1, 3
	if _, _, err := b.Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("disordered timestamps accepted (err=%v)", err)
	}
}
