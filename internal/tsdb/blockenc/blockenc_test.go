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
	"fmt"
	"math"
	"math/bits"
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

// ---------------------------------------------------------------------------
// Reference codec. The bit-at-a-time reader and writer, the value and
// time column loops built on them, and the two-pass Block.Decode, as
// they stood before the word-wise rewrite (docs/PERSISTENCE.md §2.4).
// They define the format: the fuzz and golden tests in fuzz_test.go
// hold the production codec to these byte for byte.

type refBitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // bits used in cur
}

func (w *refBitWriter) writeBit(b byte) {
	w.cur = w.cur<<1 | (b & 1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for i := n; i > 0; i-- {
		w.writeBit(byte(v >> (i - 1)))
	}
}

func (w *refBitWriter) finish() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

type refBitReader struct {
	buf []byte
	pos uint // bit position
}

func (r *refBitReader) readBit() (byte, error) {
	if r.pos >= uint(len(r.buf))*8 {
		return 0, fmt.Errorf("%w: value bitstream ended early", ErrCorrupt)
	}
	b := r.buf[r.pos/8] >> (7 - r.pos%8) & 1
	r.pos++
	return b, nil
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refBitReader) remaining() uint {
	total := uint(len(r.buf)) * 8
	if r.pos >= total {
		return 0
	}
	return total - r.pos
}

func refAppendValues(dst []byte, vs []float64) []byte {
	if len(vs) == 0 {
		return dst
	}
	w := refBitWriter{buf: dst}
	prev := math.Float64bits(vs[0])
	w.writeBits(prev, 64)
	prevLead, prevSig := uint(255), uint(0)
	for _, v := range vs[1:] {
		cur := math.Float64bits(v)
		xor := prev ^ cur
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 31 {
			lead = 31
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevLead != 255 && lead >= prevLead && 64-prevLead-prevSig <= trail {
			w.writeBit(0)
			w.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		w.writeBit(1)
		w.writeBits(uint64(lead), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return w.finish()
}

func refDecodeValues(src []byte, count int) ([]float64, error) {
	if count == 0 {
		if len(src) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after empty value column", ErrCorrupt, len(src))
		}
		return nil, nil
	}
	r := refBitReader{buf: src}
	out := make([]float64, 0, allocHint(count))
	prev, err := r.readBits(64)
	if err != nil {
		return nil, err
	}
	out = append(out, math.Float64frombits(prev))
	prevLead, prevSig := uint(0), uint(0)
	haveWindow := false
	for i := 1; i < count; i++ {
		b, err := r.readBit()
		if err != nil {
			return nil, err
		}
		if b == 0 {
			out = append(out, math.Float64frombits(prev))
			continue
		}
		ctrl, err := r.readBit()
		if err != nil {
			return nil, err
		}
		var xor uint64
		if ctrl == 0 {
			if !haveWindow {
				return nil, fmt.Errorf("%w: window reuse before any window at value %d", ErrCorrupt, i)
			}
			m, err := r.readBits(prevSig)
			if err != nil {
				return nil, err
			}
			xor = m << (64 - prevLead - prevSig)
		} else {
			lead64, err := r.readBits(6)
			if err != nil {
				return nil, err
			}
			sig64, err := r.readBits(6)
			if err != nil {
				return nil, err
			}
			lead, sig := uint(lead64), uint(sig64)+1
			if lead+sig > 64 {
				return nil, fmt.Errorf("%w: impossible window (%d leading + %d significant bits) at value %d", ErrCorrupt, lead, sig, i)
			}
			m, err := r.readBits(sig)
			if err != nil {
				return nil, err
			}
			xor = m << (64 - lead - sig)
			prevLead, prevSig = lead, sig
			haveWindow = true
		}
		if xor == 0 {
			return nil, fmt.Errorf("%w: explicit zero xor at value %d", ErrCorrupt, i)
		}
		prev ^= xor
		out = append(out, math.Float64frombits(prev))
	}
	if rest := r.remaining(); rest >= 8 {
		return nil, fmt.Errorf("%w: %d trailing bits after value column", ErrCorrupt, rest)
	}
	return out, nil
}

func refDecodeTimes(src []byte, count int) ([]int64, error) {
	if count == 0 {
		if len(src) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after empty time column", ErrCorrupt, len(src))
		}
		return nil, nil
	}
	out := make([]int64, 0, allocHint(count))
	v, n := binary.Varint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad varint at time column start", ErrCorrupt)
	}
	src = src[n:]
	out = append(out, v)
	var prevDelta int64
	for i := 1; i < count; i++ {
		d, n := binary.Varint(src)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad varint at time column index %d", ErrCorrupt, i)
		}
		src = src[n:]
		if i == 1 {
			prevDelta = d
		} else {
			prevDelta += d
		}
		out = append(out, out[len(out)-1]+prevDelta)
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after time column", ErrCorrupt, len(src))
	}
	return out, nil
}

// refBlockDecode decodes both columns and then re-walks them for time
// order, bounds and summary — the checks Block.Decode now makes inside
// its decode loops.
func refBlockDecode(b Block) ([]int64, []float64, error) {
	times, err := refDecodeTimes(b.Times, b.Count)
	if err != nil {
		return nil, nil, err
	}
	values, err := refDecodeValues(b.Values, b.Count)
	if err != nil {
		return nil, nil, err
	}
	if len(times) == 0 {
		return times, values, nil
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			return nil, nil, fmt.Errorf("%w: timestamps out of order at index %d (%d after %d)", ErrCorrupt, i, times[i], times[i-1])
		}
	}
	if times[0] != b.MinT || times[len(times)-1] != b.MaxT {
		return nil, nil, fmt.Errorf("%w: summary time bounds [%d,%d] disagree with decoded [%d,%d]",
			ErrCorrupt, b.MinT, b.MaxT, times[0], times[len(times)-1])
	}
	min, max, sum := summarize(values)
	if !sameFloat(min, b.Min) || !sameFloat(max, b.Max) {
		return nil, nil, fmt.Errorf("%w: summary value bounds [%v,%v] disagree with decoded [%v,%v]",
			ErrCorrupt, b.Min, b.Max, min, max)
	}
	if !sameFloat(sum, b.Sum) {
		return nil, nil, fmt.Errorf("%w: summary sum %v disagrees with decoded %v",
			ErrCorrupt, b.Sum, sum)
	}
	return times, values, nil
}
