// Package blockenc implements the segment payload of
// docs/PERSISTENCE.md §2: per-series columnar blocks holding
// delta-of-delta varint-encoded timestamps next to Gorilla
// XOR-compressed float64 values, each block fronted by a
// (minT, maxT, min, max, sum, count) summary so readers can skip,
// reuse or aggregate a block without decoding a single point. The package is deliberately
// free of tsdb types — it encodes raw column slices — so the encode
// and decode halves of the storage engine are testable in isolation
// and the wire/disk layers above (segments, compaction, replication)
// compose blocks without re-implementing the bit-level formats.
//
// Integrity is layered: the segment header's CRC-32C covers the whole
// payload (docs/PERSISTENCE.md §2), so this package's decoders only
// need to be *safe* on corrupt input — every malformed length, count
// or truncated bitstream is a descriptive error, never a panic or an
// unbounded allocation.
package blockenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// MaxBlockPoints is the largest number of points a single block may
// hold. Encoders split longer columns into consecutive blocks, which
// bounds the work a reader must do to skip past data it does not want
// (docs/PERSISTENCE.md §2).
const MaxBlockPoints = 1024

// ErrCorrupt is wrapped by every decoding error of this package: a
// truncated buffer, an impossible length or count, or a bitstream that
// ends mid-value. Callers can errors.Is against it instead of matching
// message text.
var ErrCorrupt = errors.New("blockenc: corrupt block data")

// Block is one encoded column pair plus its summary. Times and Values
// alias the buffer they were decoded from (or the buffers they were
// encoded into); blocks are immutable once built.
type Block struct {
	// MinT and MaxT are the first and last timestamps of the block in
	// Unix nanoseconds. Points are time-ordered, so MinT is times[0]
	// and MaxT is times[count-1]; a reader can drop or keep a whole
	// block against a time cut without decoding it.
	MinT, MaxT int64
	// Min and Max summarize the block's values (NaNs excluded), so
	// value-threshold scans can skip blocks. The lazy read path prunes
	// on them (docs/PERSISTENCE.md §9), so they are load-bearing:
	// Decode cross-checks every summary field against the decoded
	// columns and reports a lying summary as ErrCorrupt.
	Min, Max float64
	// Sum is the sequential IEEE-754 sum of every value in the block,
	// NaNs included — one NaN point poisons the sum to NaN, exactly as
	// it would poison a decode-and-add fold. Aggregate pushdown
	// (docs/PERSISTENCE.md §10) folds bucket sums from this field
	// without decoding.
	Sum float64
	// Count is the number of points encoded in the block.
	Count int
	// Times is the delta-of-delta varint encoding of the timestamps.
	Times []byte
	// Values is the Gorilla XOR encoding of the values.
	Values []byte
}

// Series is one series' identity and encoded blocks inside a
// payload. Tags are sorted by key on encode so payload bytes are
// canonical for identical content.
type Series struct {
	// Measurement is the series' measurement name.
	Measurement string
	// Tags is the series' tag set.
	Tags map[string]string
	// Blocks holds the series' encoded blocks in time order.
	Blocks []Block
}

// ---------------------------------------------------------------------------
// Timestamp column: delta-of-delta, zigzag varint.

// AppendTimes appends the delta-of-delta varint encoding of ts
// (docs/PERSISTENCE.md §2.3) to dst and returns the extended slice.
// The first timestamp is stored absolute, the second as a delta, and
// every later one as the difference between consecutive deltas — zero
// for the fixed-cadence rounds the probers emit, which varint-encodes
// to a single byte per point.
func AppendTimes(dst []byte, ts []int64) []byte {
	if len(ts) == 0 {
		return dst
	}
	dst = binary.AppendVarint(dst, ts[0])
	if len(ts) == 1 {
		return dst
	}
	prevDelta := ts[1] - ts[0]
	dst = binary.AppendVarint(dst, prevDelta)
	for i := 2; i < len(ts); i++ {
		delta := ts[i] - ts[i-1]
		dst = binary.AppendVarint(dst, delta-prevDelta)
		prevDelta = delta
	}
	return dst
}

// DecodeTimes decodes exactly count timestamps from src, which must be
// consumed completely; leftover or missing bytes are corruption.
func DecodeTimes(src []byte, count int) ([]int64, error) {
	out, _, err := decodeTimes(src, count)
	return out, err
}

// decodeTimes is DecodeTimes plus the order check Block.Decode needs,
// made in the same pass: disorder is the first index whose timestamp
// precedes its predecessor, or 0 when the column is non-decreasing.
func decodeTimes(src []byte, count int) (out []int64, disorder int, err error) {
	if count == 0 {
		if len(src) != 0 {
			return nil, 0, fmt.Errorf("%w: %d trailing bytes after empty time column", ErrCorrupt, len(src))
		}
		return nil, 0, nil
	}
	out = make([]int64, 0, allocHint(count))
	prev, n := binary.Varint(src)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad varint at time column start", ErrCorrupt)
	}
	src = src[n:]
	out = append(out, prev)
	var prevDelta int64
	for i := 1; i < count; i++ {
		var d int64
		if len(src) > 0 && src[0] < 0x80 {
			// One-byte varint: every delta-of-delta of a fixed cadence.
			d = int64(src[0]>>1) ^ -int64(src[0]&1)
			src = src[1:]
		} else {
			if d, n = binary.Varint(src); n <= 0 {
				return nil, 0, fmt.Errorf("%w: bad varint at time column index %d", ErrCorrupt, i)
			}
			src = src[n:]
		}
		if i == 1 {
			prevDelta = d
		} else {
			prevDelta += d
		}
		t := prev + prevDelta
		if t < prev && disorder == 0 {
			disorder = i
		}
		out = append(out, t)
		prev = t
	}
	if len(src) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes after time column", ErrCorrupt, len(src))
	}
	return out, disorder, nil
}

// ---------------------------------------------------------------------------
// Value column: Gorilla XOR bitstream.

// AppendValues appends the Gorilla XOR encoding of vs
// (docs/PERSISTENCE.md §2.4) to dst and returns the extended slice:
// the first value raw, then per value one bit for "unchanged", or a
// leading/significant-bits window borrowed from the previous value, or
// a freshly described window.
func AppendValues(dst []byte, vs []float64) []byte {
	if len(vs) == 0 {
		return dst
	}
	w := bitWriter{buf: dst}
	prev := math.Float64bits(vs[0])
	w.writeBits(prev, 64)
	prevLead, prevSig := uint(255), uint(0) // 255: no window established yet
	for _, v := range vs[1:] {
		cur := math.Float64bits(v)
		xor := prev ^ cur
		prev = cur
		if xor == 0 {
			w.writeBits(0, 1)
			continue
		}
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 31 {
			lead = 31 // cap so the 5-bit-friendly window math of the paper holds; 6 bits stored
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevLead != 255 && lead >= prevLead && 64-prevLead-prevSig <= trail {
			// Fits the previous window: control '10', reuse it.
			w.writeBits(0b10, 2)
			w.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		// New window: control '11', 6 bits of leading zeros, 6 bits of
		// significant-bit count minus one (1..64 -> 0..63).
		w.writeBits(0b11<<12|uint64(lead)<<6|uint64(sig-1), 14)
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return w.finish()
}

// DecodeValues decodes exactly count values from src. The bitstream
// must cover all of src except up to seven padding bits in the final
// byte; anything else is corruption.
func DecodeValues(src []byte, count int) ([]float64, error) {
	out, _, err := decodeValues(src, count)
	return out, err
}

// valueSummary is what summarize computes over a value column.
type valueSummary struct{ min, max, sum float64 }

// decodeValues is DecodeValues plus the summary Block.Decode verifies,
// folded in the same pass exactly as summarize folds it: NaN-excluding
// extrema and the sequential sum of every value in column order.
func decodeValues(src []byte, count int) ([]float64, valueSummary, error) {
	min, max, sum := math.NaN(), math.NaN(), 0.0
	if count == 0 {
		if len(src) != 0 {
			return nil, valueSummary{}, fmt.Errorf("%w: %d trailing bytes after empty value column", ErrCorrupt, len(src))
		}
		return nil, valueSummary{}, nil
	}
	r := bitReader{buf: src}
	out := make([]float64, 0, allocHint(count))
	prev, ok := r.readBits(64)
	if !ok {
		return nil, valueSummary{}, errShortValues
	}
	var lead, sig uint
	haveWindow := false
	for i := 0; ; {
		v := math.Float64frombits(prev)
		out = append(out, v)
		sum += v
		if v == v { // not NaN
			if !(min <= v) { // min is NaN or above v
				min = v
			}
			if !(max >= v) {
				max = v
			}
		}
		if i++; i == count {
			break
		}
		ctrl, ok := r.readBits(1)
		if !ok {
			return nil, valueSummary{}, errShortValues
		}
		if ctrl == 0 {
			continue
		}
		if ctrl, ok = r.readBits(1); !ok {
			return nil, valueSummary{}, errShortValues
		}
		if ctrl == 0 {
			if !haveWindow {
				return nil, valueSummary{}, fmt.Errorf("%w: window reuse before any window at value %d", ErrCorrupt, i)
			}
		} else {
			w, ok := r.readBits(12)
			if !ok {
				return nil, valueSummary{}, errShortValues
			}
			lead, sig = uint(w>>6), uint(w&63)+1
			if lead+sig > 64 {
				return nil, valueSummary{}, fmt.Errorf("%w: impossible window (%d leading + %d significant bits) at value %d", ErrCorrupt, lead, sig, i)
			}
			haveWindow = true
		}
		m, ok := r.readBits(sig)
		if !ok {
			return nil, valueSummary{}, errShortValues
		}
		if m == 0 {
			return nil, valueSummary{}, fmt.Errorf("%w: explicit zero xor at value %d", ErrCorrupt, i)
		}
		prev ^= m << (64 - lead - sig)
	}
	if rest := r.remaining(); rest >= 8 {
		return nil, valueSummary{}, fmt.Errorf("%w: %d trailing bits after value column", ErrCorrupt, rest)
	}
	return out, valueSummary{min, max, sum}, nil
}

// errShortValues reports a value bitstream that ends mid-value.
var errShortValues = fmt.Errorf("%w: value bitstream ended early", ErrCorrupt)

// ---------------------------------------------------------------------------
// Blocks.

// BuildBlocks encodes parallel time/value columns (times ascending,
// equal length) into consecutive blocks of at most MaxBlockPoints
// points each, filling every block's summary.
func BuildBlocks(times []int64, values []float64) []Block {
	var out []Block
	for len(times) > 0 {
		n := len(times)
		if n > MaxBlockPoints {
			n = MaxBlockPoints
		}
		ts, vs := times[:n], values[:n]
		b := Block{
			MinT:   ts[0],
			MaxT:   ts[n-1],
			Count:  n,
			Times:  AppendTimes(nil, ts),
			Values: AppendValues(nil, vs),
		}
		b.Min, b.Max, b.Sum = summarize(vs)
		out = append(out, b)
		times, values = times[n:], values[n:]
	}
	return out
}

// summarize returns the min and max of vs ignoring NaNs — all-NaN (or
// empty) columns summarize as (NaN, NaN) — plus the sequential sum of
// every value, NaNs included, so the sum matches what a left-to-right
// decode-and-add fold over the column would produce.
func summarize(vs []float64) (min, max, sum float64) {
	min, max = math.NaN(), math.NaN()
	for _, v := range vs {
		sum += v
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(min) || v < min {
			min = v
		}
		if math.IsNaN(max) || v > max {
			max = v
		}
	}
	return min, max, sum
}

// Decode expands the block back into its time and value columns and
// verifies the summary against them: the columns must hold exactly
// Count points in non-decreasing time order, MinT/MaxT must equal the
// first and last timestamps, Min/Max must equal the NaN-excluding
// extrema of the values, and Sum their sequential sum bit for bit.
// Readers prune and aggregate whole blocks on these fields without
// decoding them (docs/PERSISTENCE.md §9, §10), so a summary that
// disagrees with its block's contents is corruption and fails loud
// here rather than silently mis-pruning.
func (b Block) Decode() (times []int64, values []float64, err error) {
	times, disorder, err := decodeTimes(b.Times, b.Count)
	if err != nil {
		return nil, nil, err
	}
	values, got, err := decodeValues(b.Values, b.Count)
	if err != nil {
		return nil, nil, err
	}
	if len(times) == 0 {
		return times, values, nil
	}
	if i := disorder; i != 0 {
		return nil, nil, fmt.Errorf("%w: timestamps out of order at index %d (%d after %d)", ErrCorrupt, i, times[i], times[i-1])
	}
	if times[0] != b.MinT || times[len(times)-1] != b.MaxT {
		return nil, nil, fmt.Errorf("%w: summary time bounds [%d,%d] disagree with decoded [%d,%d]",
			ErrCorrupt, b.MinT, b.MaxT, times[0], times[len(times)-1])
	}
	if !sameFloat(got.min, b.Min) || !sameFloat(got.max, b.Max) {
		return nil, nil, fmt.Errorf("%w: summary value bounds [%v,%v] disagree with decoded [%v,%v]",
			ErrCorrupt, b.Min, b.Max, got.min, got.max)
	}
	if !sameFloat(got.sum, b.Sum) {
		return nil, nil, fmt.Errorf("%w: summary sum %v disagrees with decoded %v",
			ErrCorrupt, b.Sum, got.sum)
	}
	return times, values, nil
}

// sameFloat is float equality with NaN equal to NaN, matching how
// summaries of all-NaN columns are written.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// ---------------------------------------------------------------------------
// Payload: []Series <-> bytes.

// EncodePayload serializes series (docs/PERSISTENCE.md §2.2) into a
// fresh buffer: a series count, then per series its measurement,
// sorted tags, and blocks — each block its summary followed by the two
// encoded columns. Content-identical inputs produce identical bytes.
func EncodePayload(series []Series) []byte {
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(len(series)))
	for _, s := range series {
		dst = AppendSeries(dst, s)
	}
	return dst
}

// AppendSeries appends the payload encoding of one series entry —
// measurement, sorted tags, blocks — to dst and returns the extended
// slice. It is the per-entry half of EncodePayload, exported so the
// append-extend snapshot path can grow an existing payload's entries
// region without re-encoding the entries already on disk
// (docs/REPLICATION.md §8).
func AppendSeries(dst []byte, s Series) []byte {
	dst = appendString(dst, s.Measurement)
	keys := make([]string, 0, len(s.Tags))
	for k := range s.Tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, s.Tags[k])
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Blocks)))
	for _, b := range s.Blocks {
		dst = binary.AppendVarint(dst, b.MinT)
		dst = binary.AppendVarint(dst, b.MaxT)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.Min))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.Max))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.Sum))
		dst = binary.AppendUvarint(dst, uint64(b.Count))
		dst = binary.AppendUvarint(dst, uint64(len(b.Times)))
		dst = append(dst, b.Times...)
		dst = binary.AppendUvarint(dst, uint64(len(b.Values)))
		dst = append(dst, b.Values...)
	}
	return dst
}

// PayloadHead parses just a payload's leading series count and reports
// it together with the byte length of its uvarint encoding — the split
// between a payload's head and its entries region. The append-extend
// delta path (docs/REPLICATION.md §8) uses it to carry an existing
// payload's entries region into a successor payload whose head may
// encode a different count (and hence occupy a different byte length).
func PayloadHead(data []byte) (count int, headLen int, err error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad series count", ErrCorrupt)
	}
	return int(v), n, nil
}

// DecodePayload parses a payload back into series whose blocks alias
// data. It validates structure only — lengths, counts, string bounds —
// and leaves point-level decoding to Block.Decode, so callers that
// merely reshuffle blocks (compaction, retention) never pay for a full
// decode.
func DecodePayload(data []byte) ([]Series, error) {
	d := payloadReader{buf: data}
	n, err := d.uvarint("series count")
	if err != nil {
		return nil, err
	}
	out := make([]Series, 0, allocHint(int(n)))
	for i := uint64(0); i < n; i++ {
		var s Series
		if s.Measurement, err = d.string("measurement"); err != nil {
			return nil, err
		}
		tags, err := d.uvarint("tag count")
		if err != nil {
			return nil, err
		}
		s.Tags = make(map[string]string, allocHint(int(tags)))
		for t := uint64(0); t < tags; t++ {
			k, err := d.string("tag key")
			if err != nil {
				return nil, err
			}
			v, err := d.string("tag value")
			if err != nil {
				return nil, err
			}
			s.Tags[k] = v
		}
		blocks, err := d.uvarint("block count")
		if err != nil {
			return nil, err
		}
		s.Blocks = make([]Block, 0, allocHint(int(blocks)))
		for bi := uint64(0); bi < blocks; bi++ {
			var b Block
			if b.MinT, err = d.varint("block minT"); err != nil {
				return nil, err
			}
			if b.MaxT, err = d.varint("block maxT"); err != nil {
				return nil, err
			}
			minBits, err := d.fixed64("block min")
			if err != nil {
				return nil, err
			}
			maxBits, err := d.fixed64("block max")
			if err != nil {
				return nil, err
			}
			sumBits, err := d.fixed64("block sum")
			if err != nil {
				return nil, err
			}
			b.Min, b.Max, b.Sum = math.Float64frombits(minBits), math.Float64frombits(maxBits), math.Float64frombits(sumBits)
			count, err := d.uvarint("block count")
			if err != nil {
				return nil, err
			}
			if count == 0 || count > MaxBlockPoints {
				return nil, fmt.Errorf("%w: block holds %d points, want 1..%d", ErrCorrupt, count, MaxBlockPoints)
			}
			b.Count = int(count)
			if b.Times, err = d.bytes("time column"); err != nil {
				return nil, err
			}
			if b.Values, err = d.bytes("value column"); err != nil {
				return nil, err
			}
			s.Blocks = append(s.Blocks, b)
		}
		out = append(out, s)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf))
	}
	return out, nil
}

// appendString appends a uvarint length prefix and the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// allocHint caps pre-allocation driven by untrusted counts: grow-by-
// append from a bounded hint instead of trusting a corrupt count to
// size a huge slice up front.
func allocHint(n int) int {
	const cap = 4096
	if n < 0 {
		return 0
	}
	if n > cap {
		return cap
	}
	return n
}

// payloadReader is a bounds-checked cursor over payload bytes.
type payloadReader struct{ buf []byte }

func (d *payloadReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad %s", ErrCorrupt, what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *payloadReader) varint(what string) (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad %s", ErrCorrupt, what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *payloadReader) fixed64(what string) (uint64, error) {
	if len(d.buf) < 8 {
		return 0, fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *payloadReader) string(what string) (string, error) {
	b, err := d.lengthPrefixed(what)
	return string(b), err
}

func (d *payloadReader) bytes(what string) ([]byte, error) {
	return d.lengthPrefixed(what)
}

func (d *payloadReader) lengthPrefixed(what string) ([]byte, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: %s of %d bytes exceeds remaining %d", ErrCorrupt, what, n, len(d.buf))
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

// ---------------------------------------------------------------------------
// Bit-level IO.

// bitWriter packs bits most-significant first through a 64-bit
// accumulator: acc holds the n pending bits right-aligned (n < 64) and
// is flushed to buf a big-endian word at a time, so the bytes are
// exactly those of writing bit by bit.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

// writeBits appends the low n bits of v (n <= 64), high bit first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.n
	if n < free {
		w.acc = w.acc<<n | v
		w.n += n
		return
	}
	// v's top free bits complete the word; the rest (< 64) stay pending.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.n = rest
}

// finish pads the final partial byte with zero bits and returns the
// buffer.
func (w *bitWriter) finish() []byte {
	if w.n > 0 {
		var word [8]byte
		binary.BigEndian.PutUint64(word[:], w.acc<<(64-w.n))
		w.buf = append(w.buf, word[:(w.n+7)/8]...)
		w.acc, w.n = 0, 0
	}
	return w.buf
}

// bitReader consumes bits most-significant first through a 64-bit
// accumulator: acc holds the n unread bits of the current word
// left-aligned, buf the bytes not yet loaded. Running out of input is
// found only when a refill comes up short, and reported (never a
// panic) as ok=false.
type bitReader struct {
	buf []byte
	acc uint64
	n   uint
}

// readBits returns the next n bits (n <= 64) right-aligned, or
// ok=false when fewer than n remain.
func (r *bitReader) readBits(n uint) (v uint64, ok bool) {
	if n <= r.n {
		v = r.acc >> (64 - n)
		r.acc <<= n
		r.n -= n
		return v, true
	}
	return r.readAcrossRefill(n)
}

// readAcrossRefill is readBits' slow path: drain the accumulator, load
// the next word, and take the bits still owed from it.
func (r *bitReader) readAcrossRefill(n uint) (uint64, bool) {
	v := r.acc >> (64 - r.n)
	need := n - r.n
	if len(r.buf) >= 8 {
		r.acc, r.n = binary.BigEndian.Uint64(r.buf), 64
		r.buf = r.buf[8:]
	} else {
		// Final partial word.
		r.acc, r.n = 0, 8*uint(len(r.buf))
		for i, b := range r.buf {
			r.acc |= uint64(b) << (56 - 8*uint(i))
		}
		r.buf = nil
		if need > r.n {
			return 0, false
		}
	}
	v = v<<need | r.acc>>(64-need)
	r.acc <<= need
	r.n -= need
	return v, true
}

// remaining reports the unread bits left in the stream.
func (r *bitReader) remaining() uint {
	return r.n + 8*uint(len(r.buf))
}
