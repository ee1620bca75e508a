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
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 31 {
			lead = 31 // cap so the 5-bit-friendly window math of the paper holds; 6 bits stored
		}
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if prevLead != 255 && lead >= prevLead && 64-prevLead-prevSig <= trail {
			// Fits the previous window: control '0', reuse it.
			w.writeBit(0)
			w.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		// New window: control '1', 6 bits of leading zeros, 6 bits of
		// significant-bit count minus one (1..64 -> 0..63).
		w.writeBit(1)
		w.writeBits(uint64(lead), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return w.finish()
}

// DecodeValues decodes exactly count values from src. The bitstream
// must cover all of src except up to seven padding bits in the final
// byte; anything else is corruption.
func DecodeValues(src []byte, count int) ([]float64, error) {
	if count == 0 {
		if len(src) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after empty value column", ErrCorrupt, len(src))
		}
		return nil, nil
	}
	r := bitReader{buf: src}
	out := make([]float64, 0, allocHint(count))
	first, err := r.readBits(64)
	if err != nil {
		return nil, err
	}
	prev := first
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
	times, err = DecodeTimes(b.Times, b.Count)
	if err != nil {
		return nil, nil, err
	}
	values, err = DecodeValues(b.Values, b.Count)
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

// bitWriter accumulates bits most-significant first into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // bits used in cur
}

func (w *bitWriter) writeBit(b byte) {
	w.cur = w.cur<<1 | (b & 1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	for i := n; i > 0; i-- {
		w.writeBit(byte(v >> (i - 1)))
	}
}

// finish pads the final partial byte with zero bits and returns the
// buffer.
func (w *bitWriter) finish() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// bitReader consumes bits most-significant first, erroring (never
// panicking) on overrun.
type bitReader struct {
	buf []byte
	pos uint // bit position
}

func (r *bitReader) readBit() (byte, error) {
	if r.pos >= uint(len(r.buf))*8 {
		return 0, fmt.Errorf("%w: value bitstream ended early", ErrCorrupt)
	}
	b := r.buf[r.pos/8] >> (7 - r.pos%8) & 1
	r.pos++
	return b, nil
}

func (r *bitReader) readBits(n uint) (uint64, error) {
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

// remaining reports the unread bits left in the stream.
func (r *bitReader) remaining() uint {
	total := uint(len(r.buf)) * 8
	if r.pos >= total {
		return 0
	}
	return total - r.pos
}
