package blockenc

// Differential fuzz targets and the golden bytes for the column codec
// (docs/PERSISTENCE.md §2.3–§2.4). The reference codec in
// blockenc_test.go is the specification; each target holds the
// production codec to it on arbitrary input: same bytes out of the
// encoder, same values or the same error class out of the decoders,
// never a panic, never an allocation a corrupt count could size.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"testing"
)

// checkErrClass fails unless got and want are both nil or both wrap
// ErrCorrupt.
func checkErrClass(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
	if got != nil && !errors.Is(got, ErrCorrupt) {
		t.Fatalf("%s: error does not wrap ErrCorrupt: %v", what, got)
	}
}

// checkBoundedCap fails when a decoder's result holds more capacity
// than allocHint granted up front plus what appending the points it
// really decoded can grow to.
func checkBoundedCap(t *testing.T, what string, capacity, length, count int) {
	t.Helper()
	if limit := allocHint(count); capacity > limit && capacity > 2*length+8 {
		t.Fatalf("%s: capacity %d for %d decoded of %d claimed points", what, capacity, length, count)
	}
}

// corruptSeeds feeds f one encoded column per test shape plus the
// truncations and byte flips TestDecodeCorruptionSafety sweeps, thinned
// to a handful per column.
func corruptSeeds(f *testing.F, encode func(column) []byte) {
	for _, c := range testColumns() {
		enc := encode(c)
		n := uint32(len(c.times))
		f.Add(enc, n)
		f.Add(enc, n+1)
		f.Add(enc, n-1)
		for _, cut := range []int{0, 1, 7, 8, 9, len(enc) / 2, len(enc) - 1} {
			if cut >= 0 && cut < len(enc) {
				f.Add(enc[:cut], n)
			}
		}
		for _, pos := range []int{0, 8, len(enc) / 3, len(enc) - 1} {
			if pos < len(enc) {
				mut := append([]byte(nil), enc...)
				mut[pos] ^= 0xff
				f.Add(mut, n)
			}
		}
	}
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint32(1<<31-1))
}

// FuzzDecodeValues: on arbitrary bytes and count, DecodeValues and the
// bit-at-a-time reference return the same bit patterns or both fail
// with ErrCorrupt.
func FuzzDecodeValues(f *testing.F) {
	corruptSeeds(f, func(c column) []byte { return AppendValues(nil, c.values) })
	f.Fuzz(func(t *testing.T, data []byte, count uint32) {
		n := int(count >> 1) // keep it a valid int on 32-bit platforms
		got, err := DecodeValues(data, n)
		want, refErr := refDecodeValues(data, n)
		checkErrClass(t, "DecodeValues", err, refErr)
		if !sameFloats(got, want) {
			t.Fatalf("DecodeValues disagrees with the reference on %x count %d", data, n)
		}
		checkBoundedCap(t, "DecodeValues", cap(got), len(got), n)
	})
}

// FuzzDecodeTimes is FuzzDecodeValues for the timestamp column.
func FuzzDecodeTimes(f *testing.F) {
	corruptSeeds(f, func(c column) []byte { return AppendTimes(nil, c.times) })
	f.Fuzz(func(t *testing.T, data []byte, count uint32) {
		n := int(count >> 1)
		got, err := DecodeTimes(data, n)
		want, refErr := refDecodeTimes(data, n)
		checkErrClass(t, "DecodeTimes", err, refErr)
		if !slices.Equal(got, want) {
			t.Fatalf("DecodeTimes disagrees with the reference on %x count %d", data, n)
		}
		checkBoundedCap(t, "DecodeTimes", cap(got), len(got), n)
	})
}

// FuzzValuesRoundTrip reads the input as raw float64 bit patterns —
// NaN payloads, signed zeros, subnormals and all — and requires
// AppendValues to emit exactly the reference writer's bytes (after an
// arbitrary prefix already in dst) and DecodeValues to return the same
// bits.
func FuzzValuesRoundTrip(f *testing.F) {
	for _, c := range testColumns() {
		raw := make([]byte, 0, 8*len(c.values))
		for _, v := range c.values {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		if len(raw) > 8*64 {
			raw = raw[:8*64]
		}
		f.Add(raw)
	}
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001)) // NaN with a payload
	f.Fuzz(func(t *testing.T, raw []byte) {
		vs := make([]float64, len(raw)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		prefix := raw[:len(raw)%8]
		got := AppendValues(append([]byte(nil), prefix...), vs)
		want := refAppendValues(append([]byte(nil), prefix...), vs)
		if string(got) != string(want) {
			t.Fatalf("AppendValues bytes\n got %x\nwant %x", got, want)
		}
		back, err := DecodeValues(got[len(prefix):], len(vs))
		if err != nil {
			t.Fatalf("DecodeValues of own encoding: %v", err)
		}
		if !sameFloats(back, vs) {
			t.Fatal("values did not round-trip bit for bit")
		}
	})
}

// FuzzDecodePayload: the structural parse never panics, fails only
// with ErrCorrupt, and every block it yields decodes — summary checks
// included — exactly as the two-pass reference does.
func FuzzDecodePayload(f *testing.F) {
	data := EncodePayload(payloadFixture()[3:]) // the small shapes; the sweep test covers the rest
	f.Add(data)
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	for _, pos := range []int{0, 1, 5, len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		series, err := DecodePayload(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodePayload error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		for _, s := range series {
			for _, b := range s.Blocks {
				ts, vs, err := b.Decode()
				wts, wvs, refErr := refBlockDecode(b)
				checkErrClass(t, "Block.Decode", err, refErr)
				if !slices.Equal(ts, wts) || !sameFloats(vs, wvs) {
					t.Fatal("Block.Decode disagrees with the reference")
				}
			}
		}
	})
}

// goldenColumn is a fixed 1,024-point block's worth of data touching
// every encoder branch: noisy mantissas (new windows), small steps
// (window reuse), repeats (the one-bit case), a plateau, signed zeros,
// a NaN and an infinity; timestamps at a jittered five-minute cadence
// with a duplicate and a gap.
func goldenColumn() ([]int64, []float64) {
	times := make([]int64, MaxBlockPoints)
	values := make([]float64, MaxBlockPoints)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	at := int64(1456790400e9) // 2016-03-01T00:00:00Z
	for i := range times {
		switch {
		case i%97 == 5:
			// duplicate timestamp
		case i%211 == 7:
			at += 3600e9
		default:
			at += 300e9 + int64(next()%1e6) - 5e5
		}
		times[i] = at
		switch {
		case i%5 == 1:
			values[i] = values[i-1]
		case i%5 == 2:
			values[i] = values[i-1] + 0.25
		case i >= 600 && i < 640:
			values[i] = 35
		default:
			values[i] = 12 + float64(next()>>11)/(1<<53)
		}
	}
	values[300], values[301] = 0, math.Copysign(0, -1)
	values[700] = math.NaN()
	values[900] = math.Inf(1)
	return times, values
}

// TestGoldenEncodedBytes pins the encoded form of goldenColumn — the
// two columns and the payload entry around them — so the on-disk
// format cannot drift silently: segment CRCs, manifest checksums and
// the delta-splice prefix rule (docs/REPLICATION.md §8) all assume
// today's writer emits yesterday's bytes. The digests were taken from
// the bit-at-a-time writer before the word-wise rewrite.
func TestGoldenEncodedBytes(t *testing.T) {
	times, values := goldenColumn()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	blocks := BuildBlocks(times, values)
	if len(blocks) != 1 {
		t.Fatalf("golden column built %d blocks, want 1", len(blocks))
	}
	payload := EncodePayload([]Series{{
		Measurement: "tslp",
		Tags:        map[string]string{"side": "far", "link": "L00"},
		Blocks:      blocks,
	}})
	for _, g := range []struct {
		name string
		data []byte
		size int
		want string
	}{
		{"time column", blocks[0].Times, goldenTimesLen, goldenTimesSHA256},
		{"value column", blocks[0].Values, goldenValuesLen, goldenValuesSHA256},
		{"payload", payload, goldenPayloadLen, goldenPayloadSHA256},
	} {
		if len(g.data) != g.size || sum(g.data) != g.want {
			t.Errorf("%s: %d bytes sha256 %s, want %d bytes %s", g.name, len(g.data), sum(g.data), g.size, g.want)
		}
	}
	if ts, vs, err := blocks[0].Decode(); err != nil || !slices.Equal(ts, times) || !sameFloats(vs, values) {
		t.Errorf("golden block did not decode back to its columns (err=%v)", err)
	}
}

const (
	goldenTimesLen      = 3173
	goldenTimesSHA256   = "5d56983bf8220d4f314b0b4512a7763d25e538932acc5a97a2a066dd432fdf2c"
	goldenValuesLen     = 5661
	goldenValuesSHA256  = "41b3cf6c0ae787e2780b5985fd57927dbfec1e8e8cf74d529117ee0dc3c8a078"
	goldenPayloadLen    = 8908
	goldenPayloadSHA256 = "e5362636d78ed45ed08733f0e8ed74e05c657e42d9858ebaa0d115eed7e246d0"
)
