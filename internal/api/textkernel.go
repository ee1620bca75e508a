package api

// The text kernel under encode.go's two point-array bodies: timestamps
// rendered as runs within one UTC day, and (below) shortest float
// digits. Both write exactly what encoding/json writes; the per-point
// references they replaced — Time.AppendFormat and strconv.AppendFloat
// — are the fall-through for what the kernel does not cover and the
// oracle in textkernel_test.go and fuzz_test.go (docs/SERVING.md §7).

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"time"
)

const (
	secondsPerDay = 86400
	// year10000 is 10000-01-01T00:00:00Z, the first instant
	// time.Time's MarshalJSON refuses.
	year10000 = 253402300800
)

// timeRun renders the instants of a time column. A column is ascending
// and its neighbours usually share their UTC day, so the date is
// formatted once per day and only the clock digits are computed for
// each instant.
type timeRun struct {
	day   int64    // midnight of the day date holds, in Unix seconds
	valid bool     // date holds a day
	date  [12]byte // `"2006-01-02T`
}

// append appends the instant sec+nsec as time.Time's MarshalJSON writes
// a UTC time. Whole seconds from the epoch to the end of year 9999 are
// rendered here; sub-second instants (whose trailing-zero trimming is
// AppendFormat's business), negative Unix times and the years
// MarshalJSON refuses go through appendTime.
func (r *timeRun) append(dst []byte, sec, nsec int64) ([]byte, error) {
	if nsec != 0 || sec < 0 || sec >= year10000 {
		return appendTime(dst, time.Unix(sec, nsec).UTC())
	}
	clock := uint64(sec - r.day) // wraps past secondsPerDay for an earlier day
	if !r.valid || clock >= secondsPerDay {
		clock = uint64(sec % secondsPerDay)
		r.day, r.valid = sec-int64(clock), true
		time.Unix(r.day, 0).UTC().AppendFormat(r.date[:0], `"2006-01-02T`) // twelve bytes: fills date in place
	}
	ss := clock
	mm := ss / 60
	hh := mm / 60
	// "15:04:05" as one word: the three two-digit numbers three bytes
	// apart, each split into tens (x·103>>10 is x/10 below 100) and
	// ones in adjacent bytes, over the ASCII of "00:00:00".
	x := hh | (mm-60*hh)<<24 | (ss-60*mm)<<48
	tens := (x * 103 >> 10) & 0x00000f00000f00000f
	word := tens | (x-10*tens)<<8 | 0x30303a30303a3030

	dst = slices.Grow(dst, 22)
	n := len(dst)
	entry := dst[n : n+22]
	copy(entry[:12], r.date[:])
	binary.LittleEndian.PutUint64(entry[12:], word)
	entry[20], entry[21] = 'Z', '"'
	return dst[:n+22], nil
}

// Shortest float digits: Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020), float64 only. A finite non-zero double is
// c·2^q; its rounding interval, scaled by a power of ten taken from a
// 128-bit table so that the shortest decimal inside it has at most 17
// digits, is examined in integer arithmetic — three 64×128-bit
// products — and the decimal closest to the double among the shortest
// is returned. strconv produces the same digits; it gets there through
// a path generic over format, precision and bit size that costs three
// to four times as much a value.

const (
	pow10Min = -292 // smallest and largest table exponent a double reaches
	pow10Max = 324
)

// pow10Tab[k-pow10Min] is 10^k as a 128-bit significand {hi, lo}:
// ceil(10^k · 2^(127-e)) with e = floor(log2 10^k), so the top bit is
// set and entries that fit exactly (k in [0,55]) are exact.
var pow10Tab = computePow10Tab()

// computePow10Tab builds the table with math/big at package init
// (617 entries, 10 KB, about half a millisecond).
func computePow10Tab() (tab [pow10Max - pow10Min + 1][2]uint64) {
	one, ten := big.NewInt(1), big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	num, den, g, rem, lo := new(big.Int), new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for k := pow10Min; k <= pow10Max; k++ {
		// g = ceil(10^k · 2^shift), powers with a negative exponent
		// moved to the denominator.
		shift := 127 - floorLog2Pow10(k)
		num.Exp(ten, big.NewInt(int64(max(k, 0))), nil)
		den.Exp(ten, big.NewInt(int64(max(-k, 0))), nil)
		num.Lsh(num, uint(max(shift, 0)))
		den.Lsh(den, uint(max(-shift, 0)))
		if g.QuoRem(num, den, rem); rem.Sign() != 0 {
			g.Add(g, one)
		}
		tab[k-pow10Min] = [2]uint64{lo.Rsh(g, 64).Uint64(), lo.And(g, mask).Uint64()}
	}
	return tab
}

// floorLog2Pow10 is floor(log2 10^e) for |e| <= 1233.
func floorLog2Pow10(e int) int { return (e * 1741647) >> 19 }

// roundToOdd is the 64-bit integer part of cp·g/2^128 with its lowest
// bit set when any lower bit of the product is: enough to decide every
// comparison Schubfach makes against the exact product.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xHi, _ := bits.Mul64(cp, g[1])
	yHi, yLo := bits.Mul64(cp, g[0])
	yLo, carry := bits.Add64(yLo, xHi, 0)
	yHi += carry
	if yLo > 1 {
		yHi |= 1
	}
	return yHi
}

// shortestDecimal returns the shortest decimal d·10^k that reads back
// as the finite, non-zero double with fraction field frac and biased
// exponent field exp, the closest to it if several are as short. d has
// at most 17 digits and may end in zeros.
func shortestDecimal(frac uint64, exp int) (d uint64, k int) {
	c, q := frac, 1-1075
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
	}
	// The interval's bounds belong to it when c is even (round to
	// even); the lower bound is half as far when c is a power of two.
	var outside, closer uint64
	if c&1 != 0 {
		outside = 1
	}
	k = (q * 1262611) >> 22 // floor(log10 2^q)
	if frac == 0 && exp > 1 {
		closer = 1
		k = (q*1262611 - 524031) >> 22 // floor(log10 3/4·2^q)
	}
	h := uint(q + floorLog2Pow10(-k) + 1) // in [1,4]
	g := &pow10Tab[-k-pow10Min]
	vbl := roundToOdd(g, (4*c-2+closer)<<h)
	vb := roundToOdd(g, (4*c)<<h)
	vbr := roundToOdd(g, (4*c+2)<<h)
	lower, upper := vbl+outside, vbr-outside

	// vb is 4·v·10^-k. A multiple of ten inside the interval is one
	// digit shorter; at most one of the two around v is.
	s := vb / 4
	if s >= 10 {
		sp := s / 10
		down, up := lower <= 40*sp, 40*sp+40 <= upper
		if down != up {
			if up {
				sp++
			}
			return sp, k + 1
		}
	}
	down, up := lower <= 4*s, 4*s+4 <= upper
	if down != up {
		if up {
			s++
		}
		return s, k
	}
	// Both or neither: the one closer to v, ties to even.
	if mid := 4*s + 2; vb > mid || (vb == mid && s&1 != 0) {
		s++
	}
	return s, k
}

// digits8 is v, below 10^8, as eight ASCII digits, the first in the
// lowest byte. The number is split by multiplications into two lanes
// of four digits, four of two and eight of one, every lane at once:
// x·10486>>20 is x/100 below 10^4 and x·103>>10 is x/10 below 100.
func digits8(v uint32) uint64 {
	x := uint64(v/10000) | uint64(v%10000)<<32
	hundreds := (x * 10486 >> 20) & 0x0000007f0000007f
	x = hundreds | (x-100*hundreds)<<16
	tens := (x * 103 >> 10) & 0x000f000f000f000f
	return tens | (x-10*tens)<<8 | 0x3030303030303030
}

// pow10u64 is 10^i.
var pow10u64 = [18]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// appendShortest appends the finite f as strconv.AppendFloat writes it
// with precision -1: plain decimal when the decimal exponent is in
// [fixedFrom, fixedTo), else d.ddde±x with the exponent padded to two
// digits when padExp is set.
func appendShortest(dst []byte, f float64, fixedFrom, fixedTo int, padExp bool) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		dst = append(dst, '-')
		u &^= 1 << 63
	}
	if u == 0 {
		return append(dst, '0')
	}
	var d uint64
	var k int
	if abs := math.Float64frombits(u); abs < 1<<53 && float64(int64(abs)) == abs {
		d = uint64(abs) // an integer below 2^53 is its own shortest decimal
	} else {
		d, k = shortestDecimal(u&(1<<52-1), int(u>>52))
	}
	for d%10 == 0 {
		d /= 10
		k++
	}
	nd := bits.Len64(d) * 1233 >> 12 // digits of d: floor(log10 2^len), then one more if d reaches it
	if d >= pow10u64[nd] {
		nd++
	}
	point := nd + k // digits before the decimal point
	e := point - 1  // decimal exponent of the first digit

	// d scaled to all seventeen digit places, so no leading zero has to
	// be skipped: one digit and two words of eight.
	d *= pow10u64[17-nd]
	upper := d / 1e8 // nine digits
	put := func(places []byte) {
		places[0] = '0' + byte(upper/1e8)
		binary.LittleEndian.PutUint64(places[1:], digits8(uint32(upper%1e8)))
		binary.LittleEndian.PutUint64(places[9:], digits8(uint32(d-upper*1e8)))
	}

	if e >= fixedFrom && e < fixedTo && 0 < point && point <= 17 {
		// Digits on both sides of the point, or an integer: the places
		// go straight into dst, as words — digits stored a byte at a
		// time and then copied stall on the copy's wider loads.
		dst = slices.Grow(dst, 18)
		n := len(dst)
		if point >= nd {
			put(dst[n : n+17])
			return dst[:n+point]
		}
		places := dst[n : n+18] // one to the right, then the integer digits moved back
		put(places[1:])
		for i := 0; i < point; i++ {
			places[i] = places[i+1]
		}
		places[point] = '.'
		return dst[:n+nd+1]
	}

	var places [17]byte
	put(places[:])
	digits := places[:nd]
	if e < fixedFrom || e >= fixedTo {
		dst = append(dst, digits[0])
		if nd > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		dst = append(dst, 'e', '+')
		if e < 0 {
			dst[len(dst)-1] = '-'
			e = -e
		}
		if e >= 100 {
			dst = append(dst, '0'+byte(e/100))
			e %= 100
			padExp = true
		}
		if e >= 10 || padExp {
			dst = append(dst, '0'+byte(e/10))
		}
		return append(dst, '0'+byte(e%10))
	}
	if point <= 0 {
		dst = append(dst, '0', '.')
		for ; point < 0; point++ {
			dst = append(dst, '0')
		}
		return append(dst, digits...)
	}
	dst = append(dst, digits...) // an integer of more than seventeen digits
	for ; point > nd; point-- {
		dst = append(dst, '0')
	}
	return dst
}
