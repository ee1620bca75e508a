package api

// Fuzz targets for the text kernel (textkernel.go), differential
// against strconv and encoding/json. `go test` runs the seeds; CI's
// fuzz-smoke job runs each target for ten seconds.

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzAppendFloat: any finite bit pattern renders as strconv renders
// it, in the raw value column's form and the aggregate columns' %g.
func FuzzAppendFloat(f *testing.F) {
	for _, edge := range floatEdges() {
		f.Add(math.Float64bits(edge))
	}
	scratch := make([]byte, 128)
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkFloat(t, v, scratch)
		checkFloat(t, -v, scratch)
	})
}

// FuzzAppendTimes: an ascending column — a start in Unix seconds, then
// one step per three bytes of steps: a unit from a nanosecond to a year
// and a 16-bit count — renders through both documents as encoding/json
// renders it, or is refused with its error (checkTimeColumns). The
// units let the fuzzer hold a run inside one day, roll it over days and
// years, and leave whole seconds.
func FuzzAppendTimes(f *testing.F) {
	units := [...]int64{1, 1e3, 1e6, 1e9, 60e9, 300e9, 3600e9, 86400e9, 365 * 86400e9}
	for i, edge := range timeEdges {
		f.Add(edge-600, []byte{5, 0, 1, 5, 0, 1, 5, 0, 1, 3, 0, 1}, uint8(i)) // five-minute steps across it, then a second
		f.Add(edge, []byte{0, 0, 7, 7, 0, 1, 8, 0, 1, 1, 3, 0}, uint8(i))     // sub-second, a day, a year, microseconds
	}
	f.Fuzz(func(t *testing.T, start int64, steps []byte, variant uint8) {
		secs, nsecs := []int64{start}, []int64{0}
		for ; len(steps) >= 3 && len(secs) < 64; steps = steps[3:] {
			step := units[int(steps[0])%len(units)] * int64(binary.BigEndian.Uint16(steps[1:]))
			sec := secs[len(secs)-1] + step/1e9
			nsec := nsecs[len(nsecs)-1] + step%1e9
			sec, nsec = sec+nsec/1e9, nsec%1e9
			if sec < secs[len(secs)-1] { // the start was near the end of int64
				break
			}
			secs, nsecs = append(secs, sec), append(nsecs, nsec)
		}
		checkTimeColumns(t, secs, nsecs, variant)
	})
}
