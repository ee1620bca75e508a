package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The sandbox's processors change speed under the benchmark: with no
// steal time reported and the same CPU seconds consumed, the same closed
// loop completes a third fewer requests for minutes at a time, then
// recovers (README.md, Bounds). No statistic taken inside a run removes
// that, so every run measures the machine beside the program: a fixed
// reference loop — number formatting, hashing, a sort and map updates,
// nothing of the repository's — runs for a quarter of a second on every
// core before and after each timed slice, and the throughput and set-up
// figures are reported at the reference machine's speed, refNominal
// units a second. The loop is the benchmark's own, so a change to the
// program cannot move it, and it allocates nothing, so the program's
// heap cannot either.
const (
	// refNominal is what the loop scored, on both cores together, on the
	// sandbox this was written on in its fast state. Only ratios of
	// reported figures mean anything across machines; the constant puts
	// them at the magnitude a stopwatch would have shown there.
	refNominal = 60000.0
	refProbe   = 250 * time.Millisecond
)

// refState is one goroutine's private input to the reference loop.
type refState struct {
	vals    []float64
	scratch []float64
	buf     []byte
	counts  map[string]int
	keys    []string
}

func newRefState() *refState {
	c := &refState{counts: map[string]int{}, buf: make([]byte, 0, 8192)}
	for i := 0; i < 288; i++ { // one day of five-minute samples
		c.vals = append(c.vals, float64((i*7919)%1000)/10)
	}
	c.scratch = make([]float64, len(c.vals))
	for i := 0; i < 64; i++ {
		c.keys = append(c.keys, fmt.Sprintf("key-%d", i))
		c.counts[c.keys[i]] = i
	}
	return c
}

// unit is one unit of reference work: render a day of samples as text,
// hash the text, sort the values, bump 64 map entries.
func (c *refState) unit() uint64 {
	c.buf = c.buf[:0]
	for i, v := range c.vals {
		c.buf = strconv.AppendFloat(c.buf, v, 'g', -1, 64)
		c.buf = append(c.buf, ',')
		c.buf = strconv.AppendInt(c.buf, int64(1456790400+300*i), 10)
	}
	h := uint64(14695981039346656037)
	for _, b := range c.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	copy(c.scratch, c.vals)
	sort.Float64s(c.scratch)
	for i, k := range c.keys {
		c.counts[k] += i
	}
	return h + uint64(c.scratch[0])
}

// speedMeter collects the reference loop's scores over a stretch of a
// run.
type speedMeter struct {
	states  []*refState
	samples []float64
	last    float64 // the latest score and when its probe ended
	lastAt  time.Time
}

func newSpeedMeter() *speedMeter {
	m := &speedMeter{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		m.states = append(m.states, newRefState())
	}
	return m
}

// probe runs the reference loop on every core for refProbe and records
// and returns its score, units a second.
func (m *speedMeter) probe() float64 {
	counts := make([]int, len(m.states))
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range m.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink uint64
			for time.Since(start) < refProbe {
				for i := 0; i < 8; i++ {
					sink += c.unit()
				}
				counts[g] += 8
			}
			_ = sink
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	score := float64(total) / time.Since(start).Seconds()
	m.samples = append(m.samples, score)
	m.last, m.lastAt = score, time.Now()
	return score
}

// span runs fn between two probes and returns how long fn took and the
// machine's speed across it as a share of the reference machine's: the
// mean of the two scores over refNominal. A rate is reported divided by
// that index, a duration multiplied. The probe that closes one span
// opens the next when they follow at once.
func (m *speedMeter) span(fn func()) (wall time.Duration, index float64) {
	before := m.last
	if m.lastAt.IsZero() || time.Since(m.lastAt) > refProbe/5 {
		before = m.probe()
	}
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	return wall, (before + m.probe()) / 2 / refNominal
}

// index is the machine's speed over every probe so far: the median
// score over refNominal.
func (m *speedMeter) index() float64 { return median(m.samples) / refNominal }
