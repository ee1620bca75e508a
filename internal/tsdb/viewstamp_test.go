package tsdb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// viewStampFormula is ViewStamp written with hash/fnv: FNV-64a over the
// epoch, then over the XOR of each matching series' FNV-64a(key,
// version) and the match count, every integer as eight big-endian
// bytes. The inline hash must reproduce it bit for bit, because cached
// bodies and ETags are keyed on the stamp.
func viewStampFormula(db *DB, measurement string, filter map[string]string) uint64 {
	be := func(v uint64) []byte {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (56 - 8*i))
		}
		return b[:]
	}
	h := fnv.New64a()
	h.Write(be(db.Epoch()))
	keys, ok := db.idx.candidates(measurement, filter)
	if !ok {
		return h.Sum64()
	}
	var acc, n uint64
	db.readMatching(keys, measurement, filter, func(k string, s *series) {
		sub := fnv.New64a()
		sub.Write([]byte(k))
		sub.Write(be(s.version))
		acc ^= sub.Sum64()
		n++
	})
	h.Write(be(acc))
	h.Write(be(n))
	return h.Sum64()
}

func TestViewStampMatchesFNVFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := Open()
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	tagVals := func(k string) string { return fmt.Sprintf("%s-%d-é\x00%d", k, rng.Intn(5), rng.Intn(3)) }
	for i := 0; i < 300; i++ {
		tags := map[string]string{"link": tagVals("link"), "side": []string{"far", "near"}[rng.Intn(2)]}
		if rng.Intn(2) == 0 {
			tags["vp"] = tagVals("vp")
		}
		m := []string{"tslp", "loss"}[rng.Intn(2)]
		for j := rng.Intn(4); j >= 0; j-- {
			db.Write(m, tags, base.Add(time.Duration(rng.Intn(1e6))*time.Second), rng.Float64())
		}
	}
	distinct := map[uint64]bool{}
	for i := 0; i < 400; i++ {
		filter := map[string]string{}
		for _, k := range []string{"link", "side", "vp", "absent"} {
			if rng.Intn(3) == 0 {
				filter[k] = tagVals(k)
			}
		}
		if rng.Intn(4) == 0 {
			filter["side"] = "far"
		}
		m := []string{"tslp", "loss", "none"}[rng.Intn(3)]
		if got, want := db.ViewStamp(m, filter), viewStampFormula(db, m, filter); got != want {
			t.Fatalf("ViewStamp(%q, %v) = %#x, formula %#x", m, filter, got, want)
		} else {
			distinct[got] = true
		}
	}
	if len(distinct) < 50 {
		t.Fatalf("only %d distinct stamps: the filters match too little", len(distinct))
	}
}
