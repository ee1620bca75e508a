package tsdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file exports the store as a subset of the InfluxDB line
// protocol — the wire format the deployed system's probing modules used
// to ship measurements into the backend (§3), and the public-release
// format of tslpd -lineout. Shape:
//
//	measurement[,tag=value...] value=<float> <unix-nanoseconds>
//
// One field named "value", no escaping of spaces/commas inside names (the
// system's identifiers never contain them).

// FormatLine renders one point in line protocol.
func FormatLine(measurement string, tags map[string]string, t time.Time, v float64) string {
	var b strings.Builder
	b.WriteString(measurement)
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, tags[k])
	}
	fmt.Fprintf(&b, " value=%s %d", strconv.FormatFloat(v, 'g', -1, 64), t.UnixNano())
	return b.String()
}

// ExportLines writes every stored point as line protocol, series in
// canonical key order.
func (db *DB) ExportLines(w io.Writer) (int, error) {
	unlock := db.lockAll(false)
	defer unlock()
	// The export walks the columns; a lazily open store is materialized
	// first (docs/PERSISTENCE.md §9).
	db.materializeAllLocked()
	bw := bufio.NewWriter(w)
	n := 0
	for _, k := range db.sortedKeysLocked() {
		s := db.shards[shardFor(k)].series[k]
		for i, t := range s.times {
			if _, err := bw.WriteString(FormatLine(s.measurement, s.tags, time.Unix(0, t).UTC(), s.values[i]) + "\n"); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, bw.Flush()
}
