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

// This file implements a subset of the InfluxDB line protocol — the wire
// format the deployed system's probing modules used to ship measurements
// into the backend (§3). Supported shape:
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

// ParseLine parses one line-protocol line.
func ParseLine(line string) (measurement string, tags map[string]string, t time.Time, v float64, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 3 {
		return "", nil, time.Time{}, 0, fmt.Errorf("tsdb: line needs 3 sections, got %d: %q", len(fields), line)
	}
	head := strings.Split(fields[0], ",")
	measurement = head[0]
	if measurement == "" {
		return "", nil, time.Time{}, 0, fmt.Errorf("tsdb: empty measurement: %q", line)
	}
	tags = make(map[string]string, len(head)-1)
	for _, kv := range head[1:] {
		i := strings.IndexByte(kv, '=')
		if i <= 0 || i == len(kv)-1 {
			return "", nil, time.Time{}, 0, fmt.Errorf("tsdb: bad tag %q", kv)
		}
		tags[kv[:i]] = kv[i+1:]
	}
	if !strings.HasPrefix(fields[1], "value=") {
		return "", nil, time.Time{}, 0, fmt.Errorf("tsdb: only a single 'value' field is supported: %q", fields[1])
	}
	v, err = strconv.ParseFloat(fields[1][len("value="):], 64)
	if err != nil {
		return "", nil, time.Time{}, 0, fmt.Errorf("tsdb: bad value: %w", err)
	}
	ns, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return "", nil, time.Time{}, 0, fmt.Errorf("tsdb: bad timestamp: %w", err)
	}
	return measurement, tags, time.Unix(0, ns).UTC(), v, nil
}

// WriteLine ingests one line-protocol line into the store.
func (db *DB) WriteLine(line string) error {
	m, tags, t, v, err := ParseLine(line)
	if err != nil {
		return err
	}
	db.Write(m, tags, t, v)
	return nil
}

// IngestLines reads line-protocol text (one point per line, blank lines
// and #-comments skipped) and returns the number of points ingested.
func (db *DB) IngestLines(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := db.WriteLine(line); err != nil {
			return n, fmt.Errorf("line %d: %w", lineNo, err)
		}
		n++
	}
	return n, sc.Err()
}

// ExportLines writes every stored point as line protocol, series in
// canonical key order.
func (db *DB) ExportLines(w io.Writer) (int, error) {
	unlock := db.lockAll(false)
	defer unlock()
	// The export walks the columns; a lazily open store is materialized
	// first so output cannot depend on open mode (docs/PERSISTENCE.md §9).
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
