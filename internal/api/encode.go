package api

// Append-based encoder for the two point-array bodies of /api/v1/query
// (docs/SERVING.md §7). Raw pages and aggregate pages are tens of
// kilobytes of timestamps and floats; they are written straight from
// the store's columns into a pooled buffer instead of being copied into
// QueryResponse/AggregateResponse values and walked by reflection. The
// contract is the bytes: exactly what encoding/json's Encoder produces
// for those documented types — field order, omitempty columns, float
// forms, HTML-escaped strings, sorted tag keys, the trailing newline —
// and the same error where it refuses a value. encode_test.go holds the
// two to each other on randomized inputs; that test is the
// specification. Every small document stays on encoding/json.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"time"

	"interdomain/internal/tsdb"
)

// appendBody runs an append-style encoder over a pooled buffer and
// returns the one exact-size copy the read cache keeps.
func appendBody(encode func(dst []byte) ([]byte, error)) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	b, err := encode(buf.AvailableBuffer())
	if err != nil {
		return nil, err
	}
	buf.Write(b) // the pooled buffer keeps whatever growth the encoder needed
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// appendQueryBody appends the QueryResponse document for one page of
// views, newline included.
func appendQueryBody(dst []byte, page []tsdb.SeriesView, total, limit, offset int) ([]byte, error) {
	var err error
	var run timeRun
	// The previous series' time column and where its rendering sits in
	// dst. Far and near of one link are probed in the same round and
	// share every timestamp unless a probe was lost; an equal column is
	// appended as a copy of those bytes.
	var prevTimes []int64
	var prevFrom, prevTo int
	dst = append(dst, `{"series":[`...)
	for i, v := range page {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"tags":`...)
		dst = appendTags(dst, v.Tags)
		dst = append(dst, `,"times":[`...)
		if i > 0 && slices.Equal(v.Times, prevTimes) {
			dst = append(dst, dst[prevFrom:prevTo]...)
		} else {
			from := len(dst)
			for j, ns := range v.Times {
				if j > 0 {
					dst = append(dst, ',')
				}
				if dst, err = run.append(dst, ns/1e9, ns%1e9); err != nil {
					return dst, err
				}
			}
			prevTimes, prevFrom, prevTo = v.Times, from, len(dst)
		}
		dst = append(dst, `],"values":`...)
		if v.Values == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, f := range v.Values {
				if j > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendFloat(dst, f); err != nil {
					return dst, err
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	return appendPageMeta(dst, total, limit, offset, len(page)), nil
}

// appendAggregateBody appends the AggregateResponse document for one
// page of aggregated series, newline included. Only the columns fns
// requests are written, and — as omitempty has it — none for a series
// without buckets.
func appendAggregateBody(dst []byte, page []tsdb.AggSeries, fns tsdb.AggFns, names []string, step string, total, limit, offset int) ([]byte, error) {
	var err error
	var run timeRun
	dst = append(dst, `{"series":[`...)
	for i, as := range page {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"tags":`...)
		dst = appendTags(dst, as.Tags)
		dst = append(dst, `,"starts":[`...)
		for j := range as.Buckets {
			if j > 0 {
				dst = append(dst, ',')
			}
			start := &as.Buckets[j].Start
			if dst, err = run.append(dst, start.Unix(), int64(start.Nanosecond())); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
		// The wire names of aggFnNames are also the members' names, in
		// the struct's field order.
		for _, f := range aggFnNames {
			if fns&f.bit == 0 || len(as.Buckets) == 0 {
				continue
			}
			dst = append(dst, `,"`...)
			dst = append(dst, f.name...)
			dst = append(dst, `":[`...)
			for j := range as.Buckets {
				if j > 0 {
					dst = append(dst, ',')
				}
				switch b := &as.Buckets[j]; f.bit {
				case tsdb.AggCount:
					dst = strconv.AppendInt(dst, int64(b.Count), 10)
				case tsdb.AggMin:
					dst = appendNullFloat(dst, b.Min)
				case tsdb.AggMax:
					dst = appendNullFloat(dst, b.Max)
				case tsdb.AggSum:
					dst = appendNullFloat(dst, b.Sum)
				case tsdb.AggMean:
					dst = appendNullFloat(dst, b.Mean)
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"agg":`...)
	if names == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"step":`...)
	dst = appendString(dst, step)
	return appendPageMeta(dst, total, limit, offset, len(page)), nil
}

// appendPageMeta closes either document with the pagination members
// they share and the Encoder's trailing newline. The caller has
// written everything up to, not including, the comma before "total".
func appendPageMeta(dst []byte, total, limit, offset, served int) []byte {
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	dst = append(dst, `,"limit":`...)
	dst = strconv.AppendInt(dst, int64(limit), 10)
	dst = append(dst, `,"offset":`...)
	dst = strconv.AppendInt(dst, int64(offset), 10)
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, offset+served < total)
	return append(dst, "}\n"...)
}

// appendTags appends a tag map as encoding/json writes a
// map[string]string: null when nil, keys in byte order.
func appendTags(dst []byte, tags map[string]string) []byte {
	if tags == nil {
		return append(dst, "null"...)
	}
	var few [8]string
	keys := few[:0]
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		dst = appendString(dst, tags[k])
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string. Strings made only of bytes
// encoding/json copies through under HTML escaping — every tag the
// probers write — are quoted in place; anything else (quotes,
// backslashes, <>&, control bytes, non-ASCII and with it U+2028/2029
// and invalid UTF-8) goes through json.Marshal itself, so the escaping
// rules live in one place.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendTime appends a UTC instant as time.Time's MarshalJSON writes
// it, quoted RFC 3339 with nanoseconds trimmed, and refuses what it
// refuses: a year outside [0,9999], which shows as a fifth character
// other than the dash that ends a four-digit year.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, '"')
	year := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[year+4] != '-' {
		_, err := t.MarshalJSON()
		return dst, &json.MarshalerError{Type: reflect.TypeOf(t), Err: err}
	}
	return append(dst, '"'), nil
}

// appendFloat appends f in encoding/json's float64 form: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with a
// one-digit negative exponent unpadded (e-09 becomes e-9), and NaN and
// the infinities refused with its error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return appendShortest(dst, f, -6, 21, false), nil
}

// appendNullFloat appends an aggregate bucket value in nullFloat's
// form: %g, or null for the values JSON has no number for.
func appendNullFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	return appendShortest(dst, f, -4, 6, true)
}
