package tsdb

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestExportLinesGolden pins ExportLines byte for byte on a small
// fixture: series in canonical key order, tags sorted by name, points
// in time order, shortest-exact values including NaN, ±Inf and −0, and
// timestamps at, before and after the Unix epoch. A restored copy of
// the store exports the same text.
func TestExportLinesGolden(t *testing.T) {
	db := Open()
	far := map[string]string{"vp": "comcast-nyc", "side": "far", "link": "a-b"}
	near := map[string]string{"side": "near", "link": "a-b", "vp": "comcast-nyc"}
	db.Write("tslp", far, t0.Add(2*time.Minute), math.NaN())
	db.Write("tslp", far, t0, 23.75)
	db.Write("tslp", far, t0.Add(time.Minute), math.Copysign(0, -1))
	db.Write("tslp", near, t0, math.Inf(1))
	db.Write("m", nil, t0, 3)
	db.Write("loss", map[string]string{"link": "z"}, time.Unix(0, 0), 1e21)
	db.Write("loss", map[string]string{"link": "z"}, time.Unix(0, -1500), math.Inf(-1))
	db.Write("loss", map[string]string{"link": "z"}, time.Unix(0, 1), 0.1)

	const want = `loss,link=z value=-Inf -1500
loss,link=z value=1e+21 0
loss,link=z value=0.1 1
m value=3 1456790400000000000
tslp,link=a-b,side=far,vp=comcast-nyc value=23.75 1456790400000000000
tslp,link=a-b,side=far,vp=comcast-nyc value=-0 1456790460000000000
tslp,link=a-b,side=far,vp=comcast-nyc value=NaN 1456790520000000000
tslp,link=a-b,side=near,vp=comcast-nyc value=+Inf 1456790400000000000
`
	restored := Open()
	if err := restored.RestoreDir(snapToDir(t, db, DirOptions{}), DirOptions{}); err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]*DB{"writer": db, "restored": restored} {
		var buf bytes.Buffer
		n, err := store.ExportLines(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want {
			t.Fatalf("%s export:\n%s\nwant:\n%s", name, got, want)
		}
		if n != strings.Count(want, "\n") {
			t.Fatalf("%s export reported %d lines", name, n)
		}
	}
}

// TestLineRoundTripProperty checks that FormatLine's value and
// timestamp fields parse back to the exact point written.
func TestLineRoundTripProperty(t *testing.T) {
	f := func(vRaw int64, nsRaw int64) bool {
		v := float64(vRaw) / 1000
		at := time.Unix(0, nsRaw%1e18).UTC()
		fields := strings.Fields(FormatLine("m", map[string]string{"k": "x"}, at, v))
		if len(fields) != 3 || fields[0] != "m,k=x" || !strings.HasPrefix(fields[1], "value=") {
			return false
		}
		gotV, err := strconv.ParseFloat(strings.TrimPrefix(fields[1], "value="), 64)
		if err != nil {
			return false
		}
		ns, err := strconv.ParseInt(fields[2], 10, 64)
		return err == nil && ns == at.UnixNano() && gotV == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
