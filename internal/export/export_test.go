package export

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/netsec-lab/rovista/internal/core"
)

func snapshot(t *testing.T) *core.Snapshot {
	t.Helper()
	w, err := core.BuildWorld(core.SmallWorldConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	return core.NewRunner(w, core.DefaultRunnerConfig(3)).Measure()
}

func TestFromSnapshotOrdering(t *testing.T) {
	d := FromSnapshot(snapshot(t))
	if len(d.Records) == 0 {
		t.Fatal("no records")
	}
	for i := 1; i < len(d.Records); i++ {
		a, b := d.Records[i-1], d.Records[i]
		if a.Score < b.Score || (a.Score == b.Score && a.ASN > b.ASN) {
			t.Fatalf("ordering violated at %d: %+v then %+v", i, a, b)
		}
	}
	for _, r := range d.Records {
		if r.TNodesFiltered > r.TNodesMeasured {
			t.Fatalf("filtered > measured: %+v", r)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := FromSnapshot(snapshot(t))
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rov_protection_score") {
		t.Fatal("JSON missing field names")
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Day != d.Day || len(back.Records) != len(d.Records) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range d.Records {
		if back.Records[i] != d.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, back.Records[i], d.Records[i])
		}
	}
}

// TestFormatVersionRoundTrip pins the versioned-schema contract: writers
// stamp the current FormatVersion, readers accept anything up to it (0 is
// the legacy pre-versioned form) and refuse newer data. The exact
// export → parse → DeepEqual round trip is shared with rovistad's JSON
// endpoint, which is tested against the same ReadJSON in internal/api.
func TestFormatVersionRoundTrip(t *testing.T) {
	d := FromSnapshot(snapshot(t))
	if d.Format != FormatVersion {
		t.Fatalf("FromSnapshot stamped format %d, want %d", d.Format, FormatVersion)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"format_version": 1`) {
		t.Fatal("serialized JSON missing format_version")
	}
	back, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("round trip not exact:\n got %+v\nwant %+v", back, d)
	}

	// Legacy (version 0) data still parses.
	legacy := `{"day":3,"tnodes":2,"consistency":1,"records":[]}`
	if _, err := ReadJSON(strings.NewReader(legacy)); err != nil {
		t.Fatalf("legacy dataset rejected: %v", err)
	}
	// Future versions are refused instead of silently misread.
	future := `{"format_version":99,"day":3,"tnodes":2,"consistency":1}`
	if _, err := ReadJSON(strings.NewReader(future)); err == nil {
		t.Fatal("future format_version accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := FromSnapshot(snapshot(t))
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(d.Records) {
		t.Fatalf("rows = %d, want %d", len(recs), len(d.Records))
	}
	for i := range recs {
		// Score goes through 2-decimal formatting.
		if recs[i].ASN != d.Records[i].ASN || recs[i].VVPs != d.Records[i].VVPs {
			t.Fatalf("row %d differs", i)
		}
		diff := recs[i].Score - d.Records[i].Score
		if diff > 0.01 || diff < -0.01 {
			t.Fatalf("row %d score drift %v", i, diff)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("wrong header accepted")
	}
	bad := "asn,rov_protection_score,vvps,tnodes_measured,tnodes_filtered,unanimous\nx,1,2,3,4,true\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric ASN accepted")
	}
}
