package export

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

const csvHead = "asn,rov_protection_score,vvps,tnodes_measured,tnodes_filtered,unanimous\n"

// sampleDataset is a small writer-side dataset for seeding the corpora.
func sampleDataset() *Dataset {
	return &Dataset{Format: FormatVersion, Day: 12, TNodes: 9, Consistency: 0.875, Records: []ScoreRecord{
		{ASN: 64512, Score: 100, VVPs: 3, TNodesMeasured: 9, TNodesFiltered: 9, Unanimous: true},
		{ASN: 3356, Score: 33.33, VVPs: 2, TNodesMeasured: 9, TNodesFiltered: 3},
		{ASN: 4294967295, Score: 0, VVPs: 1, TNodesMeasured: 9},
	}}
}

// manyRows is an oversized but well-formed CSV body.
func manyRows(n int) string {
	var b strings.Builder
	b.WriteString(csvHead)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d.%02d,%d,%d,%d,%t\n", i, i%101, i%100, i%7, i%11, i%5, i%2 == 0)
	}
	return b.String()
}

// FuzzReadJSON: whatever ReadJSON accepts must re-encode with WriteJSON
// without error and decode to the same dataset, and the writer's bytes are
// a fixpoint — read back and written again, they come out identical. The
// seeds follow CURE's (2312.01872) mutation classes: malformed (truncated,
// mistyped, not an object), oversized (ASN past uint32, counts past int64,
// exponents past float64, long records arrays) and out-of-range values
// (NaN-like literals, scores outside [0, 100], negative counts, a future
// format version).
func FuzzReadJSON(f *testing.F) {
	var w bytes.Buffer
	if err := sampleDataset().WriteJSON(&w); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		w.String(),
		`{"day":3,"tnodes":2,"consistency":1,"records":[]}`,
		`null`,
		``,
		`{"format_version":1,"records":[{"asn":1,`,
		`{"records":[{"asn":"1"}]}`,
		`[{"asn":1}]`,
		`{"records":[{"asn":4294967296}]}`,
		`{"records":[{"asn":1,"vvps":9223372036854775808}]}`,
		`{"consistency":1e309}`,
		`{"records":[{"asn":1,"rov_protection_score":1e400}]}`,
		`{"records":[{"asn":1,"rov_protection_score":NaN}]}`,
		`{"records":[{"asn":1,"rov_protection_score":-0.01}]}`,
		`{"records":[{"asn":1,"rov_protection_score":100.000001}]}`,
		`{"records":[{"asn":1,"rov_protection_score":-0}]}`,
		`{"records":[{"asn":1,"tnodes_filtered":-1}]}`,
		`{"tnodes":-4,"records":[]}`,
		`{"format_version":2}`,
		`{"ASN":1,"Records":[{"ASN":7,"Unanimous":true}]}`,
		`{"records":[{"asn":1}]} trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := d.WriteJSON(&first); err != nil {
			t.Fatalf("accepted dataset does not re-encode: %v\n%+v", err, d)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("writer output rejected: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("re-decoded dataset differs:\n got %+v\nwant %+v", back, d)
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("writer bytes do not round-trip:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzReadCSV is FuzzReadJSON for the CSV form. WriteCSV prints scores to
// two decimals, so "the same records" means the first decode with each
// score rounded the way the writer rounds it; from there the writer's
// bytes are a fixpoint.
func FuzzReadCSV(f *testing.F) {
	var w bytes.Buffer
	if err := sampleDataset().WriteCSV(&w); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		w.String(),
		csvHead,
		``,
		"a,b\n1,2\n",
		csvHead + "1,50,2,3\n",
		csvHead + "1,50,2,3,4,true,extra\n",
		csvHead + "\"1,50,2,3,4,true\n",
		csvHead + "x,1,2,3,4,true\n",
		csvHead + "1,50,2,3,4,maybe\n",
		csvHead + "4294967296,50,2,3,4,true\n",
		csvHead + "1,50,9223372036854775808,3,4,true\n",
		csvHead + "1,1e309,2,3,4,true\n",
		csvHead + "1,NaN,2,3,4,true\n",
		csvHead + "1,Inf,2,3,4,true\n",
		csvHead + "1,-Inf,2,3,4,true\n",
		csvHead + "1,+infinity,2,3,4,true\n",
		csvHead + "1,-0.01,2,3,4,true\n",
		csvHead + "1,100.005,2,3,4,true\n",
		csvHead + "1,0x1p6,+2,-0,4,T\n",
		csvHead + "1,50,-2,3,4,true\n",
		csvHead + "1,33.333333,2,3,-4,false\r\n",
		manyRows(300),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := (&Dataset{Records: recs}).WriteCSV(&first); err != nil {
			t.Fatalf("accepted records do not re-encode: %v\n%+v", err, recs)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("writer output rejected: %v\n%s", err, first.Bytes())
		}
		want := make([]ScoreRecord, len(recs))
		for i, r := range recs {
			r.Score, _ = strconv.ParseFloat(strconv.FormatFloat(r.Score, 'f', 2, 64), 64)
			want[i] = r
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("re-decoded records differ:\n got %+v\nwant %+v", back, want)
		}
		var second bytes.Buffer
		if err := (&Dataset{Records: back}).WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("writer bytes do not round-trip:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestReadersRejectOutOfRange pins the readers' value checks: strconv and
// encoding/json parse these, but no writer produces them, and WriteJSON
// cannot encode a non-finite score.
func TestReadersRejectOutOfRange(t *testing.T) {
	for _, row := range []string{
		"1,NaN,2,3,4,true", "1,Inf,2,3,4,true", "1,-Inf,2,3,4,true",
		"1,-0.5,2,3,4,true", "1,100.01,2,3,4,true",
		"1,50,-1,3,4,true", "1,50,2,-3,4,true", "1,50,2,3,-4,true",
	} {
		if _, err := ReadCSV(strings.NewReader(csvHead + row + "\n")); err == nil {
			t.Errorf("ReadCSV accepted %q", row)
		}
	}
	for _, doc := range []string{
		`{"records":[{"asn":1,"rov_protection_score":-0.5}]}`,
		`{"records":[{"asn":1,"rov_protection_score":100.01}]}`,
		`{"records":[{"asn":1,"vvps":-1}]}`,
		`{"records":[{"asn":1,"tnodes_measured":-1}]}`,
		`{"records":[{"asn":1,"tnodes_filtered":-1}]}`,
		`{"tnodes":-1}`,
	} {
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadJSON accepted %s", doc)
		}
	}
	if _, err := ReadCSV(strings.NewReader(csvHead + "1,0,0,0,0,false\n2,100,1,1,1,true\n")); err != nil {
		t.Errorf("ReadCSV rejected the range's ends: %v", err)
	}
}
