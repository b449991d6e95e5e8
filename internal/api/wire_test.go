package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"github.com/netsec-lab/rovista/internal/export"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/store"
)

// marshalLine is the wire contract of every writeJSON body:
// json.Marshal(v) and a newline.
func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzTimeseriesBody is the differential check of the one body whose size
// grows with history. The input is an ASN and a run of rounds, each with a
// day (negative included), a flag for whether the AS was scored, and its
// centi score (0 to 655.35, past the store's 100). Each run is archived in a
// fresh store and the served /v1/as/{asn}/timeseries body, miss and hit, must
// equal json.Marshal of the payload built from the input and a newline. An AS
// that was never scored must get the 404 error body.
func FuzzTimeseriesBody(f *testing.F) {
	f.Add(uint32(1000), []byte{})
	f.Add(uint32(0), []byte{0, 0, 0, 0, 1, 0, 0})
	f.Add(uint32(math.MaxUint32), bytes.Repeat([]byte{0xff}, 35))
	f.Add(uint32(64512), []byte{
		7, 0, 0, 0, 1, 0x10, 0x27, // day 7, score 100
		0x9c, 0xff, 0xff, 0xff, 0, 0, 0, // day -100, not scored
		0, 0, 0, 0x80, 1, 0x01, 0x0d, // day MinInt32, score 33.29
	})
	f.Fuzz(func(t *testing.T, asn uint32, raw []byte) {
		const chunk, maxRounds = 7, 40
		st, err := store.Open(t.TempDir(), store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		want := timeseriesResponse{ASN: asn}
		for r := uint32(0); len(raw) >= chunk && r < maxRounds; raw, r = raw[chunk:], r+1 {
			rec := &store.RoundRecord{Day: int(int32(binary.LittleEndian.Uint32(raw)))}
			if raw[4]&1 == 1 {
				e := store.Entry{ASN: inet.ASN(asn), Centi: binary.LittleEndian.Uint16(raw[5:])}
				rec.Entries = []store.Entry{e}
				want.Points = append(want.Points, seriesPoint{Round: r, Day: rec.Day, Score: e.Score()})
			}
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		code, payload := http.StatusOK, any(want)
		if len(want.Points) == 0 {
			code, payload = http.StatusNotFound, map[string]string{"error": fmt.Sprintf("AS%d was never scored", asn)}
		}
		exp := marshalLine(t, payload)
		h := New(st, Config{}).Handler()
		path := fmt.Sprintf("/v1/as/%d/timeseries", asn)
		for pass := 0; pass < 2; pass++ {
			w := get(t, h, path)
			if w.Code != code || !bytes.Equal(w.Body.Bytes(), exp) {
				t.Fatalf("GET %s (pass %d) = %d\n got %s\nwant %d %s", path, pass, w.Code, w.Body, code, exp)
			}
		}
	})
}

// TestJSONBodiesAreMarshalPlusNewline pins the /v1 wire format: the body
// of every writeJSON answer — cached or not, success or error — is exactly
// json.Marshal of its payload and a newline (compact, no indentation).
// /v1/export is the exception: it stays byte-identical to internal/export's
// indented writer (TestExportBodiesAreTheWritersBytes).
func TestJSONBodiesAreMarshalPlusNewline(t *testing.T) {
	st := newTestStore(t, 30, 4)
	h := New(st, Config{}).Handler()
	view := st.View()
	latest := view.Latest()

	asn := inet.ASN(1003)
	p, _ := view.Current(asn)
	rec := view.Round(int(p.Round))
	e, _ := rec.Entry(asn)

	series := timeseriesResponse{ASN: uint32(asn)}
	for _, hp := range view.Series(asn) {
		series.Points = append(series.Points, seriesPoint{hp.Round, view.Round(int(hp.Round)).Day, hp.Score()})
	}

	top := view.TopN(5, false)
	topRecs := make([]export.ScoreRecord, len(top))
	for i, e := range top {
		topRecs[i] = scoreRecord(e)
	}

	diff, err := view.Diff(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	changes := make([]diffChange, len(diff))
	for i, d := range diff {
		changes[i] = diffChange{ASN: uint32(d.ASN), FromScore: d.From.Score(), ToScore: d.To.Score(), Appeared: d.Appeared, Vanished: d.Vanished}
	}

	rounds := make([]roundSummary, view.Rounds())
	for i := range rounds {
		r := view.Round(i)
		rounds[i] = roundSummary{
			Round: r.Round, Day: r.Day, Status: r.Status.String(), ASes: len(r.Entries),
			TestPrefixes: r.TestPrefixes, TNodes: r.TNodes, AllVVPs: r.AllVVPs,
			Consistency: r.Consistency(), Evidence: r.Evidence,
		}
	}

	cases := []struct {
		path    string
		code    int
		payload any
	}{
		{"/healthz", http.StatusOK, map[string]any{"status": "ok", "rounds": view.Rounds(), "generation": view.Generation()}},
		{"/v1/as/1003", http.StatusOK, asResponse{
			ASN: uint32(asn), Round: p.Round, Day: rec.Day, Score: e.Score(), VVPs: int(e.VVPs),
			TNodesMeasured: int(e.TNodesMeasured), TNodesFiltered: int(e.TNodesFiltered),
			Unanimous: e.Unanimous, RoundStatus: rec.Status.String(),
		}},
		{"/v1/as/1003/timeseries", http.StatusOK, series},
		{"/v1/top?n=5&order=unprotected", http.StatusOK, map[string]any{"round": latest.Round, "day": latest.Day, "order": "unprotected", "records": topRecs}},
		{"/v1/diff?from=0&to=3", http.StatusOK, map[string]any{"from": 0, "to": 3, "changed": changes}},
		{"/v1/rounds", http.StatusOK, map[string]any{"rounds": rounds}},
		{"/v1/as/999999", http.StatusNotFound, map[string]string{"error": "AS999999 was never scored"}},
		{"/v1/as/999999/timeseries", http.StatusNotFound, map[string]string{"error": "AS999999 was never scored"}},
		{"/v1/top?order=sideways", http.StatusBadRequest, map[string]string{"error": `bad order "sideways" (want protected or unprotected)`}},
		{"/v1/diff?from=x", http.StatusBadRequest, map[string]string{"error": `diff needs from= and to= rounds (integer or "latest")`}},
		{"/v1/export?format=xml", http.StatusBadRequest, map[string]string{"error": `bad format "xml" (want json or csv)`}},
		{"/v1/whatif", http.StatusServiceUnavailable, map[string]string{"error": "what-if engine not attached (daemon not measuring live)"}},
	}
	for _, c := range cases {
		want := marshalLine(t, c.payload)
		for pass := 0; pass < 2; pass++ { // a miss, then (for cached 200s) a hit
			w := get(t, h, c.path)
			if w.Code != c.code {
				t.Fatalf("GET %s = %d, want %d: %s", c.path, w.Code, c.code, w.Body)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("GET %s (pass %d) body:\n got %s\nwant %s", c.path, pass, w.Body, want)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("GET %s Content-Type = %q", c.path, ct)
			}
		}
	}
}

// TestExportBodiesAreTheWritersBytes: /v1/export is the one /v1 answer
// that is not compact — its JSON and CSV bodies are exactly what
// internal/export writes for the round, miss and hit alike.
func TestExportBodiesAreTheWritersBytes(t *testing.T) {
	st := newTestStore(t, 25, 3)
	h := New(st, Config{}).Handler()
	for _, round := range []int{0, 2} {
		d := DatasetFromRecord(st.Round(round))
		var js, csv bytes.Buffer
		if err := d.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			path string
			want []byte
		}{
			{fmt.Sprintf("/v1/export?round=%d", round), js.Bytes()},
			{fmt.Sprintf("/v1/export?format=csv&round=%d", round), csv.Bytes()},
		} {
			for pass := 0; pass < 2; pass++ {
				if w := get(t, h, c.path); !bytes.Equal(w.Body.Bytes(), c.want) {
					t.Fatalf("GET %s (pass %d): body is not the export writer's bytes", c.path, pass)
				}
			}
		}
	}
}
