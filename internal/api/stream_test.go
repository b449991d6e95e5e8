package api

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/stream"
)

// waitFor polls until cond holds, failing the test on timeout.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// streamServer builds a hub-backed server over a small synthesized store.
func streamServer(t testing.TB) (*Server, *stream.Hub) {
	t.Helper()
	st := newTestStore(t, 20, 2)
	hub := stream.NewHub()
	return New(st, Config{Stream: hub}), hub
}

// readFrame reads one SSE frame (through its terminating blank line) and
// returns its non-empty lines.
func readFrame(t *testing.T, r *bufio.Reader) []string {
	t.Helper()
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE frame: %v (got %q so far)", err, lines)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if len(lines) > 0 {
				return lines
			}
			continue
		}
		lines = append(lines, line)
	}
}

// frameUpdate decodes the data: payload of an "event: scores" frame.
func frameUpdate(t *testing.T, lines []string) stream.Update {
	t.Helper()
	var u stream.Update
	for _, line := range lines {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &u); err != nil {
				t.Fatalf("bad update JSON %q: %v", data, err)
			}
			return u
		}
	}
	t.Fatalf("frame %q carries no data line", lines)
	return u
}

// TestStreamDeliversPerASFilteredDeltas: a /v1/stream?asn=7 subscriber must
// receive exactly the AS-7 deltas of the rounds that touched AS 7 — pushed,
// without polling — and nothing from rounds that did not.
func TestStreamDeliversPerASFilteredDeltas(t *testing.T) {
	srv, hub := streamServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stream?asn=7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stream = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	readFrame(t, r) // the ": rovista score stream" preamble comment

	// Two incremental rounds touching AS 7 (among others), then one that
	// does not.
	hub.Publish(stream.Update{Round: 1, Deltas: []stream.ScoreDelta{
		{ASN: 7, Old: 0, New: 40}, {ASN: 9, Old: 10, New: 20},
	}})
	hub.Publish(stream.Update{Round: 2, Deltas: []stream.ScoreDelta{
		{ASN: 7, Old: 40, New: 55}, {ASN: 9, Old: 20, New: 30},
	}})
	hub.Publish(stream.Update{Round: 3, Deltas: []stream.ScoreDelta{
		{ASN: 9, Old: 30, New: 35},
	}})

	for want := uint32(1); want <= 2; want++ {
		u := frameUpdate(t, readFrame(t, r))
		if u.Round != want {
			t.Fatalf("update round = %d, want %d", u.Round, want)
		}
		if len(u.Deltas) != 1 || u.Deltas[0].ASN != 7 {
			t.Fatalf("round %d deltas = %+v, want exactly the AS-7 delta", want, u.Deltas)
		}
	}
	// Round 3 must have been filtered out entirely: publish a sentinel the
	// subscriber does match and assert it arrives next.
	hub.Publish(stream.Update{Round: 4, Deltas: []stream.ScoreDelta{{ASN: 7, Old: 55, New: 60}}})
	if u := frameUpdate(t, readFrame(t, r)); u.Round != 4 {
		t.Fatalf("next update round = %d, want 4 (round 3 should never be delivered)", u.Round)
	}
	if srv.Metrics.StreamClients.Load() != 1 {
		t.Fatalf("stream client gauge = %d", srv.Metrics.StreamClients.Load())
	}
}

// TestStreamSlowSubscriberEvicted: a subscriber that stops reading while
// rounds keep publishing must be evicted — the fan-out never blocks the
// round loop — and told why with a final evicted frame.
func TestStreamSlowSubscriberEvicted(t *testing.T) {
	srv, hub := streamServer(t)
	srv.streamBuf = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	readFrame(t, r) // preamble

	// Big frames so the handler's write outgrows the socket buffers and
	// blocks while the client reads nothing.
	big := make([]stream.ScoreDelta, 50_000)
	for i := range big {
		big[i] = stream.ScoreDelta{ASN: 1, Old: 0, New: float64(i)}
	}
	deadline := time.Now().Add(5 * time.Second)
	for round := uint32(1); hub.Evictions.Load() == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatal("hub never evicted the stalled subscriber")
		}
		hub.Publish(stream.Update{Round: round, Deltas: big})
		time.Sleep(5 * time.Millisecond)
	}

	// Drain: the stream must terminate with the evicted notice.
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), "event: evicted") {
		t.Fatal("stream ended without an evicted frame")
	}
	waitFor(t, "handler exit", func() bool { return srv.Metrics.StreamClients.Load() == 0 })
	if srv.Metrics.StreamEvicted.Load() != 1 {
		t.Fatalf("StreamEvicted = %d, want 1", srv.Metrics.StreamEvicted.Load())
	}
}

// TestStreamParamValidationAndAvailability: bad filters 400; a server
// without a hub 503s instead of hanging.
func TestStreamParamValidationAndAvailability(t *testing.T) {
	srv, _ := streamServer(t)
	h := srv.Handler()
	for _, q := range []string{
		"asn=zero", "asn=0", "min_delta=-3", "min_delta=x",
		// strconv.ParseFloat parses all of these; none is a threshold.
		"min_delta=NaN", "min_delta=Inf", "min_delta=%2BInf", "min_delta=-Inf", "min_delta=infinity",
	} {
		if code := streamStatus(h, q); code != http.StatusBadRequest {
			t.Fatalf("GET /v1/stream?%s = %d, want 400", q, code)
		}
	}
	noHub := New(newTestStore(t, 5, 1), Config{}).Handler()
	if w := get(t, noHub, "/v1/stream"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("hub-less /v1/stream = %d, want 503", w.Code)
	}
}

// TestStreamPathStaysOffQueryShards extends the lock-free serving guard to
// the push path: a full subscribe → publish → disconnect cycle must acquire
// zero query-path shard locks and never touch the generation cache — the
// SSE fan-out is isolated from the cached read path by construction.
func TestStreamPathStaysOffQueryShards(t *testing.T) {
	srv, hub := streamServer(t)
	h := srv.Handler()
	// Warm the rate limiter for the client (first sight of a client key
	// takes the limiter's insert path) and the cached read path.
	if w := get(t, h, "/v1/top?n=5"); w.Code != http.StatusOK {
		t.Fatalf("warm GET = %d", w.Code)
	}

	baseLocks := lockCount.Load()
	hits, misses := srv.Metrics.CacheHits.Load(), srv.Metrics.CacheMisses.Load()

	_, stop := openStream(t, h, "") // same client as get()
	hub.Publish(stream.Update{Round: 1, Deltas: []stream.ScoreDelta{{ASN: 3, Old: 1, New: 2}}})
	waitFor(t, "delivery", func() bool { return hub.Delivered.Load() == 1 })
	stop()

	if got := lockCount.Load(); got != baseLocks {
		t.Fatalf("stream path acquired %d query-path locks", got-baseLocks)
	}
	if srv.Metrics.CacheHits.Load() != hits || srv.Metrics.CacheMisses.Load() != misses {
		t.Fatal("stream request touched the generation cache")
	}
}

// streamWriter is an in-process ResponseWriter and Flusher for /v1/stream
// that keeps every Write the handler makes as its own string.
type streamWriter struct {
	mu      sync.Mutex
	header  http.Header
	writes  []string
	at      []time.Time // per write
	flushes int
}

func (w *streamWriter) Header() http.Header { return w.header }
func (w *streamWriter) WriteHeader(int)     {}
func (w *streamWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, string(p))
	w.at = append(w.at, time.Now())
	return len(p), nil
}
func (w *streamWriter) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushes++
}

// flushed returns the writes made so far once n of them have been flushed
// (the handler flushes after every write).
func (w *streamWriter) flushed(t testing.TB, n int) []string {
	t.Helper()
	var out []string
	waitFor(t, "flushed stream writes", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		out = append(out[:0], w.writes...)
		return w.flushes >= n
	})
	return out
}

// openStream runs GET /v1/stream?query against h in-process and returns once
// the handler has subscribed and written its greeting; stop disconnects the
// client and waits for the handler to return.
func openStream(t testing.TB, h http.Handler, query string) (w *streamWriter, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/stream?"+query, nil).WithContext(ctx)
	req.RemoteAddr = "192.0.2.1:12345"
	w = &streamWriter{header: http.Header{}}
	done := make(chan struct{})
	go func() { defer close(done); h.ServeHTTP(w, req) }()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	w.flushed(t, 1)
	return w, stop
}

// streamStatus is the status of GET /v1/stream?rawQuery for a client that is
// already gone: an accepted stream subscribes, greets and returns at once, so
// 200 or 400 comes back without a stream to shut down.
func streamStatus(h http.Handler, rawQuery string) int {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/stream", nil).WithContext(gone)
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// The wire format of a scores frame, recorded before the hub learnt to share
// one encoding between the subscribers of a filter: one fixed round — a plain
// move, a move below min_delta=1, an appearance, a disappearance — as the
// handler writes it under each kind of filter.
var goldenUpdate = stream.Update{Round: 42, Day: 17, Deltas: []stream.ScoreDelta{
	{ASN: 7, Old: 40, New: 55.5},
	{ASN: 9, Old: 20, New: 20.25},
	{ASN: 11, New: 12.5, Appeared: true},
	{ASN: 13, Old: 99, Vanished: true},
}}

const (
	goldenFrameAll = "id: 42\nevent: scores\ndata: " +
		`{"round":42,"day":17,"deltas":[{"asn":7,"old":40,"new":55.5},{"asn":9,"old":20,"new":20.25},` +
		`{"asn":11,"old":0,"new":12.5,"appeared":true},{"asn":13,"old":99,"new":0,"vanished":true}]}` + "\n\n"
	goldenFrameASN7 = "id: 42\nevent: scores\ndata: " +
		`{"round":42,"day":17,"deltas":[{"asn":7,"old":40,"new":55.5}]}` + "\n\n"
	goldenFrameMinDelta = "id: 42\nevent: scores\ndata: " +
		`{"round":42,"day":17,"deltas":[{"asn":7,"old":40,"new":55.5},` +
		`{"asn":11,"old":0,"new":12.5,"appeared":true},{"asn":13,"old":99,"new":0,"vanished":true}]}` + "\n\n"
)

// TestStreamFrameGolden pins the bytes on the wire: each scores frame is one
// Write, beginning "id: ", of exactly these bytes.
func TestStreamFrameGolden(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		{"", goldenFrameAll},
		{"asn=7", goldenFrameASN7},
		{"min_delta=1", goldenFrameMinDelta},
	} {
		srv, hub := streamServer(t)
		w, stop := openStream(t, srv.Handler(), tc.query)
		hub.Publish(goldenUpdate)
		writes := w.flushed(t, 2)
		stop()
		if len(writes) != 2 {
			t.Fatalf("?%s: handler made %d writes for one frame after the greeting: %q", tc.query, len(writes)-1, writes[1:])
		}
		if writes[1] != tc.want {
			t.Errorf("?%s: frame\n got %q\nwant %q", tc.query, writes[1], tc.want)
		}
	}
}

// TestStreamHubCloseIsNotAnEviction: Hub.Close is the "disconnect everyone"
// control. Its subscribers did not fall behind, so their streams end without
// the evicted frame and without counting as evictions.
func TestStreamHubCloseIsNotAnEviction(t *testing.T) {
	srv, hub := streamServer(t)
	w, stop := openStream(t, srv.Handler(), "")
	hub.Close()
	waitFor(t, "handler exit", func() bool { return srv.Metrics.StreamClients.Load() == 0 })
	stop()
	if writes := w.flushed(t, 1); len(writes) != 1 {
		t.Fatalf("closed hub: handler wrote %q after the greeting", writes[1:])
	}
	if n := srv.Metrics.StreamEvicted.Load(); n != 0 {
		t.Fatalf("StreamEvicted = %d after Hub.Close, want 0", n)
	}
}

// TestStreamKeepaliveOnlyWhileIdle: the keepalive interval restarts at every
// frame, so a keepalive never follows a scores frame by less than the
// interval, and an idle stream still gets one.
func TestStreamKeepaliveOnlyWhileIdle(t *testing.T) {
	const interval = 50 * time.Millisecond
	const keepalive = ": keepalive\n\n"
	srv, hub := streamServer(t)
	srv.streamKeepalive = interval
	w, _ := openStream(t, srv.Handler(), "")

	// Busy for three intervals: the next round goes out as soon as the last
	// one's frame is flushed.
	round := uint32(0)
	for start := time.Now(); time.Since(start) < 3*interval; {
		round++
		hub.Publish(stream.Update{Round: round, Deltas: []stream.ScoreDelta{{ASN: 1, Old: 0, New: float64(round)}}})
		w.flushed(t, int(round)+1)
	}
	// Then idle until a keepalive arrives.
	waitFor(t, "idle keepalive", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.writes[len(w.writes)-1] == keepalive
	})

	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 1; i < len(w.writes); i++ {
		if w.writes[i] != keepalive || !strings.HasPrefix(w.writes[i-1], "id: ") {
			continue
		}
		if gap := w.at[i].Sub(w.at[i-1]); gap < interval {
			t.Fatalf("keepalive %v after frame %q, want at least %v of silence first", gap, w.writes[i-1], interval)
		}
	}
}

// FuzzStreamQuery: /v1/stream's filter comes straight off the wire and
// becomes a map key in the hub. Whatever the query, the handler answers 200
// or 400 and never panics, and a filter it accepts equals itself — a NaN
// threshold would make a view nothing could find or delete again.
func FuzzStreamQuery(f *testing.F) {
	for _, seed := range []string{
		"", "asn=7", "min_delta=1", "asn=7&min_delta=0.25", "asn=4294967295", "asn=4294967296", "asn=0",
		"min_delta=NaN", "min_delta=nan", "min_delta=Inf", "min_delta=-inf", "min_delta=+Inf", "min_delta=1e999",
		"min_delta=-0", "min_delta=0x1p-2", "min_delta=1_0", "min_delta=", "asn=7&asn=x", "%zz", "min_delta=1;asn=2",
	} {
		f.Add(seed)
	}
	srv, hub := streamServer(f)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		code := streamStatus(h, raw)
		filter, err := parseStreamFilter((&url.URL{RawQuery: raw}).Query())
		switch {
		case code != http.StatusOK && code != http.StatusBadRequest:
			t.Fatalf("?%s = %d, want 200 or 400", raw, code)
		case (code == http.StatusOK) != (err == nil):
			t.Fatalf("?%s = %d but the filter parsed to %+v, %v", raw, code, filter, err)
		case err == nil && filter != filter:
			t.Fatalf("?%s accepted with filter %+v, which does not equal itself", raw, filter)
		}
		if n := hub.Subscribers.Load(); n != 0 {
			t.Fatalf("?%s left %d subscriptions attached", raw, n)
		}
	})
}
