package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/export"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

// newTestStore synthesizes a deterministic populated store.
func newTestStore(t testing.TB, ases, rounds int) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := store.Synthesize(st, store.SynthConfig{ASes: ases, Rounds: rounds, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return st
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.RemoteAddr = "192.0.2.1:12345"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body.String(), err)
	}
}

func TestEndpointsServeNonEmpty(t *testing.T) {
	st := newTestStore(t, 40, 5)
	h := New(st, Config{}).Handler()
	paths := []string{
		"/healthz",
		"/metrics",
		"/v1/as/1000",
		"/v1/as/1000/timeseries",
		"/v1/top",
		"/v1/top?n=5&order=unprotected",
		"/v1/diff?from=0&to=4",
		"/v1/export",
		"/v1/export?format=csv&round=2",
		"/v1/rounds",
	}
	for _, p := range paths {
		w := get(t, h, p)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", p, w.Code, w.Body.String())
		}
		if w.Body.Len() == 0 {
			t.Fatalf("GET %s returned an empty body", p)
		}
	}
}

func TestASEndpointMatchesStore(t *testing.T) {
	st := newTestStore(t, 40, 5)
	h := New(st, Config{}).Handler()
	asn := inet.ASN(1007)
	p, ok := st.Current(asn)
	if !ok {
		t.Fatal("synthesized AS missing")
	}
	var got asResponse
	w := get(t, h, "/v1/as/1007")
	decode(t, w, &got)
	if got.ASN != 1007 || got.Round != p.Round || got.Score != p.Score() {
		t.Fatalf("AS response %+v does not match store point %+v", got, p)
	}
	e, _ := st.EntryAt(asn, int(p.Round))
	if got.VVPs != int(e.VVPs) || got.TNodesMeasured != int(e.TNodesMeasured) || got.Unanimous != e.Unanimous {
		t.Fatalf("AS response %+v does not match entry %+v", got, e)
	}

	if w := get(t, h, "/v1/as/999999"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown ASN = %d", w.Code)
	}
	if w := get(t, h, "/v1/as/notanumber"); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage ASN = %d", w.Code)
	}
}

func TestTimeseriesMatchesStore(t *testing.T) {
	st := newTestStore(t, 20, 8)
	h := New(st, Config{}).Handler()
	var got timeseriesResponse
	decode(t, get(t, h, "/v1/as/1003/timeseries"), &got)
	hist := st.Series(1003)
	if len(got.Points) != len(hist) {
		t.Fatalf("%d points, want %d", len(got.Points), len(hist))
	}
	for i, p := range got.Points {
		if p.Round != hist[i].Round || p.Score != hist[i].Score() {
			t.Fatalf("point %d: %+v vs %+v", i, p, hist[i])
		}
		if p.Day != st.Round(int(p.Round)).Day {
			t.Fatalf("point %d day mismatch", i)
		}
	}
}

func TestTopOrderingAndBounds(t *testing.T) {
	st := newTestStore(t, 60, 4)
	h := New(st, Config{}).Handler()
	var got struct {
		Order   string               `json:"order"`
		Records []export.ScoreRecord `json:"records"`
	}
	decode(t, get(t, h, "/v1/top?n=10"), &got)
	if got.Order != "protected" || len(got.Records) != 10 {
		t.Fatalf("top: %+v", got)
	}
	for i := 1; i < len(got.Records); i++ {
		a, b := got.Records[i-1], got.Records[i]
		if a.Score < b.Score || (a.Score == b.Score && a.ASN > b.ASN) {
			t.Fatalf("ordering violated: %+v then %+v", a, b)
		}
	}
	decode(t, get(t, h, "/v1/top?n=3&order=unprotected"), &got)
	if len(got.Records) != 3 || got.Order != "unprotected" {
		t.Fatalf("unprotected top: %+v", got)
	}
	for i := 1; i < len(got.Records); i++ {
		if got.Records[i-1].Score > got.Records[i].Score {
			t.Fatal("unprotected order must ascend")
		}
	}
	if w := get(t, h, "/v1/top?n=-2"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad n = %d", w.Code)
	}
	if w := get(t, h, "/v1/top?order=sideways"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad order = %d", w.Code)
	}
}

func TestDiffEndpoint(t *testing.T) {
	st := newTestStore(t, 30, 6)
	h := New(st, Config{}).Handler()
	var got struct {
		From    int          `json:"from"`
		To      int          `json:"to"`
		Changed []diffChange `json:"changed"`
	}
	decode(t, get(t, h, "/v1/diff?from=0&to=5"), &got)
	want, err := st.Diff(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Changed) != len(want) {
		t.Fatalf("%d changes, want %d", len(got.Changed), len(want))
	}
	for i, c := range got.Changed {
		if c.ASN != uint32(want[i].ASN) || c.FromScore != want[i].From.Score() || c.ToScore != want[i].To.Score() {
			t.Fatalf("change %d: %+v vs %+v", i, c, want[i])
		}
	}
	if w := get(t, h, "/v1/diff?from=0&to=99"); w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range diff = %d", w.Code)
	}
	if w := get(t, h, "/v1/diff?from=x&to=1"); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage diff = %d", w.Code)
	}
}

// TestExportJSONRoundTrip is the shared round-trip contract with
// internal/export: the endpoint's body must parse with export.ReadJSON and
// DeepEqual the dataset derived from the stored round, version stamp
// included.
func TestExportJSONRoundTrip(t *testing.T) {
	st := newTestStore(t, 25, 3)
	h := New(st, Config{}).Handler()
	w := get(t, h, "/v1/export?round=1")
	back, err := export.ReadJSON(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Format != export.FormatVersion {
		t.Fatalf("endpoint emitted format %d, want %d", back.Format, export.FormatVersion)
	}
	want := DatasetFromRecord(st.Round(1))
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("export round trip not exact:\n got %+v\nwant %+v", back, want)
	}

	// CSV flavour parses with the shared reader too.
	wc := get(t, h, "/v1/export?format=csv&round=1")
	recs, err := export.ReadCSV(wc.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want.Records) {
		t.Fatalf("csv rows = %d, want %d", len(recs), len(want.Records))
	}
	if w := get(t, h, "/v1/export?format=xml"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad format = %d", w.Code)
	}
}

// TestHealthzHook: /healthz answers 200 while the Health hook is nil or
// returns nil, and 503 with the hook's error once it does not — live, on
// every request, never from the cache.
func TestHealthzHook(t *testing.T) {
	st := newTestStore(t, 20, 2)
	var failure error
	h := New(st, Config{Health: func() error { return failure }}).Handler()
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthy /healthz -> %d: %s", w.Code, w.Body)
	}
	failure = errors.New("3 live rounds failed the round monitor")
	w := get(t, h, "/healthz")
	var body struct{ Status, Error string }
	decode(t, w, &body)
	if w.Code != http.StatusServiceUnavailable || body.Status != "unhealthy" || body.Error != failure.Error() {
		t.Fatalf("unhealthy /healthz -> %d: %s", w.Code, w.Body)
	}
}

// TestCacheInvalidationOnAppend is the cache-vs-live-writer contract: hits
// are served from memory within a generation, and an appended round is
// visible on the very next request.
func TestCacheInvalidationOnAppend(t *testing.T) {
	st := newTestStore(t, 20, 2)
	srv := New(st, Config{})
	h := srv.Handler()

	var h1 struct {
		Rounds int `json:"rounds"`
	}
	decode(t, get(t, h, "/healthz"), &h1)
	if h1.Rounds != 2 {
		t.Fatalf("healthz rounds = %d", h1.Rounds)
	}

	first := get(t, h, "/v1/top?n=5")
	misses := srv.Metrics.CacheMisses.Load()
	second := get(t, h, "/v1/top?n=5")
	if srv.Metrics.CacheHits.Load() == 0 {
		t.Fatal("second identical request must hit the cache")
	}
	if srv.Metrics.CacheMisses.Load() != misses {
		t.Fatal("second identical request must not miss")
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("cached response differs from computed one")
	}

	// Append a round with a new top AS: the next read must see it.
	rec := &store.RoundRecord{Day: 99}
	rec.Entries = []store.Entry{{ASN: 9999, Centi: 10000, VVPs: 2, TNodesMeasured: 4, TNodesFiltered: 4, Unanimous: true}}
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	var top struct {
		Round   uint32               `json:"round"`
		Records []export.ScoreRecord `json:"records"`
	}
	decode(t, get(t, h, "/v1/top?n=5"), &top)
	if top.Round != 2 || len(top.Records) == 0 || top.Records[0].ASN != 9999 {
		t.Fatalf("stale response after append: %+v", top)
	}
}

func TestRateLimiter(t *testing.T) {
	st := newTestStore(t, 10, 2)
	clock := time.Unix(1000, 0)
	srv := New(st, Config{RateBurst: 3, RateRefill: 1, now: func() time.Time { return clock }})
	h := srv.Handler()

	req := func(addr string) int {
		r := httptest.NewRequest(http.MethodGet, "/v1/top", nil)
		r.RemoteAddr = addr
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Code
	}
	for i := 0; i < 3; i++ {
		if code := req("198.51.100.7:1000"); code != http.StatusOK {
			t.Fatalf("request %d = %d", i, code)
		}
	}
	if code := req("198.51.100.7:2000"); code != http.StatusTooManyRequests {
		t.Fatalf("4th request = %d, want 429 (ports share the client bucket)", code)
	}
	if srv.Metrics.RateLimited.Load() != 1 {
		t.Fatal("rate-limited counter not incremented")
	}
	// A different client is unaffected.
	if code := req("198.51.100.8:1000"); code != http.StatusOK {
		t.Fatalf("other client = %d", code)
	}
	// Refill restores service.
	clock = clock.Add(2 * time.Second)
	if code := req("198.51.100.7:3000"); code != http.StatusOK {
		t.Fatalf("after refill = %d", code)
	}
}

// TestRateLimiterBoundedClientTable drives a limiter shard past its
// capacity. First contact at capacity keeps the clients whose buckets are
// still draining (their TAT, and so their 429s, survive) and forgets the
// fully refilled ones; when every client is fresh the shard resets,
// over-admitting rather than growing.
func TestRateLimiterBoundedClientTable(t *testing.T) {
	st := newTestStore(t, 10, 2)
	clock := time.Unix(1000, 0)
	srv := New(st, Config{RateBurst: 2, RateRefill: 1, now: func() time.Time { return clock }})
	l := srv.limiter
	l.perShard = 4
	h := srv.Handler()

	// Client IPs that all land in shard 0.
	var ips []string
	for i := 0; len(ips) < 8; i++ {
		ip := fmt.Sprintf("198.51.%d.%d", i/256, i%256)
		if hashString(ip)&l.shardMask == 0 {
			ips = append(ips, ip)
		}
	}
	req := func(ip string) int {
		r := httptest.NewRequest(http.MethodGet, "/v1/top", nil)
		r.RemoteAddr = ip + ":4242"
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Code
	}
	table := func() map[string]*rlClient { return *l.shards[0].clients.Load() }

	// Two clients that will have refilled, two that exhaust their burst.
	stale, fresh := ips[0:2], ips[2:4]
	for _, ip := range stale {
		req(ip)
	}
	clock = clock.Add(1500 * time.Millisecond) // the stale TATs (+1 s) have passed
	for _, ip := range fresh {
		req(ip)
		req(ip)
		if code := req(ip); code != http.StatusTooManyRequests {
			t.Fatalf("%s third request = %d, want 429", ip, code)
		}
	}
	if n := len(table()); n != 4 {
		t.Fatalf("shard holds %d clients, want 4", n)
	}
	if code := req(ips[4]); code != http.StatusOK {
		t.Fatalf("new client at capacity = %d", code)
	}
	got := table()
	for _, ip := range stale {
		if got[ip] != nil {
			t.Fatalf("refilled client %s kept at capacity", ip)
		}
	}
	for _, ip := range append(fresh, ips[4]) {
		if got[ip] == nil {
			t.Fatalf("client %s dropped at capacity: table %v", ip, got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("shard holds %d clients after eviction, want 3", len(got))
	}
	for _, ip := range fresh {
		if code := req(ip); code != http.StatusTooManyRequests {
			t.Fatalf("draining client %s = %d after eviction, want 429 (TAT lost)", ip, code)
		}
	}

	// An all-fresh flood: the shard is full of draining buckets.
	if code := req(ips[5]); code != http.StatusOK {
		t.Fatalf("fourth client = %d", code)
	}
	if n := len(table()); n != 4 {
		t.Fatalf("shard holds %d clients, want 4", n)
	}
	if code := req(ips[6]); code != http.StatusOK {
		t.Fatalf("flood client = %d", code)
	}
	if got := table(); len(got) != 1 || got[ips[6]] == nil {
		t.Fatalf("all-fresh shard not reset: %d clients", len(got))
	}
	// The reset forgot fresh[0]'s exhausted bucket: it is admitted again.
	if code := req(fresh[0]); code != http.StatusOK {
		t.Fatalf("client %s after the reset = %d, want 200 (over-admit)", fresh[0], code)
	}
	if n := len(table()); n != 2 {
		t.Fatalf("shard holds %d clients after the reset, want 2", n)
	}
}

// rovistadMetrics fetches /metrics from h and returns its "rovistad" object
// flattened to dotted keys, having checked the document's shape: expvar's
// process-wide variables beside it, and nothing but numbers inside it.
func rovistadMetrics(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	var doc map[string]json.RawMessage
	decode(t, w, &doc)
	for _, key := range []string{"cmdline", "memstats", "rovistad"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("/metrics has no %q: %s", key, w.Body.String())
		}
	}
	var root map[string]any
	if err := json.Unmarshal(doc["rovistad"], &root); err != nil {
		t.Fatalf("rovistad: %v", err)
	}
	out := map[string]float64{}
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			switch v := v.(type) {
			case map[string]any:
				walk(prefix+k+".", v)
			case float64:
				out[prefix+k] = v
			default:
				t.Fatalf("/metrics %s%s: %T, want a number", prefix, k, v)
			}
		}
	}
	walk("", root)
	return out
}

// eventsApplied is a one-number telemetry.Source.
type eventsApplied uint64

func (e eventsApplied) WriteMetrics(w *telemetry.Writer) { w.Uint("events_applied", uint64(e)) }

func TestMetricsEndpoint(t *testing.T) {
	st := newTestStore(t, 10, 2)
	srv := New(st, Config{})
	h := srv.Handler()
	get(t, h, "/v1/top")
	get(t, h, "/v1/top")
	m := rovistadMetrics(t, h)
	if m["requests"] != 3 || m["cache_hits"] != 1 || m["cache_misses"] != 1 || m["store_snapshot_publishes"] == 0 {
		t.Fatalf("/metrics counters after two /v1/top: %v", m)
	}
	if p50, p99 := m["latency_p50_us"], m["latency_p99_us"]; p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles p50=%v p99=%v", p50, p99)
	}
}

func TestMetricsExtraSections(t *testing.T) {
	st := newTestStore(t, 10, 2)
	srv := New(st, Config{})
	srv.Register("converge", eventsApplied(7))
	if m := rovistadMetrics(t, srv.Handler()); m["converge.events_applied"] != 7 {
		t.Fatalf("/metrics missing the registered converge section: %v", m)
	}
}

// TestMetricsBelongToTheirServer: /metrics is rendered from the server that
// serves it. With the process-global expvar it reported whichever server was
// constructed last: traffic sent to the first showed up as requests 0 beside
// the second's sections.
func TestMetricsBelongToTheirServer(t *testing.T) {
	st := newTestStore(t, 10, 2)
	first, second := New(st, Config{}), New(st, Config{})
	first.Register("first", eventsApplied(1))
	second.Register("second", eventsApplied(2))
	for i := 0; i < 6; i++ {
		get(t, first.Handler(), "/v1/top")
	}
	m := rovistadMetrics(t, first.Handler())
	if _, others := m["second.events_applied"]; m["requests"] != 7 || m["first.events_applied"] != 1 || others {
		t.Errorf("first server after 6 requests and this scrape: %v", m)
	}
	m = rovistadMetrics(t, second.Handler())
	if _, others := m["first.events_applied"]; m["requests"] != 1 || m["second.events_applied"] != 2 || others {
		t.Errorf("second server after this scrape alone: %v", m)
	}
}

// TestStreamLifetimesAreNotRequestLatency: latency_p50_us describes
// requests. Three SSE clients that stay 300 ms on the server's clock and
// leave, beside two /v1/top requests, used to make the median a connection
// lifetime.
func TestStreamLifetimesAreNotRequestLatency(t *testing.T) {
	var clock atomic.Int64 // ns since the epoch the server sees
	srv, _ := streamServer(t)
	srv.now = func() time.Time { return time.Unix(0, clock.Load()) }
	h := srv.Handler()
	var hangUp []func()
	for i := 0; i < 3; i++ {
		_, stop := openStream(t, h, "")
		hangUp = append(hangUp, stop)
	}
	clock.Add(int64(300 * time.Millisecond))
	for _, stop := range hangUp {
		stop()
	}
	get(t, h, "/v1/top")
	get(t, h, "/v1/top")
	if m := rovistadMetrics(t, h); m["requests"] != 6 || m["latency_p50_us"] >= 100_000 {
		t.Fatalf("after 3 SSE clients of 300 ms and 2 queries: requests %v, latency_p50_us %v; want 6 and a query's latency",
			m["requests"], m["latency_p50_us"])
	}
}

func TestPprofWired(t *testing.T) {
	st := newTestStore(t, 5, 1)
	h := New(st, Config{}).Handler()
	w := get(t, h, "/debug/pprof/")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatalf("pprof index = %d", w.Code)
	}
}

// TestConcurrentAppendQuery drives the full handler stack while the
// longitudinal writer appends — the serving-path half of the race contract
// (make race runs this package with -race).
func TestConcurrentAppendQuery(t *testing.T) {
	st := newTestStore(t, 20, 2)
	h := New(st, Config{}).Handler()
	done := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{"/v1/top", "/v1/as/1001", "/v1/as/1001/timeseries", "/v1/export", "/v1/rounds", "/healthz"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, paths[(g+i)%len(paths)], nil)
				req.RemoteAddr = fmt.Sprintf("10.0.0.%d:99", g)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("GET %s = %d", paths[(g+i)%len(paths)], w.Code)
					return
				}
				i++
			}
		}(g)
	}
	for r := 0; r < 25; r++ {
		rec := &store.RoundRecord{Day: r}
		rec.Entries = []store.Entry{{ASN: 1001, Centi: uint16(r * 100), VVPs: 2, TNodesMeasured: 5}}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// shardKeys generates n distinct keys that all hash into the same cache
// shard, so segmented-eviction behaviour can be exercised deterministically.
func shardKeys(c *genCache, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("/v1/as/%d", i)
		if hashString(k)&c.shardMask == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCacheHotKeysSurviveOverflow pins the segmented-eviction contract: a
// capacity overflow rotates the hot segment to cold instead of clearing
// the shard, so keys that were hot before the overflow are still served
// from cache — no miss storm under a diverse key mix.
func TestCacheHotKeysSurviveOverflow(t *testing.T) {
	c := newGenCache(1, nil, nil) // floor: perShard = 8
	per := c.perShard
	keys := shardKeys(c, 2*per)
	entry := func(i int) cacheEntry {
		return cacheEntry{status: 200, contentType: "t", body: []byte{byte(i)}}
	}
	for i, k := range keys[:per] {
		c.put(1, k, entry(i))
	}
	for i, k := range keys[:per] {
		if e, ok := c.get(1, k); !ok || e.body[0] != byte(i) {
			t.Fatalf("pre-overflow key %q missing", k)
		}
	}
	// Overflow the shard with a second wave of distinct keys.
	for i, k := range keys[per:] {
		c.put(1, k, entry(per+i))
	}
	for i, k := range keys[:per] {
		if e, ok := c.get(1, k); !ok || e.body[0] != byte(i) {
			t.Fatalf("hot key %q evicted by capacity overflow (wholesale clear regression)", k)
		}
	}
	for i, k := range keys[per:] {
		if e, ok := c.get(1, k); !ok || e.body[0] != byte(per+i) {
			t.Fatalf("fresh key %q missing after insert", k)
		}
	}
}

// TestCacheGenerationReset pins the lazy invalidation contract: a get at a
// newer generation misses, the following put resets the shard (counted),
// and entries from the old generation are gone.
func TestCacheGenerationReset(t *testing.T) {
	var resets, rotations atomic.Int64
	c := newGenCache(0, &resets, &rotations)
	// Shard generations are independent, so both keys must share a shard.
	keys := shardKeys(c, 2)
	k0, k1 := keys[0], keys[1]
	c.put(1, k0, cacheEntry{status: 200, body: []byte("old")})
	if _, ok := c.get(1, k0); !ok {
		t.Fatal("warm entry missing")
	}
	if _, ok := c.get(2, k0); ok {
		t.Fatal("newer generation must miss")
	}
	c.put(2, k0, cacheEntry{status: 200, body: []byte("new")})
	if e, ok := c.get(2, k0); !ok || string(e.body) != "new" {
		t.Fatalf("post-reset entry = %+v ok=%v", e, ok)
	}
	if _, ok := c.get(1, k0); ok {
		t.Fatal("old generation served after reset")
	}
	if resets.Load() == 0 {
		t.Fatal("shard reset not counted")
	}
	// A put whose generation is older than the shard's must be dropped,
	// not resurrect the old generation in the now-newer shard.
	c.put(1, k1, cacheEntry{status: 200, body: []byte("zombie")})
	if _, ok := c.get(2, k1); ok {
		t.Fatal("stale-generation put leaked into the current generation")
	}
}

// TestCachedReadPathLockFree is the contention-free serving guard: once a
// client and its hot responses are warm, a cached read (store view + cache
// hit + rate-limit check) must acquire zero locks. Every mutex on the
// serving path is a countedMutex feeding lockCount; the store's writer
// mutex has its own counter.
func TestCachedReadPathLockFree(t *testing.T) {
	st := newTestStore(t, 40, 5)
	srv := New(st, Config{RateBurst: 1 << 20, RateRefill: 1 << 20})
	h := srv.Handler()
	paths := []string{"/v1/as/1000", "/v1/as/1011/timeseries", "/v1/top?n=25", "/v1/rounds"}
	for _, p := range paths {
		if w := get(t, h, p); w.Code != http.StatusOK {
			t.Fatalf("warm GET %s = %d", p, w.Code)
		}
	}

	baseLocks := lockCount.Load()
	baseStore := st.WriterLockAcquisitions()
	hits := srv.Metrics.CacheHits.Load()
	const n = 500
	for i := 0; i < n; i++ {
		if w := get(t, h, paths[i%len(paths)]); w.Code != http.StatusOK {
			t.Fatalf("cached GET = %d", w.Code)
		}
	}
	if got := srv.Metrics.CacheHits.Load() - hits; got != n {
		t.Fatalf("expected %d cache hits, got %d — the guard must measure the hit path", n, got)
	}
	if got := lockCount.Load(); got != baseLocks {
		t.Fatalf("cached read path acquired %d front-end locks", got-baseLocks)
	}
	if got := st.WriterLockAcquisitions(); got != baseStore {
		t.Fatalf("cached read path acquired %d store writer locks", got-baseStore)
	}
}

// TestGenerationConsistencyUnderAppends pins the advertised-generation
// contract while a writer bumps the generation mid-flight: every /v1/
// response carries X-Rovista-Generation, and because a synthesized store's
// generation equals its round count, a /v1/rounds body must list exactly
// that many rounds — a response can never be older (or newer) than its
// advertised generation.
func TestGenerationConsistencyUnderAppends(t *testing.T) {
	st := newTestStore(t, 20, 2)
	h := New(st, Config{}).Handler()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/v1/rounds", nil)
				req.RemoteAddr = fmt.Sprintf("10.1.0.%d:99", g)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("GET /v1/rounds = %d", w.Code)
					return
				}
				gen, err := strconv.ParseUint(w.Header().Get(generationHeader), 10, 64)
				if err != nil {
					t.Errorf("bad %s header %q", generationHeader, w.Header().Get(generationHeader))
					return
				}
				var body struct {
					Rounds []json.RawMessage `json:"rounds"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					t.Errorf("bad body: %v", err)
					return
				}
				if uint64(len(body.Rounds)) != gen {
					t.Errorf("response advertises generation %d but lists %d rounds", gen, len(body.Rounds))
					return
				}
			}
		}(g)
	}
	for r := 0; r < 30; r++ {
		rec := &store.RoundRecord{Day: 100 + r}
		rec.Entries = []store.Entry{{ASN: 1001, Centi: uint16(r * 50), VVPs: 2, TNodesMeasured: 5}}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// failingWriter simulates a client that disconnects mid-response: writes
// succeed for the first `remaining` bytes, then error.
type failingWriter struct {
	*httptest.ResponseRecorder
	remaining int
}

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, fmt.Errorf("client gone")
	}
	if len(b) > w.remaining {
		n, _ := w.ResponseRecorder.Write(b[:w.remaining])
		w.remaining = 0
		return n, fmt.Errorf("client gone")
	}
	w.remaining -= len(b)
	return w.ResponseRecorder.Write(b)
}

// TestClientWriteErrorNotCached guards against cache poisoning: a client
// write failure must not reach the cache. A miss renders the whole body
// before the first byte goes to the client, so the entry the failed
// request stored is complete and the retry is a cache hit carrying the
// full dataset.
func TestClientWriteErrorNotCached(t *testing.T) {
	st := newTestStore(t, 40, 5)
	s := New(st, Config{})
	h := s.Handler()
	const path = "/v1/export"

	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.RemoteAddr = "192.0.2.1:12345"
	fw := &failingWriter{ResponseRecorder: httptest.NewRecorder(), remaining: 64}
	h.ServeHTTP(fw, req)
	if fw.remaining != 0 {
		t.Fatalf("test broken: response shorter than the failure point (%d bytes left)", fw.remaining)
	}
	if got := fw.Body.Len(); got != 64 {
		t.Fatalf("client received %d bytes, want the 64 before the failure", got)
	}

	// Same generation, same key: a hit, serving the full body.
	w := get(t, h, path)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s after failed write = %d", path, w.Code)
	}
	if hits := s.Metrics.CacheHits.Load(); hits != 1 {
		t.Fatalf("retry after a client write failure: %d cache hits, want 1", hits)
	}
	var want bytes.Buffer
	if err := DatasetFromRecord(st.Latest()).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("cached body after a client write failure is %d bytes, want the full %d-byte dataset", w.Body.Len(), want.Len())
	}
}

// TestCacheNeverServesAnotherGeneration is the shard-consistency probe: a
// writer fills one key at generation g = 2, 3, … while readers ask for
// whatever generation is current, and every hit must carry the body
// computed at the generation the reader asked for. A cache whose get
// loaded the shard generation and its segments separately could pair g's
// generation check with g+1's freshly published segment, and serve was
// then already committed to X-Rovista-Generation: g.
func TestCacheNeverServesAnotherGeneration(t *testing.T) {
	c := newGenCache(0, nil, nil)
	const key = "/v1/as/1000"
	body := func(g uint64) []byte { return strconv.AppendUint(nil, g, 10) }
	const last = 200_000
	var gen atomic.Uint64
	gen.Store(1)
	var done atomic.Bool
	var wrong, hits atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				g := gen.Load()
				if e, ok := c.get(g, key); ok {
					hits.Add(1)
					if !bytes.Equal(e.body, body(g)) {
						wrong.Add(1)
					}
				}
			}
		}()
	}
	for g := uint64(2); g <= last; g++ {
		c.put(g, key, cacheEntry{status: http.StatusOK, body: body(g)})
		gen.Store(g)
	}
	done.Store(true)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d cache hits returned a body from another generation", n, hits.Load())
	}
}
