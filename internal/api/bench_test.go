package api

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
)

// nullResponseWriter discards the response body without the allocation
// churn of httptest.ResponseRecorder — the benchmark measures the server,
// not the recorder.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// benchRequests builds the mixed read workload: mostly point lookups, a
// steady diet of rankings and timeseries, occasional bulk exports and
// diffs — the shape a public score dashboard plus a few bulk consumers
// puts on the service.
func benchRequests(ases, rounds int) []*http.Request {
	var reqs []*http.Request
	add := func(n int, pattern string, args ...any) {
		for i := 0; i < n; i++ {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, fmt.Sprintf(pattern, args...), nil))
		}
	}
	for i := 0; i < 40; i++ {
		add(1, "/v1/as/%d", 1000+(i*37)%ases)
	}
	for i := 0; i < 15; i++ {
		add(1, "/v1/as/%d/timeseries", 1000+(i*53)%ases)
	}
	add(15, "/v1/top?n=25")
	add(5, "/v1/top?n=100&order=unprotected")
	add(10, "/v1/diff?from=%d&to=%d", rounds/2, rounds-1)
	add(5, "/v1/export?format=json")
	add(5, "/v1/export?format=csv")
	add(5, "/v1/rounds")
	return reqs
}

// benchServe drives the mixed read workload against a populated 1k-AS,
// 50-round store with rate limiting off (the dashboard frontend is a
// trusted client). parallel runs GOMAXPROCS client goroutines via
// RunParallel; storm runs a background writer appending a round every few
// milliseconds during the timed region, so the measured path includes
// generation bumps and the cache-invalidation misses they force.
// Reported metrics: ns/op (wall time per request), qps (aggregate
// throughput; duplicated as qps-parallel for the parallel variant so the
// distilled report can compare serial vs parallel directly), and
// p50-us/p99-us/p999-us per-request latency quantiles.
func benchServe(b *testing.B, parallel, storm bool) {
	st, err := store.Open(b.TempDir(), store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const ases, rounds = 1000, 50
	if err := store.Synthesize(st, store.SynthConfig{ASes: ases, Rounds: rounds, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	h := New(st, Config{RateBurst: 0}).Handler()
	template := benchRequests(ases, rounds)

	// Warm the generation cache so the steady serving state is measured,
	// not the first-touch misses (the storm variant re-dirties it anyway;
	// that is the point).
	for _, req := range template {
		w := &nullResponseWriter{}
		h.ServeHTTP(w, req.Clone(req.Context()))
	}

	if storm {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			seed := int64(100)
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					seed++
					if err := store.Synthesize(st, store.SynthConfig{ASes: ases, Rounds: 1, Seed: seed}); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		defer func() { close(stop); <-done }()
	}

	var mu sync.Mutex
	var lats []float64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			// Per-goroutine request copies: ServeMux pattern matching
			// writes into the request, so sharing across goroutines would
			// race.
			reqs := make([]*http.Request, len(template))
			for i, req := range template {
				reqs[i] = req.Clone(req.Context())
			}
			w := &nullResponseWriter{}
			local := make([]float64, 0, 1<<14)
			i := 0
			for pb.Next() {
				t0 := time.Now()
				h.ServeHTTP(w, reqs[i%len(reqs)])
				local = append(local, float64(time.Since(t0).Nanoseconds())/1e3)
				i++
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		})
	} else {
		reqs := make([]*http.Request, len(template))
		for i, req := range template {
			reqs[i] = req.Clone(req.Context())
		}
		w := &nullResponseWriter{}
		lats = make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			h.ServeHTTP(w, reqs[i%len(reqs)])
			lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()

	qps := float64(b.N) / elapsed.Seconds()
	b.ReportMetric(qps, "qps")
	if parallel {
		b.ReportMetric(qps, "qps-parallel")
	}
	b.ReportMetric(quantile(lats, 0.50), "p50-us")
	b.ReportMetric(quantile(lats, 0.99), "p99-us")
	b.ReportMetric(quantile(lats, 0.999), "p999-us")
}

// quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics, the definition BENCH_serve.json's
// p50/p99/p999 are recorded under. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestQuantile pins quantile's interpolating definition.
func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// BenchmarkServeQueriesSerial is the single-client baseline.
func BenchmarkServeQueriesSerial(b *testing.B) { benchServe(b, false, false) }

// BenchmarkServeQueriesParallel is the contention probe: GOMAXPROCS client
// goroutines against one server. With the lock-free read path, aggregate
// qps should scale with cores (at GOMAXPROCS=1 it can only show parity
// with the serial baseline).
func BenchmarkServeQueriesParallel(b *testing.B) { benchServe(b, true, false) }

// BenchmarkServeQueriesAppendStorm is the parallel probe with a writer
// appending a round every 5ms mid-load — each append bumps the store
// generation, forcing cache-shard resets and re-renders while reads
// continue against the previous immutable snapshot.
func BenchmarkServeQueriesAppendStorm(b *testing.B) { benchServe(b, true, true) }

// fanoutWriter is the in-process ResponseWriter and Flusher of one
// /v1/stream subscriber of BenchmarkServeSSEFanout: it reads a frame's round
// off the "id: " line of the Write that carries it and, when the handler
// flushes, records how long ago that round was published.
type fanoutWriter struct {
	h         http.Header
	round     int         // of the frame written and not yet flushed; 0: none
	published []time.Time // per round, stamped before Publish
	lats      []float64   // µs
	flushed   func()
}

func (w *fanoutWriter) Header() http.Header { return w.h }
func (w *fanoutWriter) WriteHeader(int)     {}
func (w *fanoutWriter) Write(p []byte) (int, error) {
	if rest, ok := bytes.CutPrefix(p, []byte("id: ")); ok {
		w.round, _ = strconv.Atoi(string(rest[:bytes.IndexByte(rest, '\n')]))
	}
	return len(p), nil
}
func (w *fanoutWriter) Flush() {
	if w.round == 0 {
		return
	}
	w.lats = append(w.lats, float64(time.Since(w.published[w.round-1]).Nanoseconds())/1e3)
	w.round = 0
	w.flushed()
}

// BenchmarkServeSSEFanout measures a round's push to 1000 live /v1/stream
// subscribers (the population of a busy dashboard), each a real handler on
// Server.Handler() writing to an in-process connection — so the cost is the
// hub's fan-out plus whatever every handler does per frame, not the hub
// alone. One iteration publishes one 32-delta round and waits until the last
// subscriber has flushed its frame (closed loop: nobody is ever evicted).
// Reported: ns/op (publish → flushed everywhere), qps (rounds/s) and
// sub-p99-us (p99 publish → flush at one subscriber), the "how stale is a
// pushed score" number that the subscriber side of the load harness
// cross-checks over real HTTP.
func BenchmarkServeSSEFanout(b *testing.B) {
	const subscribers = 1000
	srv, hub := streamServer(b)
	h := srv.Handler()
	update := stream.Update{Deltas: make([]stream.ScoreDelta, 32)}
	for i := range update.Deltas {
		update.Deltas[i] = stream.ScoreDelta{ASN: inet.ASN(i + 1), Old: float64(i), New: float64(i) + 0.5}
	}

	published := make([]time.Time, b.N)
	var flushes atomic.Int64
	roundDone := make(chan struct{})
	flushed := func() {
		if flushes.Add(1)%subscribers == 0 {
			roundDone <- struct{}{}
		}
	}
	writers := make([]*fanoutWriter, subscribers)
	hangUp := make([]context.CancelFunc, subscribers)
	var wg sync.WaitGroup
	for i := range writers {
		w := &fanoutWriter{h: http.Header{}, published: published, flushed: flushed}
		writers[i] = w
		// A context of its own, as a connection has: one shared Done channel
		// would have every handler's select contend on its lock.
		ctx, cancel := context.WithCancel(context.Background())
		hangUp[i] = cancel
		req := httptest.NewRequest(http.MethodGet, "/v1/stream", nil).WithContext(ctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(w, req)
		}()
	}
	waitFor(b, "subscriptions", func() bool { return hub.Subscribers.Load() == subscribers })

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		u := update
		u.Round = uint32(i + 1)
		published[i] = time.Now()
		hub.Publish(u)
		<-roundDone
	}
	elapsed := time.Since(start)
	b.StopTimer()
	for _, cancel := range hangUp {
		cancel()
	}
	wg.Wait()

	var lats []float64
	for _, w := range writers {
		lats = append(lats, w.lats...)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
	b.ReportMetric(quantile(lats, 0.99), "sub-p99-us")
	if n := len(lats); n != b.N*subscribers || hub.Evictions.Load() != 0 {
		b.Fatalf("%d frames flushed, %d evictions; want %d and 0", n, hub.Evictions.Load(), b.N*subscribers)
	}
}
