// Package loadharness drives realistic multi-client load against the
// rovistad serving path and reports throughput and tail latency. It is the
// repo's stand-in for the paper service's real fan-in: the dashboard's
// "millions of users" are modelled as N simulated client connection
// contexts (distinct source IPs, so the rate limiter and its eviction
// machinery are exercised for real) issuing a Zipf-distributed query mix —
// a hot set of popular ASes, cold timeseries pulls, rankings, and the
// occasional bulk export — optionally while a background writer appends
// rounds mid-load to trigger cache-invalidation storms.
//
// The harness can drive an http.Handler in-process (measuring the serving
// path itself, no kernel sockets in the way) or a live daemon over HTTP.
package loadharness

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

// Config shapes a load run.
type Config struct {
	// Clients is the number of simulated client connection contexts, each
	// with a distinct source IP (default 1_000_000). Client selection per
	// request is Zipf-skewed: a hot minority dominates, a long tail keeps
	// first-contact registration and eviction churning.
	Clients int
	// Workers is the number of concurrent driver goroutines
	// (default GOMAXPROCS).
	Workers int
	// Duration bounds the run in wall-clock time (default 5s) unless
	// Requests is set.
	Duration time.Duration
	// Requests, when positive, bounds the run by total request count
	// instead of Duration.
	Requests int64
	// ZipfS is the Zipf skew exponent for hot-AS and hot-client selection
	// (must be > 1; default 1.1 — a few percent of ASes draw most point
	// lookups, matching dashboard traffic).
	ZipfS float64
	// ASes / Rounds describe the population the target serves (used to
	// synthesize request paths; ASNs are FirstASN..FirstASN+ASes-1).
	ASes, Rounds int
	// FirstASN is the lowest ASN in the population (default 1000, the
	// store synthesizer's convention).
	FirstASN int
	// Seed makes the request stream deterministic per worker.
	Seed int64
	// AppendEvery, when positive together with Append, runs a background
	// writer invoking Append on that period — the mid-load invalidation
	// storm.
	AppendEvery time.Duration
	// Append appends one round to the store under test.
	Append func() error
	// Subscribers, together with Hub, adds push-subscription load: that many
	// subscriber goroutines attach to Hub and drain score updates for the
	// whole run, each delivery's publish→receive latency recorded (the
	// staleness of a pushed score at the fan-out layer). The storm writer is
	// the natural publisher: have Append publish an Update per round.
	Subscribers int
	// Hub is the score fan-out the subscribers attach to (in-process runs).
	Hub *stream.Hub
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1_000_000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.ASes <= 0 {
		c.ASes = 1000
	}
	if c.Rounds <= 0 {
		c.Rounds = 50
	}
	if c.FirstASN <= 0 {
		c.FirstASN = 1000
	}
	return c
}

// Report is a load run's outcome.
type Report struct {
	Requests    int64         `json:"requests"`
	Errors      int64         `json:"errors"`       // 5xx or transport failures
	RateLimited int64         `json:"rate_limited"` // 429 responses
	Appends     int64         `json:"appends"`      // storm-writer rounds appended
	Elapsed     time.Duration `json:"-"`
	ElapsedSec  float64       `json:"elapsed_s"`
	QPS         float64       `json:"qps"`
	P50us       float64       `json:"p50_us"`
	P99us       float64       `json:"p99_us"`
	P999us      float64       `json:"p999_us"`
	// AllocsPerReq is heap allocations per request across harness and
	// server combined (in-process runs only; 0 over HTTP).
	AllocsPerReq float64 `json:"allocs_per_req"`

	// Subscriber-side results (zero unless Config.Subscribers was set):
	// deliveries received, subscribers evicted for falling behind, and the
	// p99 publish→receive latency in µs.
	Subscribers int64   `json:"subscribers,omitempty"`
	Deliveries  int64   `json:"deliveries,omitempty"`
	SubEvicted  int64   `json:"sub_evicted,omitempty"`
	SubP99us    float64 `json:"sub_p99_us,omitempty"`
}

func (r Report) String() string {
	s := fmt.Sprintf(
		"%d requests in %.2fs → %.0f qps\nlatency p50 %.1fµs  p99 %.1fµs  p999 %.1fµs\nerrors %d  rate-limited %d  appends %d  allocs/req %.1f",
		r.Requests, r.Elapsed.Seconds(), r.QPS, r.P50us, r.P99us, r.P999us,
		r.Errors, r.RateLimited, r.Appends, r.AllocsPerReq)
	if r.Subscribers > 0 {
		s += fmt.Sprintf("\nsubscribers %d  deliveries %d  evicted %d  delivery p99 %.1fµs",
			r.Subscribers, r.Deliveries, r.SubEvicted, r.SubP99us)
	}
	return s
}

// micros reads a quantile of a nanosecond histogram in the report's unit.
func micros(h *telemetry.Histogram, q float64) float64 {
	return float64(h.Quantile(q)) / float64(time.Microsecond)
}

// opKind is one request archetype in the mix.
type opKind int

const (
	opHotAS opKind = iota
	opColdTimeseries
	opTop
	opRounds
	opDiff
	opExport
)

// pickOp draws from the mix: mostly hot point lookups, a steady diet of
// cold timeseries and rankings, occasional diffs and bulk exports.
func pickOp(rng *rand.Rand) opKind {
	switch r := rng.Intn(100); {
	case r < 50:
		return opHotAS
	case r < 70:
		return opColdTimeseries
	case r < 85:
		return opTop
	case r < 90:
		return opRounds
	case r < 95:
		return opDiff
	default:
		return opExport
	}
}

// target abstracts the two driving modes; it reports the HTTP status (0 on
// transport failure).
type target func(u *url.URL, clientAddr string) int

// paths holds the pre-parsed URL population so the per-request work is a
// couple of RNG draws and one Request allocation.
type paths struct {
	as     []*url.URL // /v1/as/{asn}
	ts     []*url.URL // /v1/as/{asn}/timeseries
	top    *url.URL
	rounds *url.URL
	diff   *url.URL
	export *url.URL
}

func buildPaths(cfg Config) (*paths, error) {
	p := &paths{
		as: make([]*url.URL, cfg.ASes),
		ts: make([]*url.URL, cfg.ASes),
	}
	must := func(raw string) *url.URL {
		u, err := url.Parse(raw)
		if err != nil {
			panic(err) // static paths, cannot fail
		}
		return u
	}
	for i := 0; i < cfg.ASes; i++ {
		asn := strconv.Itoa(cfg.FirstASN + i)
		p.as[i] = must("/v1/as/" + asn)
		p.ts[i] = must("/v1/as/" + asn + "/timeseries")
	}
	p.top = must("/v1/top?n=25")
	p.rounds = must("/v1/rounds")
	p.diff = must("/v1/diff?from=0&to=latest")
	p.export = must("/v1/export?format=json")
	return p, nil
}

// clientAddrs synthesizes one source address per simulated client:
// 10.x.y.z from the client index, a fixed port (the limiter keys on the
// bare IP). This is the "connection context" — what a distinct downstream
// TCP connection would present to the server.
func clientAddrs(n int) []string {
	addrs := make([]string, n)
	var buf [24]byte
	for c := 0; c < n; c++ {
		b := buf[:0]
		b = append(b, "10."...)
		b = strconv.AppendInt(b, int64(c>>16&255), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(c>>8&255), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(c&255), 10)
		b = append(b, ":4242"...)
		addrs[c] = string(b)
	}
	return addrs
}

// Run drives h in-process with cfg's workload and returns the report.
func Run(h http.Handler, cfg Config) (Report, error) {
	do := func(u *url.URL, clientAddr string) int {
		req := &http.Request{
			Method:     http.MethodGet,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Host:       "loadgen",
			RemoteAddr: clientAddr,
		}
		w := &discardWriter{}
		h.ServeHTTP(w, req)
		if w.status == 0 {
			return http.StatusOK
		}
		return w.status
	}
	return run(do, cfg, true)
}

// RunHTTP drives a live server at baseURL (e.g. "http://127.0.0.1:8080")
// over real HTTP. Client identity is the harness process's source address,
// so per-IP rate limiting should be disabled on the target.
func RunHTTP(baseURL string, cfg Config) (Report, error) {
	base, err := url.Parse(baseURL)
	if err != nil {
		return Report{}, fmt.Errorf("loadharness: bad base URL: %w", err)
	}
	cfg = cfg.withDefaults()
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers * 2,
			MaxIdleConnsPerHost: cfg.Workers * 2,
		},
		Timeout: 30 * time.Second,
	}
	do := func(u *url.URL, _ string) int {
		resp, err := client.Get(base.ResolveReference(u).String())
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	return run(do, cfg, false)
}

// discardWriter is the in-process response sink: it keeps the status and
// drops the body without copying.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

func run(do target, cfg Config, inProcess bool) (Report, error) {
	cfg = cfg.withDefaults()
	p, err := buildPaths(cfg)
	if err != nil {
		return Report{}, err
	}
	addrs := clientAddrs(cfg.Clients)

	var (
		requests, errors, limited, appends atomic.Int64
		budget                             atomic.Int64
		stop                               atomic.Bool
	)
	budget.Store(cfg.Requests)

	// Background append storm.
	stormDone := make(chan struct{})
	stormStop := make(chan struct{})
	if cfg.AppendEvery > 0 && cfg.Append != nil {
		go func() {
			defer close(stormDone)
			tick := time.NewTicker(cfg.AppendEvery)
			defer tick.Stop()
			for {
				select {
				case <-stormStop:
					return
				case <-tick.C:
					if err := cfg.Append(); err != nil {
						errors.Add(1)
						return
					}
					appends.Add(1)
				}
			}
		}()
	} else {
		close(stormDone)
	}

	// Push-subscription load: each subscriber drains the hub for the whole
	// run, recording publish→receive latency. Eviction (channel closed by
	// the hub mid-run) ends that subscriber early and is counted — the
	// slow-consumer policy showing up under load is a result, not an error.
	var (
		deliveries, subEvicted atomic.Int64
		subs                   []*stream.Subscriber
		subLat                 telemetry.Histogram
		subWg                  sync.WaitGroup
	)
	if cfg.Hub != nil && cfg.Subscribers > 0 {
		for i := 0; i < cfg.Subscribers; i++ {
			sub := cfg.Hub.Subscribe(stream.SubFilter{}, 256)
			subs = append(subs, sub)
			subWg.Add(1)
			go func(sub *stream.Subscriber) {
				defer subWg.Done()
				for frame := range sub.C {
					subLat.Record(int64(time.Since(frame.At)))
					deliveries.Add(1)
				}
				if sub.Evicted() {
					subEvicted.Add(1)
				}
			}(sub)
		}
	}

	var memBefore runtime.MemStats
	if inProcess {
		runtime.ReadMemStats(&memBefore)
	}

	// One histogram per worker, merged at the end: the workers run flat out
	// and would otherwise share the hot buckets' cache lines.
	hists := make([]telemetry.Histogram, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	if cfg.Requests <= 0 {
		time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	}
	for wk := 0; wk < cfg.Workers; wk++ {
		hist := &hists[wk]
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wk)*0x9e3779b9))
			asZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.ASes-1))
			clientZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Clients-1))
			for {
				if cfg.Requests > 0 {
					if budget.Add(-1) < 0 {
						return
					}
				} else if stop.Load() {
					return
				}
				var u *url.URL
				switch pickOp(rng) {
				case opHotAS:
					u = p.as[asZipf.Uint64()]
				case opColdTimeseries:
					u = p.ts[rng.Intn(cfg.ASes)]
				case opTop:
					u = p.top
				case opRounds:
					u = p.rounds
				case opDiff:
					u = p.diff
				default:
					u = p.export
				}
				addr := addrs[clientZipf.Uint64()]
				t0 := time.Now()
				status := do(u, addr)
				hist.Record(int64(time.Since(t0)))
				requests.Add(1)
				switch {
				case status == 0 || status >= 500:
					errors.Add(1)
				case status == http.StatusTooManyRequests:
					limited.Add(1)
				}
			}
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stormStop)
	<-stormDone
	for _, sub := range subs {
		sub.Close() // idempotent; evicted subscribers are already detached
	}
	subWg.Wait()

	rep := Report{
		Requests:    requests.Load(),
		Errors:      errors.Load(),
		RateLimited: limited.Load(),
		Appends:     appends.Load(),
		Elapsed:     elapsed,
		ElapsedSec:  elapsed.Seconds(),
	}
	if rep.Requests > 0 {
		rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	}
	var lat telemetry.Histogram
	for i := range hists {
		lat.Merge(&hists[i])
	}
	rep.P50us, rep.P99us, rep.P999us = micros(&lat, 0.50), micros(&lat, 0.99), micros(&lat, 0.999)
	if len(subs) > 0 {
		rep.Subscribers = int64(len(subs))
		rep.Deliveries = deliveries.Load()
		rep.SubEvicted = subEvicted.Load()
		rep.SubP99us = micros(&subLat, 0.99)
	}
	if inProcess && rep.Requests > 0 {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		rep.AllocsPerReq = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(rep.Requests)
	}
	return rep, nil
}
