// Package api is rovistad's query layer: an http.Server-ready handler that
// serves the longitudinal store to dashboards and bulk consumers — per-AS
// current score and timeseries, top-N rankings, cross-round diffs, and the
// same CSV/JSON datasets internal/export publishes offline. Reads go
// through a generation-keyed cache that self-invalidates when the
// measurement loop appends a round, a per-client token bucket sheds abusive
// traffic, and /metrics + /debug/pprof expose the serving path itself.
package api

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/export"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// RateBurst is the per-client token-bucket size; 0 or negative
	// disables rate limiting entirely (benchmarks, trusted frontends).
	RateBurst int
	// RateRefill is the per-client refill rate in tokens/second
	// (default: RateBurst per second).
	RateRefill float64
	// CacheMaxEntries bounds the response cache (default 4096 entries).
	CacheMaxEntries int
	// WhatIf, when set, answers GET /v1/whatif counterfactual queries
	// ("what changes if AS X deploys ROV / drops a route / gets hijacked").
	// The hook receives the raw query parameters and returns the JSON
	// payload; errors render as 400. The daemon backs it with a
	// copy-on-write overlay of the live world, serialized against the
	// measurement loop — which is why /v1/whatif bypasses the
	// generation-keyed cache: its answers track the live graph, not the
	// published store generation.
	WhatIf func(q url.Values) (any, error)
	// Health, when set, is asked by every GET /healthz: while it returns
	// an error the endpoint answers 503 with it. The daemon backs it with
	// its live-round monitor.
	Health func() error
	// Stream, when set, backs GET /v1/stream: each subscriber gets a
	// Server-Sent Events feed of per-round score deltas from this hub,
	// optionally narrowed by ?asn= and ?min_delta= filters. Like
	// /v1/whatif, the endpoint lives outside the generation cache — a
	// subscription is a live connection, not a cacheable response — and it
	// never touches the query-path cache shards.
	Stream *stream.Hub
	// now overrides the clock in tests.
	now func() time.Time
}

// Server serves ROV queries over a store. Construct with New; the zero
// value is not usable.
type Server struct {
	st      *store.Store
	mux     *http.ServeMux
	cache   *genCache
	limiter *rateLimiter
	now     func() time.Time
	whatIf  func(q url.Values) (any, error)
	health  func() error
	hub     *stream.Hub
	// streamBuf is each SSE subscription's hub buffer (default 16;
	// tests shrink it to force eviction).
	streamBuf int
	// streamKeepalive is the SSE keepalive-comment interval.
	streamKeepalive time.Duration

	// genHdr caches the rendered X-Rovista-Generation header value for
	// the current generation, so the cached read path stays free of
	// integer formatting allocations.
	genHdr atomic.Pointer[genHeader]

	// Metrics is the server's live counter set: the top-level members of
	// /metrics' "rovistad" object.
	Metrics *Metrics
	// sections are the named sub-objects beside them: the hub's
	// ("stream_hub") when there is one, and whatever the owner Registers.
	sections telemetry.Registry
}

type genHeader struct {
	gen  uint64
	vals []string
}

// New builds a Server over st.
func New(st *store.Store, cfg Config) *Server {
	s := &Server{
		st:              st,
		mux:             http.NewServeMux(),
		limiter:         newRateLimiter(cfg.RateBurst, cfg.RateRefill),
		now:             cfg.now,
		whatIf:          cfg.WhatIf,
		health:          cfg.Health,
		hub:             cfg.Stream,
		streamBuf:       16,
		streamKeepalive: 15 * time.Second,
		Metrics:         &Metrics{},
	}
	s.cache = newGenCache(cfg.CacheMaxEntries, &s.Metrics.CacheShardResets, &s.Metrics.CacheShardRotations)
	if s.now == nil {
		s.now = time.Now
	}
	if s.hub != nil {
		s.Register("stream_hub", s.hub)
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/as/{asn}", s.handleAS)
	s.mux.HandleFunc("GET /v1/as/{asn}/timeseries", s.handleTimeseries)
	s.mux.HandleFunc("GET /v1/top", s.handleTop)
	s.mux.HandleFunc("GET /v1/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/export", s.handleExport)
	s.mux.HandleFunc("GET /v1/rounds", s.handleRounds)
	s.mux.HandleFunc("GET /v1/whatif", s.handleWhatIf)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Register adds src to this server's /metrics as the section "rovistad".name.
// The daemon registers the subsystems it runs beside the server: converge,
// rounds, stream_pipeline, stream_sink.
func (s *Server) Register(name string, src telemetry.Source) { s.sections.Register(name, src) }

// WriteMetrics is /metrics' "rovistad" object: the server's own counters,
// the store's publication counter, then every registered section.
func (s *Server) WriteMetrics(w *telemetry.Writer) {
	s.Metrics.WriteMetrics(w)
	w.Uint("store_snapshot_publishes", s.st.SnapshotPublishes())
	s.sections.WriteMetrics(w)
}

// handleMetrics answers in expvar's shape — the process-wide variables the
// standard library publishes (cmdline, memstats), then "rovistad" — but
// renders the last from this server's own sources: two servers in one
// process each report themselves.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := []byte("{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		buf = fmt.Appendf(buf, "%q: %s,\n", kv.Key, kv.Value)
	})
	buf = append(buf, `"rovistad": `...)
	buf = telemetry.AppendJSON(buf, s)
	buf = append(buf, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(buf)
}

// Handler returns the server's root handler: rate limiting, then the
// read-through cache, then the endpoint mux.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

// viewCtxKey carries the request's store.View through the mux so every
// handler resolves against the same generation the front end advertised.
type viewCtxKey struct{}

// viewOf returns the request's pinned store view, or a fresh one for the
// uncached endpoints (healthz) that are not routed through the cache path.
func (s *Server) viewOf(r *http.Request) store.View {
	if v, ok := r.Context().Value(viewCtxKey{}).(store.View); ok {
		return v
	}
	return s.st.View()
}

// genHeaderVals returns the pre-rendered X-Rovista-Generation value slice
// for gen, reformatting only when the generation moved.
func (s *Server) genHeaderVals(gen uint64) []string {
	if h := s.genHdr.Load(); h != nil && h.gen == gen {
		return h.vals
	}
	h := &genHeader{gen: gen, vals: []string{strconv.FormatUint(gen, 10)}}
	s.genHdr.Store(h)
	return h.vals
}

// generationHeader is the response header advertising the store generation
// a /v1/ response was computed from. The view-pinning contract makes it
// exact: the body always reflects precisely this generation — never an
// older one, and (unlike the pre-snapshot code) never a newer one either.
const generationHeader = "X-Rovista-Generation"

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	s.Metrics.Requests.Add(1)
	if r.URL.Path != "/v1/stream" { // a held-open connection, not a latency: see Metrics.latency
		defer func() { s.Metrics.latency.Record(int64(s.now().Sub(start))) }()
	}

	if !s.limiter.allow(clientKey(r.RemoteAddr), start) {
		s.Metrics.RateLimited.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}

	// Only the data-plane endpoints go through the cache: health, metrics
	// and pprof must always reflect the live process. /v1/whatif answers
	// from the live world, and /v1/stream is a held-open push connection —
	// neither may be cached (or even rendered into a missBuffer).
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/") &&
		r.URL.Path != "/v1/whatif" && r.URL.Path != "/v1/stream" {
		// One atomic load pins the whole request to a consistent
		// snapshot: the generation used as the cache key and the data
		// the handlers read cannot disagree.
		view := s.st.View()
		gen := view.Generation()
		key := r.URL.RequestURI()
		w.Header()[generationHeader] = s.genHeaderVals(gen)
		if e, ok := s.cache.get(gen, key); ok {
			s.Metrics.CacheHits.Add(1)
			w.Header().Set("Content-Type", e.contentType)
			w.WriteHeader(e.status)
			w.Write(e.body)
			return
		}
		s.Metrics.CacheMisses.Add(1)
		m := &missBuffer{header: w.Header()}
		s.mux.ServeHTTP(m, r.WithContext(context.WithValue(r.Context(), viewCtxKey{}, view)))
		if m.status >= 500 {
			s.Metrics.Errors.Add(1)
		}
		if m.status != 0 {
			w.WriteHeader(m.status)
		}
		w.Write(m.body)
		if m.status == http.StatusOK {
			s.cache.put(gen, key, cacheEntry{
				status:      m.status,
				contentType: w.Header().Get("Content-Type"),
				body:        m.body,
			})
		}
		return
	}
	s.mux.ServeHTTP(w, r)
}

// writeJSON / writeError are the response helpers every endpoint uses. A
// body is compact: exactly json.Marshal(v) followed by a newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	view := s.viewOf(r)
	body := map[string]any{
		"status":     "ok",
		"rounds":     view.Rounds(),
		"generation": view.Generation(),
	}
	code := http.StatusOK
	if s.health != nil {
		if err := s.health(); err != nil {
			code, body["status"], body["error"] = http.StatusServiceUnavailable, "unhealthy", err.Error()
		}
	}
	writeJSON(w, code, body)
}

// handleWhatIf answers counterfactual queries through the configured hook.
// The endpoint is deliberately outside the generation cache: answers are
// computed against the live world (via a copy-on-write overlay), so two
// queries at the same store generation may legitimately differ.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if s.whatIf == nil {
		writeError(w, http.StatusServiceUnavailable, "what-if engine not attached (daemon not measuring live)")
		return
	}
	s.Metrics.WhatIfQueries.Add(1)
	res, err := s.whatIf(r.URL.Query())
	if err != nil {
		s.Metrics.WhatIfErrors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// parseASN pulls the {asn} path value.
func parseASN(r *http.Request) (inet.ASN, error) {
	v, err := strconv.ParseUint(r.PathValue("asn"), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad asn %q", r.PathValue("asn"))
	}
	return inet.ASN(v), nil
}

// parseRound resolves an optional ?round= parameter ("latest" or absent →
// the newest round) against the request's pinned view.
func parseRound(view store.View, r *http.Request) (int, error) {
	q := r.URL.Query().Get("round")
	if q == "" || q == "latest" {
		return view.Rounds() - 1, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 || n >= view.Rounds() {
		return 0, fmt.Errorf("round %q outside history [0, %d)", q, view.Rounds())
	}
	return n, nil
}

// asResponse is the per-AS current-score payload.
type asResponse struct {
	ASN            uint32  `json:"asn"`
	Round          uint32  `json:"round"`
	Day            int     `json:"day"`
	Score          float64 `json:"rov_protection_score"`
	VVPs           int     `json:"vvps"`
	TNodesMeasured int     `json:"tnodes_measured"`
	TNodesFiltered int     `json:"tnodes_filtered"`
	Unanimous      bool    `json:"unanimous"`
	RoundStatus    string  `json:"round_status"`
}

func (s *Server) handleAS(w http.ResponseWriter, r *http.Request) {
	asn, err := parseASN(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	view := s.viewOf(r)
	p, ok := view.Current(asn)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("AS%d was never scored", asn))
		return
	}
	rec := view.Round(int(p.Round))
	e, _ := rec.Entry(asn)
	writeJSON(w, http.StatusOK, asResponse{
		ASN:            uint32(asn),
		Round:          p.Round,
		Day:            rec.Day,
		Score:          e.Score(),
		VVPs:           int(e.VVPs),
		TNodesMeasured: int(e.TNodesMeasured),
		TNodesFiltered: int(e.TNodesFiltered),
		Unanimous:      e.Unanimous,
		RoundStatus:    rec.Status.String(),
	})
}

// seriesPoint is one round of an AS's history: its index, day and score.
type seriesPoint struct {
	Round uint32  `json:"round"`
	Day   int     `json:"day"`
	Score float64 `json:"score"`
}

// timeseriesResponse is the per-AS history payload.
type timeseriesResponse struct {
	ASN    uint32        `json:"asn"`
	Points []seriesPoint `json:"points"`
}

func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	asn, err := parseASN(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	view := s.viewOf(r)
	hist := view.Series(asn)
	if len(hist) == 0 {
		writeError(w, http.StatusNotFound, fmt.Sprintf("AS%d was never scored", asn))
		return
	}
	points := make([]seriesPoint, len(hist))
	for i, p := range hist {
		points[i] = seriesPoint{Round: p.Round, Day: view.Round(int(p.Round)).Day, Score: p.Score()}
	}
	writeJSON(w, http.StatusOK, timeseriesResponse{ASN: uint32(asn), Points: points})
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	view := s.viewOf(r)
	latest := view.Latest()
	if latest == nil {
		writeError(w, http.StatusNotFound, "store is empty")
		return
	}
	n := 25
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad n %q", q))
			return
		}
		n = v
	}
	protected := true
	switch order := r.URL.Query().Get("order"); order {
	case "", "protected":
	case "unprotected":
		protected = false
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad order %q (want protected or unprotected)", order))
		return
	}
	top := view.TopN(n, protected)
	records := make([]export.ScoreRecord, len(top))
	for i, e := range top {
		records[i] = scoreRecord(e)
	}
	order := "protected"
	if !protected {
		order = "unprotected"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"round":   latest.Round,
		"day":     latest.Day,
		"order":   order,
		"records": records,
	})
}

// diffChange is one AS's movement between the two requested rounds.
type diffChange struct {
	ASN       uint32  `json:"asn"`
	FromScore float64 `json:"from_score"`
	ToScore   float64 `json:"to_score"`
	Appeared  bool    `json:"appeared,omitempty"`
	Vanished  bool    `json:"vanished,omitempty"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	view := s.viewOf(r)
	q := r.URL.Query()
	// resolve accepts a round index or "latest"; absence is an error for
	// from= (a diff needs an explicit baseline) but means latest for to=.
	resolve := func(v string) (int, error) {
		if v == "latest" {
			return view.Rounds() - 1, nil
		}
		return strconv.Atoi(v)
	}
	from, err1 := resolve(q.Get("from"))
	toStr := q.Get("to")
	if toStr == "" {
		toStr = "latest"
	}
	to, err2 := resolve(toStr)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, "diff needs from= and to= rounds (integer or \"latest\")")
		return
	}
	diff, err := view.Diff(from, to)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	changes := make([]diffChange, len(diff))
	for i, d := range diff {
		changes[i] = diffChange{
			ASN:       uint32(d.ASN),
			FromScore: d.From.Score(),
			ToScore:   d.To.Score(),
			Appeared:  d.Appeared,
			Vanished:  d.Vanished,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"from": from, "to": to, "changed": changes})
}

// scoreRecord converts a store entry into the published record shape.
func scoreRecord(e store.Entry) export.ScoreRecord {
	return export.ScoreRecord{
		ASN:            uint32(e.ASN),
		Score:          e.Score(),
		VVPs:           int(e.VVPs),
		TNodesMeasured: int(e.TNodesMeasured),
		TNodesFiltered: int(e.TNodesFiltered),
		Unanimous:      e.Unanimous,
	}
}

// DatasetFromRecord renders an archived round in the exact dataset shape
// internal/export publishes offline, canonical ordering included — the
// bulk endpoint and the CLI exporter must stay byte-compatible.
func DatasetFromRecord(rec *store.RoundRecord) *export.Dataset {
	d := &export.Dataset{
		Format:      export.FormatVersion,
		Day:         rec.Day,
		TNodes:      rec.TNodes,
		Consistency: rec.Consistency(),
	}
	d.Records = make([]export.ScoreRecord, len(rec.Entries))
	for i, e := range rec.Entries {
		d.Records[i] = scoreRecord(e)
	}
	d.Sort()
	return d
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	view := s.viewOf(r)
	round, err := parseRound(view, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec := view.Round(round)
	if rec == nil {
		writeError(w, http.StatusNotFound, "store is empty")
		return
	}
	d := DatasetFromRecord(rec)
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := d.WriteJSON(w); err != nil {
			s.Metrics.Errors.Add(1)
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := d.WriteCSV(w); err != nil {
			s.Metrics.Errors.Add(1)
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad format %q (want json or csv)", format))
	}
}

// roundSummary is the provenance view: everything needed to judge whether
// a round's scores are trustworthy, without the per-AS bulk.
type roundSummary struct {
	Round        uint32         `json:"round"`
	Day          int            `json:"day"`
	Status       string         `json:"status"`
	ASes         int            `json:"ases"`
	TestPrefixes int            `json:"test_prefixes"`
	TNodes       int            `json:"tnodes"`
	AllVVPs      int            `json:"all_vvps"`
	Consistency  float64        `json:"consistency"`
	Evidence     store.Evidence `json:"evidence"`
}

func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	view := s.viewOf(r)
	n := view.Rounds()
	out := make([]roundSummary, n)
	for i := 0; i < n; i++ {
		rec := view.Round(i)
		out[i] = roundSummary{
			Round:        rec.Round,
			Day:          rec.Day,
			Status:       rec.Status.String(),
			ASes:         len(rec.Entries),
			TestPrefixes: rec.TestPrefixes,
			TNodes:       rec.TNodes,
			AllVVPs:      rec.AllVVPs,
			Consistency:  rec.Consistency(),
			Evidence:     rec.Evidence,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"rounds": out})
}
