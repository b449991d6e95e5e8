package api

import (
	"sync/atomic"

	"github.com/netsec-lab/rovista/internal/telemetry"
)

// Metrics is the server's own counters: requests, cache, rate limiting and
// a latency histogram from which p50/p99 are derived on demand. All writes
// are lock-free (hot path).
type Metrics struct {
	Requests    atomic.Int64
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	RateLimited atomic.Int64
	Errors      atomic.Int64 // 5xx responses

	// WhatIfQueries / WhatIfErrors count /v1/whatif traffic: the endpoint
	// bypasses the generation cache, so its cost profile (an overlay fork
	// plus a bounded re-convergence per query) deserves its own counters.
	WhatIfQueries atomic.Int64
	WhatIfErrors  atomic.Int64

	// StreamClients is the live /v1/stream connection gauge; StreamEvicted
	// counts SSE subscribers dropped for falling behind the fan-out.
	StreamClients atomic.Int64
	StreamEvicted atomic.Int64

	// CacheShardResets counts cache shards dropped on observing a newer
	// store generation; CacheShardRotations counts capacity overflows
	// that rotated a hot segment to cold. Together they make invalidation
	// storms visible under load.
	CacheShardResets    atomic.Int64
	CacheShardRotations atomic.Int64

	// latency is the time from arrival to the handler's return, in
	// nanoseconds, of every request that is a request: a /v1/stream
	// connection lasts as long as its client stays and is described by
	// StreamClients and the stream_hub section instead.
	latency telemetry.Histogram
}

// WriteMetrics reports the counters and the p50/p99 request latency (µs)
// since the server started.
func (m *Metrics) WriteMetrics(w *telemetry.Writer) {
	w.Int("requests", m.Requests.Load())
	w.Int("cache_hits", m.CacheHits.Load())
	w.Int("cache_misses", m.CacheMisses.Load())
	w.Int("rate_limited", m.RateLimited.Load())
	w.Int("errors", m.Errors.Load())
	w.Int("whatif_queries", m.WhatIfQueries.Load())
	w.Int("whatif_errors", m.WhatIfErrors.Load())
	w.Int("cache_shard_resets", m.CacheShardResets.Load())
	w.Int("cache_shard_rotations", m.CacheShardRotations.Load())
	w.Float("latency_p50_us", float64(m.latency.Quantile(0.50))/1e3)
	w.Float("latency_p99_us", float64(m.latency.Quantile(0.99))/1e3)
	w.Int("stream_clients", m.StreamClients.Load())
	w.Int("stream_evicted", m.StreamEvicted.Load())
}
