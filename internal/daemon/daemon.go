// Package daemon is rovistad's lifecycle as a type: Open builds everything a
// serving daemon needs (store, world, runner, the first archived round, a
// bound listener), Run drives measurement rounds and the query API until
// its context is cancelled, then shuts both down in order. cmd/rovistad is
// flag parsing around it; the tests here drive it in-process on port 0.
//
// A round happens in exactly one place, stream.LiveSink, in the daemon as in
// every batch program. The daemon only chooses what feeds it — the world's
// day schedule (stream.DaySource) or a live event stream (-stream) — so the
// self-check, append, publication, counters and log line that hang off the
// sink are the same in both modes.
package daemon

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/api"
	"github.com/netsec-lab/rovista/internal/campaign"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

// Config is rovistad's flag set, one field per flag (cmd/rovistad documents
// each).
type Config struct {
	Addr         string
	Store        string
	Seed         int64
	Size         string
	Rounds       int
	Interval     int
	Period       time.Duration
	Workers      int
	Faults       string
	RateBurst    int
	RateRefill   float64
	CompactEvery int
	Synth        string
	FullEvery    int

	ContentionProfile bool

	Stream         string
	StreamWindow   float64
	StreamRate     float64
	StreamEvents   int
	StreamSpeed    float64
	StreamInterval time.Duration
}

// Daemon is an opened rovistad: its store holds at least one round and its
// listener is bound, but nothing is served or measured until Run.
type Daemon struct {
	cfg Config
	st  *store.Store
	ln  net.Listener
	srv *http.Server

	// The rest is set only when measuring live (not -synth).

	// worldMu is held by the sink for the whole of a round and by a
	// /v1/whatif query for the whole of its overlay fork: an overlay shares
	// the base graph's memory and is only coherent while the base is frozen.
	worldMu sync.Mutex
	pipe    *stream.Pipeline
	// sink is the pipeline's LiveSink; its round monitor backs /healthz.
	sink *stream.LiveSink
	// rounds is /metrics' "rounds" section: the sink's OnRound adds to it
	// while handlers read.
	rounds roundCounters
}

// roundCounters accumulates each round's pipeline.Metrics since Open.
type roundCounters struct {
	measured                atomic.Int64
	fullRoundsForced        atomic.Int64
	pairsReused             atomic.Int64
	pairsRemeasured         atomic.Int64
	pairsRevalidated        atomic.Int64
	pairsRestored           atomic.Int64
	simEvents               atomic.Int64
	testPrefixesReevaluated atomic.Int64
	tnodesRequalified       atomic.Int64
	asesRescored            atomic.Int64
}

func (c *roundCounters) WriteMetrics(w *telemetry.Writer) {
	w.Int("measured", c.measured.Load())
	w.Int("full_rounds_forced", c.fullRoundsForced.Load())
	w.Int("pairs_reused", c.pairsReused.Load())
	w.Int("pairs_remeasured", c.pairsRemeasured.Load())
	w.Int("pairs_revalidated", c.pairsRevalidated.Load())
	w.Int("pairs_restored", c.pairsRestored.Load())
	w.Int("sim_events", c.simEvents.Load())
	w.Int("test_prefixes_reevaluated", c.testPrefixesReevaluated.Load())
	w.Int("tnodes_requalified", c.tnodesRequalified.Load())
	w.Int("ases_rescored", c.asesRescored.Load())
}

// Open validates cfg, opens (or resumes) the store, builds the world and
// runner, makes sure the store holds a round — measuring the day-0 baseline
// into an empty one, advancing the world to the latest archived day
// otherwise — and binds the listener, so the API never serves an empty
// store and Addr is known before Run.
func Open(cfg Config) (_ *Daemon, err error) {
	switch {
	case cfg.Stream != "" && cfg.Synth != "":
		return nil, fmt.Errorf("-stream needs live measurement; drop -synth")
	case cfg.Stream == "" && cfg.Synth == "" && (cfg.Interval < 0 || cfg.Interval == 0 && cfg.Rounds <= 0):
		return nil, fmt.Errorf("bad -interval %d (want > 0, or 0 with -rounds N to re-measure one day)", cfg.Interval)
	}
	if cfg.ContentionProfile {
		// Full-rate sampling: the serving path is designed to take zero
		// locks on cached reads, so an empty mutex/block profile under load
		// is the claim being verified, not an artifact of sampling.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1)
		log.Printf("contention profiling on (mutex fraction 1, block rate 1ns)")
	}

	dir := cfg.Store
	if dir == "" {
		if dir, err = os.MkdirTemp("", "rovistad-store-"); err != nil {
			return nil, err
		}
		log.Printf("store: %s (temporary)", dir)
	}
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	if st.Rounds() > 0 {
		log.Printf("store: resumed %d archived rounds from %s", st.Rounds(), dir)
	}

	d := &Daemon{cfg: cfg, st: st}
	apiCfg := api.Config{RateBurst: cfg.RateBurst, RateRefill: cfg.RateRefill}
	var srv *api.Server
	if cfg.Synth != "" {
		// Synth-serving mode has no rounds, hence no hub (/v1/stream then
		// answers 503), no what-if and no round metrics.
		var ases, rounds int
		if _, err := fmt.Sscanf(cfg.Synth, "%dx%d", &ases, &rounds); err != nil || ases <= 0 || rounds <= 0 {
			return nil, fmt.Errorf("bad -synth %q (want ASESxROUNDS, e.g. 1000x50)", cfg.Synth)
		}
		if err := store.Synthesize(st, store.SynthConfig{ASes: ases, Rounds: rounds, Seed: cfg.Seed}); err != nil {
			return nil, err
		}
		log.Printf("synthesized %d rounds over %d ASes", rounds, ases)
		srv = api.New(st, apiCfg)
	} else if srv, err = d.openLive(apiCfg); err != nil {
		return nil, err
	}

	if d.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, err
	}
	// Requests inherit a context that Shutdown cancels: an SSE subscriber
	// is a request that never finishes on its own, and would otherwise hold
	// the drain until its timeout.
	reqCtx, endRequests := context.WithCancel(context.Background())
	d.srv = &http.Server{
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	d.srv.RegisterOnShutdown(endRequests)
	return d, nil
}

// openLive builds the measuring half — world, runner, the round pipeline —
// and the api server with the hooks and /metrics sections that read them.
func (d *Daemon) openLive(apiCfg api.Config) (*api.Server, error) {
	cfg := d.cfg
	w, rcfg, err := core.BuildNamed(cfg.Size, cfg.Seed, cfg.Faults, cfg.Workers)
	if err != nil {
		return nil, err
	}
	runner := core.NewRunner(w, rcfg)
	log.Printf("world: %d ASes, %d hosts", len(w.Topo.ASNs), w.Net.Hosts())

	hub := stream.NewHub()
	newSink := func() *stream.LiveSink {
		return &stream.LiveSink{
			W: w, Runner: runner, Mu: &d.worldMu,
			Append: d.appendRound, Hub: hub, OnRound: d.observeRound,
			FullEvery: cfg.FullEvery, Archived: d.st.Rounds,
		}
	}

	// Rounds always continue an archive: an empty store gets the day-0
	// baseline first (through a sink of its own, so stream_sink counts only
	// what Run's pipeline delivers), a populated one has the world brought
	// to its latest day. Seeding the sink from the archive alone is what
	// makes the SSE id a function of the archived round index and keeps a
	// restart from publishing every AS as "appeared".
	if d.st.Rounds() == 0 {
		baseline := stream.NewPipeline(0, &stream.DaySource{Count: 1}, newSink())
		if err := baseline.Run(context.Background()); err != nil {
			return nil, err
		}
	} else if err := w.AdvanceTo(d.st.Latest().Day); err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	d.sink = newSink()
	d.sink.SeedScores(uint32(d.st.Rounds()), archivedScores(d.st.Latest()))

	if cfg.Stream == "" {
		total := cfg.Rounds
		if total <= 0 {
			total = w.Cfg.Days/cfg.Interval + 1
		}
		log.Printf("measuring %d rounds every %d days", total, cfg.Interval)
		d.pipe = stream.NewPipeline(0, &stream.DaySource{
			Start: d.st.Rounds(), Count: total - d.st.Rounds(),
			Interval: cfg.Interval, LastDay: w.Cfg.Days, Period: cfg.Period,
		}, d.sink)
	} else {
		src, err := streamSource(cfg, w)
		if err != nil {
			return nil, err
		}
		log.Printf("streaming rounds from %s (window %.3gs virtual)", cfg.Stream, cfg.StreamWindow)
		d.pipe = stream.NewPipeline(0, src,
			&stream.CoalesceStage{Window: cfg.StreamWindow, MaxDelay: time.Second}, d.sink)
	}

	whatIf := &campaign.WhatIfEngine{W: w}
	apiCfg.WhatIf = func(q url.Values) (any, error) {
		wq, err := parseWhatIfQuery(q)
		if err != nil {
			return nil, err
		}
		d.worldMu.Lock()
		defer d.worldMu.Unlock()
		return whatIf.Query(wq)
	}
	apiCfg.Stream = hub
	apiCfg.Health = d.sink.Healthy
	srv := api.New(d.st, apiCfg)
	srv.Register("converge", w.Graph.Stats())
	srv.Register("rounds", &d.rounds)
	srv.Register("stream_pipeline", d.pipe)
	srv.Register("stream_sink", d.sink)
	return srv, nil
}

// streamSource maps the -stream spec to a pipeline source stage.
func streamSource(cfg Config, w *core.World) (stream.Stage, error) {
	switch spec := cfg.Stream; {
	case spec == "synth":
		// Flap any origination but the measurement clients' own: with
		// their prefix withdrawn no probe can be answered, and every later
		// round is insufficient-tnodes for as long as the daemon runs.
		var origins []stream.Origin
		for _, o := range stream.WorldOrigins(w) {
			if !o.Prefix.Contains(w.ClientA.Addr) && !o.Prefix.Contains(w.ClientB.Addr) {
				origins = append(origins, o)
			}
		}
		return &stream.SynthSource{
			Seed:     cfg.Seed,
			Origins:  origins,
			Rate:     cfg.StreamRate,
			Count:    cfg.StreamEvents,
			Interval: cfg.StreamInterval,
		}, nil
	case strings.HasPrefix(spec, "mrt:"):
		return &stream.MRTReplaySource{Path: strings.TrimPrefix(spec, "mrt:"), Speed: cfg.StreamSpeed}, nil
	case strings.HasPrefix(spec, "rtr:"):
		addr := strings.TrimPrefix(spec, "rtr:")
		return &stream.RTRSource{
			Dial: func() (io.ReadWriter, error) { return net.Dial("tcp", addr) },
			Poll: cfg.StreamInterval,
		}, nil
	default:
		return nil, fmt.Errorf("bad -stream %q (want mrt:<path>, synth, or rtr:<addr>)", spec)
	}
}

// archivedScores recovers a round's exact scores from its record's tNode
// counts: the stored centi-score is rounded, and a delta baseline seeded
// with rounded values would report every AS with a fractional score as
// moved.
func archivedScores(rec *store.RoundRecord) map[inet.ASN]float64 {
	out := make(map[inet.ASN]float64, len(rec.Entries))
	for _, e := range rec.Entries {
		out[e.ASN] = pipeline.ProtectionScore(int(e.TNodesFiltered), int(e.TNodesMeasured))
	}
	return out
}

// appendRound archives a round and, every -compact-every rounds, compacts
// the store. The sink calls it under worldMu.
func (d *Daemon) appendRound(snap *core.Snapshot) error {
	if err := d.st.Append(store.FromSnapshot(snap)); err != nil {
		return err
	}
	if n := d.cfg.CompactEvery; n > 0 && d.st.Rounds()%n == 0 {
		if err := d.st.Compact(); err != nil {
			return fmt.Errorf("compaction: %w", err)
		}
		log.Printf("round %d: compacted store", d.st.Rounds()-1)
	}
	return nil
}

// observeRound is the sink's OnRound: the /metrics counters and the
// per-round log line.
func (d *Daemon) observeRound(snap *core.Snapshot) {
	m := snap.Metrics
	c := &d.rounds
	c.measured.Add(1)
	if m.FullRound {
		c.fullRoundsForced.Add(1)
	}
	c.pairsReused.Add(int64(m.PairsReused))
	c.pairsRemeasured.Add(int64(m.PairsRemeasured))
	c.pairsRevalidated.Add(int64(m.PairsRevalidated))
	c.pairsRestored.Add(int64(m.PairsRestored))
	c.simEvents.Add(m.SimEvents)
	c.testPrefixesReevaluated.Add(int64(m.TestPrefixesReevaluated))
	c.tnodesRequalified.Add(int64(m.TNodesRequalified))
	c.asesRescored.Add(int64(m.ASesRescored))
	log.Printf("round %d (day %d): %d ASes scored, status=%s, pairs reused=%d (revalidated=%d restored=%d) remeasured=%d, prefixes re-evaluated=%d, ASes rescored=%d",
		d.st.Rounds()-1, snap.Day, len(snap.Reports), snap.Status, m.PairsReused, m.PairsRevalidated, m.PairsRestored, m.PairsRemeasured, m.TestPrefixesReevaluated, m.ASesRescored)
}

// Addr is the bound listen address (useful with -addr host:0).
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Run serves the API and drives rounds until ctx is cancelled or the
// listener fails. On cancellation the round pipeline stops at the next
// round boundary, in-flight requests drain, the store is closed, and Run
// returns nil; no goroutine it started is left running. When the round
// source runs dry first the daemon keeps serving what it archived.
func (d *Daemon) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	log.Printf("serving on http://%s (%d rounds archived)", d.Addr(), d.st.Rounds())
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.srv.Serve(d.ln) }()
	roundsDone := make(chan struct{})
	go func() {
		defer close(roundsDone)
		if d.pipe == nil {
			return
		}
		if err := d.pipe.Run(ctx); err != nil {
			log.Printf("round pipeline: %v", err)
		} else if ctx.Err() == nil {
			log.Printf("round source drained with %d rounds archived; still serving", d.st.Rounds())
		}
	}()

	var err error
	select {
	case err = <-serveErr: // before Shutdown, Serve only returns a real error
	case <-ctx.Done():
		log.Printf("shutting down: draining in-flight requests")
	}
	cancel()
	drainCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if serr := d.srv.Shutdown(drainCtx); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err == nil {
		<-serveErr // http.ErrServerClosed: the Serve goroutine is gone
	}
	<-roundsDone
	rounds := d.st.Rounds()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		log.Printf("stopped cleanly with %d rounds archived", rounds)
	}
	return err
}
