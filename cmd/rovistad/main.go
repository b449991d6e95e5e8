// Command rovistad is the RoVista serving daemon: it runs the longitudinal
// measurement loop in the background — building a simulated Internet,
// measuring a round every -interval simulated days, appending each round to
// the snapshot store — while concurrently serving the query API over the
// accumulated history. This is the repo's miniature of the paper's public
// service: continuously refreshed per-AS ROV scores behind an HTTP API.
//
// Usage:
//
//	rovistad [-addr :8080] [-store DIR] [-seed N] [-size small|smoke|medium|large]
//	         [-rounds N] [-interval D] [-period DUR] [-workers N]
//	         [-faults none|paper|harsh] [-rate-burst N] [-rate-refill R]
//	         [-compact-every N] [-synth AxR] [-incremental] [-full-every N]
//	         [-contention-profile] [-stream mrt:<path>|synth|rtr:<addr>]
//	         [-stream-window S] [-stream-rate R] [-stream-events N]
//	         [-stream-speed X] [-stream-interval DUR]
//
// With -stream, rounds are driven by a live event stream instead of the
// day-advance loop: an internal/stream pipeline (source → coalesce → sink)
// batches route churn into one dirty-scope window per -stream-window virtual
// seconds and applies each batch through incremental convergence and
// re-scoring under the same worldMu the query path honours. Sources: replay
// of concatenated MRT RIB archives at -stream-speed× archive time, the
// seeded deterministic synthetic churn generator, or serial-notify polling
// of an RTR cache. Live modes (with or without -stream) also attach a score
// fan-out hub: GET /v1/stream is an SSE feed of per-round score deltas
// (filters: ?asn=, ?min_delta=), pushed after every measured round.
//
// Rounds are incremental by default: test-prefix verdicts, pair results and
// AS scores whose routing context is unchanged since the previous round are
// reused (epoch-stamped), so a low-churn round costs O(churn) rather than
// O(world). Every -full-every rounds the daemon forces a from-scratch round
// as a self-check; cumulative pairs_reused / pairs_remeasured /
// full_rounds_forced / test_prefixes_reevaluated / tnodes_requalified /
// ases_rescored counters are exposed under the "rounds" key of /metrics.
//
// When measuring live (not -synth), GET /v1/whatif answers counterfactual
// queries — "what changes if AS X deploys ROV / drops a route / gets
// hijacked / leaks" — against a copy-on-write overlay of the live world:
// the overlay shares the base graph's memory, re-converges only the dirty
// cone, and is discarded after the answer, so queries never mutate or block
// the serving path (they briefly serialize with round boundaries only).
//
// SIGINT/SIGTERM shut the daemon down gracefully: the measurement loop
// stops at the next round boundary, in-flight requests drain, the store is
// closed cleanly, and the exit code is 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/netsec-lab/rovista/internal/api"
	"github.com/netsec-lab/rovista/internal/campaign"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rovistad:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "", "snapshot store directory (default: a fresh temp dir)")
	seed := flag.Int64("seed", 1, "world generation seed")
	size := flag.String("size", "smoke", "world size: small, smoke (~200 ASes), medium or large")
	rounds := flag.Int("rounds", 0, "measurement rounds to run (0 = until the timeline ends)")
	interval := flag.Int("interval", 5, "simulated days between rounds")
	period := flag.Duration("period", 0, "wall-clock pause between rounds (0 = continuous)")
	workers := flag.Int("workers", 0, "pair-measurement workers (0 = all CPUs)")
	faultsName := flag.String("faults", "none", "fault-injection profile: none, paper or harsh")
	rateBurst := flag.Int("rate-burst", 100, "per-client rate-limit burst (0 disables limiting)")
	rateRefill := flag.Float64("rate-refill", 50, "per-client rate-limit refill tokens/sec")
	compactEvery := flag.Int("compact-every", 0, "compact the store every N appended rounds (0 = never)")
	synth := flag.String("synth", "", "skip measurement: pre-populate the store with AxR synthetic ASes×rounds (e.g. 1000x50) and serve that")
	incremental := flag.Bool("incremental", true, "reuse unchanged pair results between rounds (epoch-keyed cache)")
	fullEvery := flag.Int("full-every", 10, "force a from-scratch round every N rounds (0 = never)")
	contention := flag.Bool("contention-profile", false, "record mutex and block profiles (view at /debug/pprof via expvar tooling; small steady-state cost)")
	streamSpec := flag.String("stream", "", "drive rounds from a live event stream instead of the day-advance loop: mrt:<path>, synth, or rtr:<addr>")
	streamWindow := flag.Float64("stream-window", 2.0, "stream coalescing window in virtual seconds (one incremental round per window)")
	streamRate := flag.Float64("stream-rate", 10, "synth stream: events per virtual second")
	streamEvents := flag.Int("stream-events", 0, "synth stream: stop after N events (0 = endless)")
	streamSpeed := flag.Float64("stream-speed", 60, "mrt stream: replay speedup over archive timestamps")
	streamInterval := flag.Duration("stream-interval", 100*time.Millisecond, "wall pacing: synth inter-event gap / rtr poll period")
	flag.Parse()
	if *streamSpec != "" && *synth != "" {
		return fmt.Errorf("-stream needs live measurement; drop -synth")
	}

	if *contention {
		// Full-rate sampling: the serving path is designed to take zero
		// locks on cached reads, so an empty mutex/block profile under load
		// is the claim being verified, not an artifact of sampling.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1)
		log.Printf("contention profiling on (mutex fraction 1, block rate 1ns)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := *storeDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "rovistad-store-"); err != nil {
			return err
		}
		log.Printf("store: %s (temporary)", dir)
	}
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		return err
	}
	defer st.Close()
	if st.Rounds() > 0 {
		log.Printf("store: resumed %d archived rounds from %s", st.Rounds(), dir)
	}

	loopDone := make(chan struct{})
	// convergeStats, when live-measuring, exposes the convergence engine's
	// counters (events applied, ASes touched, re-converge latency quantiles)
	// under the "converge" key of the /metrics expvar snapshot.
	var convergeStats func() map[string]any
	// hub fans live score deltas out to /v1/stream subscribers. Live modes
	// always attach it — every measured round publishes its movement — so
	// dashboards watch scores change without polling. Synth-serving mode has
	// no rounds, hence no hub (/v1/stream then answers 503).
	var hub *stream.Hub
	// whatIfHook answers /v1/whatif when the daemon measures live. worldMu
	// serializes counterfactual overlay forks against the measurement loop:
	// an overlay shares the base graph's memory and is only coherent while
	// the base is frozen, so the two never interleave.
	var (
		worldMu    sync.Mutex
		whatIfHook func(q url.Values) (any, error)
	)
	if *synth != "" {
		var ases, nRounds int
		if _, err := fmt.Sscanf(*synth, "%dx%d", &ases, &nRounds); err != nil || ases <= 0 || nRounds <= 0 {
			return fmt.Errorf("bad -synth %q (want ASESxROUNDS, e.g. 1000x50)", *synth)
		}
		if err := store.Synthesize(st, store.SynthConfig{ASes: ases, Rounds: nRounds, Seed: *seed}); err != nil {
			return err
		}
		log.Printf("synthesized %d rounds over %d ASes", nRounds, ases)
		close(loopDone)
	} else {
		runner, nTotal, err := buildRunner(*size, *seed, *workers, *faultsName, *rounds, *interval)
		if err != nil {
			return err
		}
		runner.Cfg.Incremental = *incremental
		rstats := &roundStats{fullEvery: *fullEvery}
		stats := runner.W.Graph.Stats()
		hub = stream.NewHub()
		pub := &deltaPublisher{hub: hub}
		var pipe *stream.Pipeline
		var sink *stream.LiveSink
		convergeStats = func() map[string]any {
			out := map[string]any{
				"converge": stats.Snapshot(),
				"rounds":   rstats.snapshot(),
			}
			if pipe != nil {
				out["stream_pipeline"] = pipe.Snapshot()
				out["stream_sink"] = sink.Snapshot()
			}
			return out
		}
		whatIf := &campaign.WhatIfEngine{W: runner.W}
		whatIfHook = func(q url.Values) (any, error) {
			wq, err := parseWhatIfQuery(q)
			if err != nil {
				return nil, err
			}
			worldMu.Lock()
			defer worldMu.Unlock()
			return whatIf.Query(wq)
		}
		measure := func(r int) error {
			worldMu.Lock()
			defer worldMu.Unlock()
			return measureRound(runner, st, r, *interval, rstats, pub)
		}
		// The first round runs before the listener opens so the API never
		// serves an empty store.
		if st.Rounds() == 0 {
			if err := measure(0); err != nil {
				return err
			}
		}
		if *streamSpec != "" {
			// Streamed rounds: the event pipeline replaces the day-advance
			// loop. Each coalesced batch is applied through incremental
			// convergence + re-scoring under worldMu, appended to the store,
			// and its score deltas pushed to /v1/stream subscribers.
			src, err := buildStreamSource(*streamSpec, runner.W, *seed,
				*streamRate, *streamEvents, *streamSpeed, *streamInterval)
			if err != nil {
				return err
			}
			sink = &stream.LiveSink{
				W:      runner.W,
				Runner: runner,
				Mu:     &worldMu,
				Append: func(snap *core.Snapshot) error { return st.Append(store.FromSnapshot(snap)) },
				Hub:    hub,
			}
			sink.SeedScores(pub.round, pub.prev) // continue from the baseline round, if any
			pipe = stream.NewPipeline(0, src,
				&stream.CoalesceStage{Window: *streamWindow, MaxDelay: time.Second},
				sink)
			log.Printf("streaming rounds from %s (window %.3gs virtual)", *streamSpec, *streamWindow)
			go func() {
				defer close(loopDone)
				if err := pipe.Run(ctx); err != nil {
					log.Printf("stream pipeline: %v", err)
					return
				}
				log.Printf("stream drained after %d streamed rounds; still serving", sink.Rounds.Load())
			}()
		} else {
			go func() {
				defer close(loopDone)
				for r := st.Rounds(); r < nTotal; r++ {
					if *period > 0 {
						select {
						case <-ctx.Done():
							return
						case <-time.After(*period):
						}
					} else if ctx.Err() != nil {
						return
					}
					if err := measure(r); err != nil {
						log.Printf("measurement loop: %v", err)
						return
					}
					if *compactEvery > 0 && (r+1)%*compactEvery == 0 {
						if err := st.Compact(); err != nil {
							log.Printf("compaction: %v", err)
							return
						}
						log.Printf("round %d: compacted store", r)
					}
				}
				log.Printf("measurement loop finished after %d rounds; still serving", st.Rounds())
			}()
		}
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: api.New(st, api.Config{
			RateBurst:  *rateBurst,
			RateRefill: *rateRefill,
			Extra:      convergeStats,
			WhatIf:     whatIfHook,
			Stream:     hub,
		}).Handler(),
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("serving on http://%s (%d rounds archived)", ln.Addr(), st.Rounds())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second ^C kills hard
	log.Printf("shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-loopDone
	log.Printf("stopped cleanly with %d rounds archived", st.Rounds())
	return st.Close()
}

// parseWhatIfQuery maps /v1/whatif query parameters onto a campaign
// counterfactual: ?action=deploy-rov&asn=N, ?action=drop-route&asn=N&prefix=P,
// ?action=hijack&attacker=N&prefix=P[&victim=M], ?action=leak&asn=N.
func parseWhatIfQuery(q url.Values) (campaign.WhatIfQuery, error) {
	var out campaign.WhatIfQuery
	out.Action = q.Get("action")
	if out.Action == "" {
		return out, fmt.Errorf("missing ?action= (deploy-rov, drop-route, hijack, or leak)")
	}
	asn := func(key string) (inet.ASN, error) {
		v := q.Get(key)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad %s %q", key, v)
		}
		return inet.ASN(n), nil
	}
	var err error
	if out.ASN, err = asn("asn"); err != nil {
		return out, err
	}
	if out.Attacker, err = asn("attacker"); err != nil {
		return out, err
	}
	if out.Victim, err = asn("victim"); err != nil {
		return out, err
	}
	if v := q.Get("prefix"); v != "" {
		p, err := netip.ParsePrefix(v)
		if err != nil {
			return out, fmt.Errorf("bad prefix %q", v)
		}
		out.Prefix = p
	}
	return out, nil
}

// roundStats accumulates the measurement loop's incremental-round counters.
// The loop goroutine writes while /metrics handlers read, so every counter
// is atomic.
type roundStats struct {
	fullEvery                                              int
	rounds, pairsReused, pairsRemeasured, fullRoundsForced atomic.Int64
	prefixesReevaluated, tnodesRequalified, asesRescored   atomic.Int64
	simEvents                                              atomic.Int64
}

// add folds one round's reuse counters in.
func (s *roundStats) add(m *pipeline.Metrics) {
	s.rounds.Add(1)
	s.pairsReused.Add(int64(m.PairsReused))
	s.pairsRemeasured.Add(int64(m.PairsRemeasured))
	s.simEvents.Add(m.SimEvents)
	s.prefixesReevaluated.Add(int64(m.TestPrefixesReevaluated))
	s.tnodesRequalified.Add(int64(m.TNodesRequalified))
	s.asesRescored.Add(int64(m.ASesRescored))
}

func (s *roundStats) snapshot() map[string]any {
	return map[string]any{
		"measured":           s.rounds.Load(),
		"pairs_reused":       s.pairsReused.Load(),
		"pairs_remeasured":   s.pairsRemeasured.Load(),
		"sim_events":         s.simEvents.Load(),
		"full_rounds_forced": s.fullRoundsForced.Load(),

		"test_prefixes_reevaluated": s.prefixesReevaluated.Load(),
		"tnodes_requalified":        s.tnodesRequalified.Load(),
		"ases_rescored":             s.asesRescored.Load(),
	}
}

// deltaPublisher diffs consecutive rounds' scores and fans the movement out
// to /v1/stream subscribers. Callers serialize via worldMu (measureRound
// runs under it), so the prev map needs no lock of its own.
type deltaPublisher struct {
	hub   *stream.Hub
	round uint32
	prev  map[inet.ASN]float64
}

func (p *deltaPublisher) publish(snap *core.Snapshot) {
	cur := snap.Scores()
	if deltas := stream.DiffScores(p.prev, cur); len(deltas) > 0 {
		p.round++
		p.hub.Publish(stream.Update{Round: p.round, Day: snap.Day, Deltas: deltas})
	}
	p.prev = cur
}

// buildStreamSource maps a -stream spec to a pipeline source stage.
func buildStreamSource(spec string, w *core.World, seed int64, rate float64, events int, speed float64, interval time.Duration) (stream.Stage, error) {
	switch {
	case spec == "synth":
		return &stream.SynthSource{
			Seed:     seed,
			Origins:  stream.WorldOrigins(w),
			Rate:     rate,
			Count:    events,
			Interval: interval,
		}, nil
	case strings.HasPrefix(spec, "mrt:"):
		return &stream.MRTReplaySource{Path: strings.TrimPrefix(spec, "mrt:"), Speed: speed}, nil
	case strings.HasPrefix(spec, "rtr:"):
		addr := strings.TrimPrefix(spec, "rtr:")
		return &stream.RTRSource{
			Dial: func() (io.ReadWriter, error) { return net.Dial("tcp", addr) },
			Poll: interval,
		}, nil
	default:
		return nil, fmt.Errorf("bad -stream %q (want mrt:<path>, synth, or rtr:<addr>)", spec)
	}
}

// measureRound advances the world to round r's day, measures, and appends.
// Every stats.fullEvery rounds it forces a from-scratch round, so a stale
// cache entry (which the equivalence tests say cannot exist) could never
// persist in the archive for more than fullEvery-1 rounds.
func measureRound(runner *core.Runner, st *store.Store, r, interval int, stats *roundStats, pub *deltaPublisher) error {
	day := r * interval
	if day > runner.W.Cfg.Days {
		day = runner.W.Cfg.Days
	}
	if err := runner.W.AdvanceTo(day); err != nil {
		return err
	}
	if stats.fullEvery > 0 && r > 0 && r%stats.fullEvery == 0 {
		runner.ForceFullRound()
		stats.fullRoundsForced.Add(1)
	}
	snap := runner.Measure()
	if err := st.Append(store.FromSnapshot(snap)); err != nil {
		return err
	}
	m := snap.Metrics
	stats.add(m)
	if pub != nil {
		pub.publish(snap)
	}
	log.Printf("round %d (day %d): %d ASes scored, status=%s, pairs reused=%d remeasured=%d, prefixes re-evaluated=%d, ASes rescored=%d",
		r, day, len(snap.Reports), snap.Status, m.PairsReused, m.PairsRemeasured, m.TestPrefixesReevaluated, m.ASesRescored)
	return nil
}

// buildRunner constructs the world and runner, returning the total round
// count the loop should produce.
func buildRunner(size string, seed int64, workers int, faultsName string, rounds, interval int) (*core.Runner, int, error) {
	cfg, err := worldConfig(size, seed)
	if err != nil {
		return nil, 0, err
	}
	profile, err := faults.ByName(faultsName)
	if err != nil {
		return nil, 0, err
	}
	cfg.Faults = profile
	w, err := core.BuildWorld(cfg)
	if err != nil {
		return nil, 0, err
	}
	rcfg := core.DefaultRunnerConfig(seed)
	rcfg.Workers = workers
	if profile.Enabled() {
		rcfg.Faults = profile
		rcfg.PairRetries = 2
		rcfg.RetryBackoff = 2
		rcfg.RequalifyVVPs = true
	}
	if rounds <= 0 {
		rounds = cfg.Days/interval + 1
	}
	log.Printf("world: %d ASes, %d hosts; %d rounds every %d days", len(w.Topo.ASNs), w.Net.Hosts(), rounds, interval)
	return core.NewRunner(w, rcfg), rounds, nil
}

// worldConfig mirrors cmd/rovista's sizes plus "smoke": a ~200-AS world
// small enough for CI's serve-smoke job yet big enough that every endpoint
// has data.
func worldConfig(size string, seed int64) (core.WorldConfig, error) {
	switch size {
	case "small":
		return core.SmallWorldConfig(seed), nil
	case "smoke":
		cfg := core.SmallWorldConfig(seed)
		cfg.Topology = topology.Config{
			Seed: seed, NumTier1: 4, NumTier2: 16, NumTier3: 60, NumStub: 120,
			PrefixesPerAS: 1.2, Tier2PeerProb: 0.3, Tier3PeerProb: 0.04, MultihomeProb: 0.4,
		}
		return cfg, nil
	case "medium":
		cfg := core.DefaultWorldConfig(seed)
		cfg.Topology = topology.Config{
			Seed: seed, NumTier1: 6, NumTier2: 24, NumTier3: 90, NumStub: 280,
			PrefixesPerAS: 1.3, Tier2PeerProb: 0.3, Tier3PeerProb: 0.03, MultihomeProb: 0.45,
		}
		return cfg, nil
	case "large":
		return core.DefaultWorldConfig(seed), nil
	default:
		return core.WorldConfig{}, fmt.Errorf("unknown size %q (want small, smoke, medium or large)", size)
	}
}
