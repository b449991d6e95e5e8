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
//	         [-compact-every N] [-synth AxR] [-full-every N]
//	         [-contention-profile] [-stream mrt:<path>|synth|rtr:<addr>]
//	         [-stream-window S] [-stream-rate R] [-stream-events N]
//	         [-stream-speed X] [-stream-interval DUR]
//
// Every round runs through one sink (internal/stream.LiveSink, wired by
// internal/daemon); the flags only choose what feeds it: by default the
// world's own day schedule, with -stream a live event stream whose route
// churn is batched into one dirty-scope window per -stream-window virtual
// seconds. Sources: replay of concatenated MRT RIB archives at
// -stream-speed× archive time, the seeded deterministic synthetic churn
// generator, or serial-notify polling of an RTR cache. Either way GET
// /v1/stream is an SSE feed of per-round score deltas (filters: ?asn=,
// ?min_delta=) whose id is the 1-based index of the archived round a frame
// describes; a restart over the same -store continues archive and ids.
//
// Rounds are incremental: test-prefix verdicts, pair results and AS scores
// whose routing context is unchanged since the previous round are reused
// (epoch-stamped), so a low-churn round costs O(churn) rather than O(world).
// Every -full-every rounds the daemon forces a from-scratch round as a
// self-check, and every -compact-every rounds it compacts the store, in
// both modes; cumulative pairs_reused / pairs_remeasured /
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
// SIGINT/SIGTERM shut the daemon down gracefully: rounds stop at the next
// round boundary, in-flight requests drain, the store is closed cleanly, and
// the exit code is 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netsec-lab/rovista/internal/daemon"
	"github.com/netsec-lab/rovista/internal/faults"
)

func main() {
	var cfg daemon.Config
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.Store, "store", "", "snapshot store directory (default: a fresh temp dir)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "world generation seed")
	flag.StringVar(&cfg.Size, "size", "smoke", "world size: small, smoke (~200 ASes), medium or large")
	flag.IntVar(&cfg.Rounds, "rounds", 0, "measurement rounds to run (0 = until the timeline ends)")
	flag.IntVar(&cfg.Interval, "interval", 5, "simulated days between rounds")
	flag.DurationVar(&cfg.Period, "period", 0, "wall-clock pause between rounds (0 = continuous)")
	flag.IntVar(&cfg.Workers, "workers", 0, "pair-measurement workers (0 = all CPUs)")
	flag.StringVar(&cfg.Faults, "faults", "none", "fault-injection profile: "+strings.Join(faults.Names(), ", "))
	flag.IntVar(&cfg.RateBurst, "rate-burst", 100, "per-client rate-limit burst (0 disables limiting)")
	flag.Float64Var(&cfg.RateRefill, "rate-refill", 50, "per-client rate-limit refill tokens/sec")
	flag.IntVar(&cfg.CompactEvery, "compact-every", 0, "compact the store every N appended rounds (0 = never)")
	flag.StringVar(&cfg.Synth, "synth", "", "skip measurement: pre-populate the store with AxR synthetic ASes×rounds (e.g. 1000x50) and serve that")
	flag.IntVar(&cfg.FullEvery, "full-every", 10, "force a from-scratch round every N rounds (0 = never)")
	flag.BoolVar(&cfg.ContentionProfile, "contention-profile", false, "record mutex and block profiles (view at /debug/pprof via expvar tooling; small steady-state cost)")
	flag.StringVar(&cfg.Stream, "stream", "", "drive rounds from a live event stream instead of the day schedule: mrt:<path>, synth, or rtr:<addr>")
	flag.Float64Var(&cfg.StreamWindow, "stream-window", 2.0, "stream coalescing window in virtual seconds (one incremental round per window)")
	flag.Float64Var(&cfg.StreamRate, "stream-rate", 10, "synth stream: events per virtual second")
	flag.IntVar(&cfg.StreamEvents, "stream-events", 0, "synth stream: stop after N events (0 = endless)")
	flag.Float64Var(&cfg.StreamSpeed, "stream-speed", 60, "mrt stream: replay speedup over archive timestamps")
	flag.DurationVar(&cfg.StreamInterval, "stream-interval", 100*time.Millisecond, "wall pacing: synth inter-event gap / rtr poll period")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // restore default signal behaviour: a second ^C kills hard
	d, err := daemon.Open(cfg)
	if err == nil {
		err = d.Run(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rovistad:", err)
		os.Exit(1)
	}
}
