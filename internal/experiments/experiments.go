// Package experiments regenerates every table and figure from the paper's
// evaluation (the experiment index lives in DESIGN.md). Each experiment
// builds a seeded world, runs the relevant pipeline, returns a typed result
// for programmatic checks, and can render itself as the rows/series the
// paper reports.
//
// Absolute numbers come from simulated Internets a fraction of the real
// one's size; the shapes — who wins, rough factors, crossovers — are the
// reproduction targets (see EXPERIMENTS.md for the paper-vs-measured log).
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/topology"
)

// mediumWorld returns a measurement-friendly world: big enough for
// distributional figures, small enough that a full RoVista round stays in
// the seconds range.
func mediumWorld(seed int64) core.WorldConfig {
	cfg := core.DefaultWorldConfig(seed)
	cfg.Topology = topology.Config{
		Seed:          seed,
		NumTier1:      6,
		NumTier2:      24,
		NumTier3:      90,
		NumStub:       280,
		PrefixesPerAS: 1.3,
		Tier2PeerProb: 0.3,
		Tier3PeerProb: 0.03,
		MultihomeProb: 0.45,
	}
	cfg.Days = 600
	cfg.HostsPerAS = 4
	cfg.InvalidAnnouncements = 10
	cfg.CoveredInvalidAnnouncements = 2
	cfg.SharedInvalidAnnouncements = 3
	return cfg
}

// smallWorld returns the test-sized world used by longitudinal experiments
// (many measurement rounds).
func smallWorld(seed int64) core.WorldConfig {
	return core.SmallWorldConfig(seed)
}

func mustWorld(cfg core.WorldConfig) *core.World {
	w, err := core.BuildWorld(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: building world: %v", err))
	}
	return w
}

// round installs msgs on r's world and measures one round, both through a
// stream.LiveSink, the one place a round happens, so the round monitor
// checks it.
func round(r *core.Runner, msgs ...core.Msg) *core.Snapshot {
	sink := &stream.LiveSink{W: r.W, Runner: r}
	for _, m := range msgs {
		if err := sink.Apply(m); err != nil {
			panic(err)
		}
	}
	snap, err := sink.Round()
	mustBeHealthy(sink, err)
	return snap
}

// measureAt moves w to day and measures it with a fresh paper-default
// runner at seed (round).
func measureAt(w *core.World, day int, seed int64) (*core.Runner, *core.Snapshot) {
	r := core.NewRunner(w, core.DefaultRunnerConfig(seed))
	return r, round(r, core.Msg{Advance: true, Day: day})
}

// timeline measures every interval-th day of w's timeline from day 0 with
// one paper-default runner at seed, through the sink's day loop.
func timeline(w *core.World, seed int64, interval int) *core.Timeline {
	sink := &stream.LiveSink{W: w, Runner: core.NewRunner(w, core.DefaultRunnerConfig(seed))}
	tl, err := sink.RunDays(context.Background(), 0, interval, w.Cfg.Days/interval+1)
	mustBeHealthy(sink, err)
	return tl
}

// mustBeHealthy panics on err or once a round of sink's has failed the
// round monitor, as every experiment does on a failure.
func mustBeHealthy(sink *stream.LiveSink, err error) {
	if err == nil {
		err = sink.Healthy()
	}
	if err != nil {
		panic(err)
	}
}

func sortedKeys(m map[inet.ASN]float64) []inet.ASN {
	out := make([]inet.ASN, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// percent formats a fraction as a percentage string.
func percent(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
