// Package rovista is the public API of the RoVista reproduction: a
// simulation-backed implementation of "RoVista: Measuring and Analyzing the
// Route Origin Validation (ROV) in RPKI" (IMC 2023).
//
// The package wraps three layers:
//
//   - world construction: a synthetic Internet (AS topology, RPKI objects,
//     per-AS ROV policies, end hosts with IP-ID counters) that evolves over
//     simulated days;
//   - the measurement pipeline: collector snapshots select exclusively
//     RPKI-invalid test prefixes, ZMap-style scans qualify tNodes and vVPs,
//     and IP-ID side-channel rounds classify per-(vVP, tNode) reachability;
//   - scoring and analysis: per-AS ROV protection scores, longitudinal
//     timelines, collateral benefit/damage detection, and the baselines the
//     paper compares against.
//
// Quick start:
//
//	w, err := rovista.BuildWorld(rovista.SmallWorldConfig(1))
//	if err != nil { ... }
//	if err := w.AdvanceTo(0); err != nil { ... }
//	runner := rovista.NewRunner(w, rovista.DefaultRunnerConfig(1))
//	// A round runs through a LiveSink, round monitor included:
//	sink := &rovista.LiveSink{W: w, Runner: runner}
//	snap, err := sink.Round()
//	if err != nil || sink.Healthy() != nil { ... }
//	for asn, score := range snap.Scores() { ... }
//	// Later changes reach the world through one door, a message each:
//	if err := sink.Apply(rovista.Msg{Advance: true, Day: 30}); err != nil { ... }
//	snap, err = sink.Round() // re-measures only what the message moved
//	// A series of days is one call:
//	tl, err := sink.RunDays(ctx, 60, 30, 4) // days 60, 90, 120, 150
//
// The deeper layers (BGP engine, RPKI validation, the discrete-event packet
// simulator, the Appendix-A spike detector) live under internal/ and are
// documented there; this package re-exports the surfaces a downstream user
// needs to build and measure worlds.
package rovista

import (
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/topology"
)

// ASN is an Autonomous System Number.
type ASN = inet.ASN

// WorldConfig controls world generation; see the field docs in
// internal/core for the full knob list.
type WorldConfig = core.WorldConfig

// World is a simulated Internet plus its evolution schedule.
type World = core.World

// Msg is one change to a live world (a day advance, a VRP set, route
// events); World.Apply installs it.
type Msg = core.Msg

// Truth is the generator-side ground truth about one AS's ROV policy.
type Truth = core.Truth

// InvalidAnn is one scheduled misconfigured (RPKI-invalid) announcement.
type InvalidAnn = core.InvalidAnn

// RunnerConfig tunes the measurement pipeline: the background cutoff, the
// minimum vVPs per AS and tNodes per round, the seed, whether raw pair
// results are kept, the worker count and a progress callback. The per-pair
// round is the paper's fixed schedule (§4.3). The fault profile belongs to
// the world's network (WorldConfig.Faults, or Network.ArmFaults), and so do
// the countermeasures it brings: retried pairs and re-qualified vVPs.
type RunnerConfig = core.RunnerConfig

// Runner executes measurement rounds against a world. A persistent Runner
// re-measures only what changed since its last round; a fresh Runner, or
// ForceFullRound, is the from-scratch round, with bit-identical results.
type Runner = core.Runner

// Metrics holds one round's observability data: per-stage wall-clock
// timings and pair counters (Snapshot.Metrics).
type Metrics = pipeline.Metrics

// Snapshot is one full measurement round's results.
type Snapshot = core.Snapshot

// ASReport is the per-AS outcome of a round, including the ROV protection
// score and per-tNode verdicts.
type ASReport = core.ASReport

// Timeline is a longitudinal sequence of snapshots.
type Timeline = core.Timeline

// LiveSink is where a round happens: Apply installs a message on the world,
// Round measures, archives and publishes, and checks the round's
// invariants (Healthy reports a failure); RunDays is a day series.
type LiveSink = stream.LiveSink

// TopologyConfig controls synthetic AS-graph generation.
type TopologyConfig = topology.Config

// BuildWorld constructs a world from cfg.
func BuildWorld(cfg WorldConfig) (*World, error) { return core.BuildWorld(cfg) }

// SmallWorldConfig returns a fast ~124-AS world (tests, examples).
func SmallWorldConfig(seed int64) WorldConfig { return core.SmallWorldConfig(seed) }

// NewRunner creates a measurement runner over a world.
func NewRunner(w *World, cfg RunnerConfig) *Runner { return core.NewRunner(w, cfg) }

// DefaultRunnerConfig returns the paper-default pipeline settings.
func DefaultRunnerConfig(seed int64) RunnerConfig { return core.DefaultRunnerConfig(seed) }
