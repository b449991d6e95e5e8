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
//	snap := runner.Measure()
//	for asn, score := range snap.Scores() { ... }
//	// Later changes reach the world through one door, a message each:
//	if err := w.Apply(rovista.Msg{Advance: true, Day: 30}); err != nil { ... }
//	snap = runner.Measure() // re-measures only what the message moved
//
// The deeper layers (BGP engine, RPKI validation, the discrete-event packet
// simulator, the Appendix-A spike detector) live under internal/ and are
// documented there; this package re-exports the surfaces a downstream user
// needs to build and measure worlds.
package rovista

import (
	"io"

	"github.com/netsec-lab/rovista/internal/analysis"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/experiments"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
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

// WorldBuilder assembles a world in explicit stages (RPKI → ROV schedule →
// invalids → hosts → clients/collector) for callers that want to inspect or
// perturb a world mid-construction; BuildWorld runs all stages.
type WorldBuilder = core.WorldBuilder

// NewWorldBuilder validates cfg and returns a stage-by-stage world builder.
func NewWorldBuilder(cfg WorldConfig) (*WorldBuilder, error) { return core.NewWorldBuilder(cfg) }

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

// TopologyConfig controls synthetic AS-graph generation.
type TopologyConfig = topology.Config

// BuildWorld constructs a world from cfg.
func BuildWorld(cfg WorldConfig) (*World, error) { return core.BuildWorld(cfg) }

// SmallWorldConfig returns a fast ~124-AS world (tests, examples).
func SmallWorldConfig(seed int64) WorldConfig { return core.SmallWorldConfig(seed) }

// DefaultWorldConfig returns the full-size (~1200-AS) world.
func DefaultWorldConfig(seed int64) WorldConfig { return core.DefaultWorldConfig(seed) }

// NewRunner creates a measurement runner over a world.
func NewRunner(w *World, cfg RunnerConfig) *Runner { return core.NewRunner(w, cfg) }

// DefaultRunnerConfig returns the paper-default pipeline settings.
func DefaultRunnerConfig(seed int64) RunnerConfig { return core.DefaultRunnerConfig(seed) }

// CDFPoint is one point of a score CDF.
type CDFPoint = analysis.CDFPoint

// ScoreCDF computes the empirical CDF of protection scores (Figure 5).
func ScoreCDF(scores map[ASN]float64) []CDFPoint { return analysis.ScoreCDF(scores) }

// BenefitCohort is a detected collateral-benefit cohort (§7.3).
type BenefitCohort = analysis.BenefitCohort

// DamageCase is a detected collateral-damage case (§7.4).
type DamageCase = analysis.DamageCase

// DetectCollateralDamage runs the §7.4 forensic procedure over a snapshot.
func DetectCollateralDamage(w *World, snap *Snapshot, minScore float64) []DamageCase {
	return analysis.DetectCollateralDamage(w, snap, minScore)
}

// RunExperiment executes one named paper experiment ("fig1".."fig11",
// "table1", "tables2and3", "xval", "coverage", "bgpstream", "challenges",
// "survey", or an "ablate-*" name), writing its rendering to out. It
// reports whether the name was known.
func RunExperiment(name string, seed int64, out io.Writer) bool {
	switch name {
	case "fig1":
		experiments.Fig1(seed, out)
	case "fig2":
		experiments.Fig2(seed, out)
	case "fig3":
		experiments.Fig3(seed, out)
	case "fig4":
		experiments.Fig4(seed, out)
	case "fig5":
		experiments.Fig5(seed, out)
	case "fig6":
		experiments.Fig6(seed, out)
	case "fig7":
		experiments.Fig7(seed, out)
	case "fig8":
		experiments.Fig8(seed, out)
	case "fig9":
		experiments.Fig9(seed, out)
	case "fig10":
		experiments.Fig10(seed, out)
	case "fig11":
		experiments.Fig11(seed, out)
	case "table1":
		experiments.Table1(seed, out)
	case "tables2and3":
		experiments.Tables2And3(seed, out)
	case "xval":
		experiments.XVal(seed, out)
	case "coverage":
		experiments.Coverage(seed, out)
	case "bgpstream":
		experiments.BGPStream(seed, out)
	case "challenges":
		experiments.Challenges(seed, out)
	case "survey":
		experiments.Survey(seed, out)
	case "ablate-detector":
		experiments.AblationDetector(seed, out)
	case "ablate-unanimity":
		experiments.AblationUnanimity(seed, out)
	case "ablate-cutoff":
		experiments.AblationTrafficCutoff(seed, out)
	case "ablate-exclusive":
		experiments.AblationExclusivity(seed, out)
	default:
		return false
	}
	return true
}
