package core

import (
	"net/netip"

	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/scan"
)

// RunnerConfig tunes the measurement pipeline.
type RunnerConfig struct {
	// BackgroundCutoff excludes vVPs above this rate (10 pkt/s, §6.1).
	BackgroundCutoff float64
	// MinVVPsPerAS is the minimum usable vVPs required to score an AS (the
	// paper requires 10; simulated worlds attach fewer hosts per AS, so the
	// default scales down to 2 while preserving the unanimity semantics).
	MinVVPsPerAS int
	// MinTNodes is the minimum tNodes needed for a meaningful round (the
	// paper observes ≥10, on average 31).
	MinTNodes int
	// Seed drives the measurement's own randomness.
	Seed int64
	// RecordPairs keeps every raw per-(vVP, tNode) result in the snapshot,
	// IP-ID samples included, for diagnostics (memory-heavy; off by
	// default). Without it no pair's samples are kept at all.
	RecordPairs bool
	// Workers is the pool size of the sharded stages (the scans' sweeps and
	// pair measurement): 0 uses every CPU, 1 runs serially.
	// Results are bit-for-bit identical for every value — each scan and each
	// pair runs inside an isolated context whose state derives only from its
	// own identity (candidate address; AS, tNode address, vVP address) and
	// the seed.
	Workers int
	// Progress, when set, receives per-stage completion callbacks. The
	// single-shot stages report (1, 1) on completion; the pair-measurement
	// stage counts the grid's cells, each reused cell done from the start and
	// each re-measured one as it finishes: its reports ascend and end exactly
	// once at (PairsMeasured, PairsMeasured) — (0, 0) for an empty grid, one
	// report for a round that reused every cell.
	Progress func(stage string, done, total int)
}

// The fault profile is the network's (World.Net.Faults, armed by
// WorldConfig.Faults or Network.ArmFaults), and so are the countermeasures
// a round takes against it: while the armed profile is Enabled, a pair whose
// measurement came back unusable is re-measured up to pairRetries more
// times, attempt k with a fresh seed and its probe schedule retryBackoff·k
// seconds later, and a vVP whose column came back mostly unusable re-runs
// the §4.2 qualification scan and has its column discarded when it no longer
// qualifies (churned, or an unstable counter). A clean network takes neither,
// so no clean-run rng stream moves.
const (
	pairRetries  = 2
	retryBackoff = 2.0
)

// maxVVPsPerAS caps the vVPs measured per AS to bound work.
const maxVVPsPerAS = 3

// DefaultRunnerConfig returns the standard pipeline settings.
func DefaultRunnerConfig(seed int64) RunnerConfig {
	return RunnerConfig{
		BackgroundCutoff: 10,
		MinVVPsPerAS:     2,
		MinTNodes:        3,
		Seed:             seed,
	}
}

// ASReport is the per-AS outcome of one measurement round.
type ASReport struct {
	ASN inet.ASN
	// Score is the ROV protection score in [0, 100]: the percentage of
	// tNodes unreachable from every vVP in the AS due to outbound
	// filtering (§6.2).
	Score float64
	// VVPs is the number of vantage points used.
	VVPs int
	// TNodesMeasured / TNodesFiltered give the score's numerator and
	// denominator.
	TNodesMeasured, TNodesFiltered int
	// Unanimous is false when at least one tNode was discarded because the
	// AS's vVPs disagreed (§6.2 consistency check).
	Unanimous bool
	// Verdicts maps each measured tNode address to whether it was judged
	// outbound-filtered, enabling exact cross-validation against the data
	// plane or traceroutes.
	Verdicts map[netip.Addr]bool
}

// Snapshot is the result of one full measurement round. Its maps and slices
// are read-only: consecutive Snapshots of an incremental Runner share the
// ones a round left unchanged (the vVP groups between discoveries, Reports
// and the ASReports in it while no AS was rescored).
type Snapshot struct {
	Day int

	// TestPrefixes are the exclusively-invalid prefixes selected from the
	// collector view.
	TestPrefixes int
	// TNodes are the qualified test nodes used in this round.
	TNodes []scan.TNode
	// AllVVPs counts every discovered vVP before the background cutoff.
	AllVVPs int
	// VVPsByAS holds the usable (post-cutoff) vVPs grouped by AS.
	VVPsByAS map[inet.ASN][]scan.VVP

	// Reports holds per-AS results for every AS with enough vVPs.
	Reports map[inet.ASN]*ASReport

	// ConsistentPairFraction is the fraction of (AS, tNode) cells whose
	// vVPs agreed (the paper reports 95.1%).
	ConsistentPairFraction float64

	// VVPBackgroundRates records each discovered vVP's background rate
	// (pre-cutoff), for the Figure 4 distribution.
	VVPBackgroundRates map[inet.ASN][]float64

	// Status is the round's typed health verdict: degraded rounds (too few
	// tNodes, no scorable AS) say so instead of presenting empty Reports as
	// a measurement of zero protection.
	Status pipeline.RoundStatus

	// PairResults holds raw per-pair results when RunnerConfig.RecordPairs
	// is set.
	PairResults []detect.PairResult

	// Metrics holds the round's observability data: stage timings and
	// pair counters.
	Metrics *pipeline.Metrics
}

// Scores returns the per-AS protection scores.
func (s *Snapshot) Scores() map[inet.ASN]float64 {
	out := make(map[inet.ASN]float64, len(s.Reports))
	for asn, r := range s.Reports {
		out[asn] = r.Score
	}
	return out
}

// Runner executes measurement rounds against a world (measure.go); the
// programs run them through stream.LiveSink, whose Round calls Measure and
// checks what it returns. Between rounds every stage keeps its output while
// nothing it read has changed, so a persistent Runner's round costs what
// the world's last changes dirtied; a fresh Runner — or ForceFullRound — is
// the from-scratch round, and the Snapshots are bit-identical either way.
type Runner struct {
	W   *World
	Cfg RunnerConfig

	// cached vVP discovery, keyed on the network's host-population
	// generation so additions (World.AddCandidateHosts) invalidate it
	// automatically; static within a generation, like the paper's daily
	// vVP scans.
	vvps    []scan.VVP
	vvpsGen uint64

	// Incremental-round state (measure.go). The collector's exclusively-
	// invalid set with its per-prefix stamps, the per-address tNode
	// qualifications, the grid-shaped pair-result cache, and the per-unit
	// scores with the Reports map of the last round are dropped together by
	// reset; the vVP grouping lives as long as the discovery it derives from.
	// fullRound makes the next round reset first, the periodic safety net
	// rovistad schedules between incremental rounds. fingerprint is the
	// last round's roundFingerprint: the tNode qualifications and the pair
	// results hold under it alone.
	exclusive   collectors.ExclusiveSet
	tnodes      tnodeMemo
	groups      *vvpGrouping
	pairCache   *pipeline.ResultCache
	scores      []unitScore
	reports     map[inet.ASN]*ASReport
	fullRound   bool
	fingerprint roundFingerprint

	// Round buffers, reused: per-unit first cells, the tNode rows'
	// addresses, destination stamps of the tNode rows and vVP columns with
	// the LPM ids they were resolved from, the round's route memos, the
	// cells whose stamp moved, the cells to measure and the cells whose
	// result changed (measure.go). requalified is the grid as the scorer
	// sees it under faults — the raw results minus the columns of vVPs that
	// failed re-qualification — refreshed unit by unit as units are
	// rescored.
	first                []int
	rowAddrs             []netip.Addr
	rows, cols           []pipeline.DestStamp
	rowIDs, colIDs       destIDs
	routes               pairRoutes
	stale, miss, changed []int
	requalified          []detect.PairResult
}

// NewRunner creates a Runner.
func NewRunner(w *World, cfg RunnerConfig) *Runner {
	return &Runner{W: w, Cfg: cfg}
}

// scanner builds the discovery front-end over the network view net; its
// sweeps run on ex.
func (r *Runner) scanner(net *netsim.Network, ex *pipeline.Executor) *scan.Scanner {
	sc := scan.NewScanner(net, r.W.ClientA, r.W.ClientB, 443, 80)
	sc.Seed = r.Cfg.Seed
	sc.ForEach = ex.ForEach
	return sc
}

// DiscoverVVPs runs (or returns the cached) §4.2 vVP discovery over every
// attached host. The cache self-invalidates when the host population
// changes.
func (r *Runner) DiscoverVVPs() []scan.VVP {
	return r.discoverVVPs(&pipeline.Executor{Workers: r.Cfg.Workers})
}

// discoverVVPs is DiscoverVVPs with the sweep sharded across ex.
func (r *Runner) discoverVVPs(ex *pipeline.Executor) []scan.VVP {
	gen := r.W.Net.Generation()
	if r.vvps != nil && gen == r.vvpsGen {
		return r.vvps
	}
	all := r.W.Net.AllAddrs()
	candidates := make([]netip.Addr, 0, len(all))
	for _, a := range all {
		// The clients themselves are not candidates.
		if a != r.W.ClientA.Addr && a != r.W.ClientB.Addr {
			candidates = append(candidates, a)
		}
	}
	r.vvpsGen = gen
	r.vvps = r.scanner(r.W.Net, ex).DiscoverVVPs(candidates)
	r.groups = nil
	return r.vvps
}

// reset drops every cached pair result — and with it the other incremental
// state, the test-prefix verdicts, tNode qualifications and per-unit scores.
func (r *Runner) reset() {
	r.exclusive = collectors.ExclusiveSet{}
	r.tnodes.entries = r.tnodes.entries[:0]
	r.pairCache.Flush()
	r.scores = r.scores[:0]
}

// ForceFullRound makes the next Measure recompute every stage from
// nothing: every test prefix is re-evaluated, every tNode candidate
// re-scanned, every pair re-measured (the cache repopulated), every AS
// rescored. rovistad uses it to run a periodic full round between
// continuous incremental rounds.
func (r *Runner) ForceFullRound() { r.fullRound = true }

// referenceProbes picks the probe ASes of the §4.1 false-tNode mitigation,
// appending to the given buffers: the paper used RIPE Atlas probes in ten
// ASes whose ROV status it had confirmed out-of-band. Here the reference
// sets come from ground truth: full deployers (preferring the filtered core)
// as the confirmed-ROV side, and clean never-filtering ASes as the confirmed
// non-ROV side.
func (r *Runner) referenceProbes(rov, clean []inet.ASN) ([]inet.ASN, []inet.ASN) {
	w := r.W
	const maxProbes = 10
	for _, asn := range w.Topo.ByRank() { // core-first, like the paper's big ISPs
		if len(rov) == maxProbes && len(clean) == maxProbes {
			break
		}
		tr := w.Truth[asn]
		if len(rov) < maxProbes && tr.Kind == "full" && tr.DeployedAt(w.Day) && !tr.DefaultLeak {
			rov = append(rov, asn)
		}
		if len(clean) < maxProbes && w.Clean[asn] {
			clean = append(clean, asn)
		}
	}
	return rov, clean
}

// falseTNode reports whether the reference probes contradict addr being
// under an RPKI-invalid prefix. A tNode survives when at most half of the
// ROV probes reach it and at least half of the non-ROV probes do (the
// paper's 90% thresholds, loosened for the smaller probe sets); without
// probes on both sides nothing is filtered.
func (r *Runner) falseTNode(rov, clean []inet.ASN, addr netip.Addr) bool {
	if len(rov) == 0 || len(clean) == 0 {
		return false
	}
	reached := func(probes []inet.ASN) (n int) {
		for _, p := range probes {
			if r.W.Net.Reachable(p, addr) {
				n++
			}
		}
		return n
	}
	return 2*reached(rov) > len(rov) || 2*reached(clean) < len(clean)
}

// OracleScore computes the ground-truth protection score of an AS against
// the current tNodes straight from the data plane (no side channel): the
// fraction of tNodes the AS cannot reach. Used to validate the measurement.
func (r *Runner) OracleScore(asn inet.ASN, tnodes []scan.TNode) float64 {
	if len(tnodes) == 0 {
		return 0
	}
	blocked := 0
	for _, tn := range tnodes {
		if !r.W.Graph.Reachable(asn, tn.Addr) {
			blocked++
		}
	}
	return 100 * float64(blocked) / float64(len(tnodes))
}
