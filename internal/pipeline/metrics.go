package pipeline

import (
	"fmt"
	"strings"
	"time"
)

// StageTiming records one stage's wall-clock duration.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Metrics collects a round's observability data: per-stage wall-clock
// timings and pair-level counters. It is written by the round driver after
// each stage completes (never from worker goroutines), so plain fields
// suffice.
type Metrics struct {
	// Workers is the executor pool size the round ran with.
	Workers int
	// Stages holds timings in execution order.
	Stages []StageTiming
	// PairsMeasured counts every (vVP, tNode) measurement run;
	// PairsUsable the subset that passed the Appendix-A FP/FN gate;
	// PairsDiscarded the rest.
	PairsMeasured, PairsUsable, PairsDiscarded int
	// PairsReused counts pairs served from the incremental result cache
	// this round, PairsMeasured − PairsRemeasured; PairsRemeasured the pairs
	// actually simulated. On a runner's first round, or a forced full one,
	// PairsReused is 0 and PairsRemeasured equals PairsMeasured. The reuse
	// ratio PairsReused/PairsMeasured is the round's effective O(churn)
	// factor.
	PairsReused, PairsRemeasured int
	// Of the reused pairs, PairsRevalidated kept a result although their
	// stamp moved — their exact routing key had not — and PairsRestored got
	// back the result of their previous routing state, which had returned.
	PairsRevalidated, PairsRestored int
	// SimEvents is the number of simulator events the round's re-measured
	// pairs processed (detect.PairResult.SimEvents summed over them, retries
	// included). It repeats exactly for a seed, so a change to the pair
	// kernel can be stated as a count instead of a timing.
	SimEvents int64
	// Per-stage reuse, beside the pair counters: TestPrefixesReevaluated
	// counts interned prefixes whose exclusively-invalid verdict was
	// recomputed (0 when no routing epoch under the collector view and no
	// VRP set moved), TNodesRequalified the candidate addresses under the
	// test prefixes whose qualification scan ran (0 when no route toward a
	// candidate or a client moved), and ASesRescored the AS units whose
	// report was recomputed instead of carried over from the last round.
	TestPrefixesReevaluated, TNodesRequalified, ASesRescored int
	// FullRound marks a round that deliberately bypassed the result cache
	// (Runner.ForceFullRound: rovistad's forced periodic full round).
	FullRound bool
	// Faults holds the fault/retry/discard counters for the round.
	Faults FaultMetrics
}

// FaultMetrics counts what the fault-injection layer did to a round and how
// the hardened pipeline responded. All fields stay zero on a clean round, so
// a nonzero counter is always attributable to the armed profile — the
// robustness harness's no-silent-flips invariant depends on that.
type FaultMetrics struct {
	// Profile names the armed fault profile ("none" when clean).
	Profile string
	// PairRetries counts extra measurement attempts beyond the first;
	// PairsRecovered the pairs whose final (retried) attempt was usable.
	PairRetries, PairsRecovered int
	// VVPsChurned counts vantage points that vanished between qualification
	// and measurement.
	VVPsChurned int
	// VVPsUnstable counts vVP columns flagged by the instability check
	// (half or more of the column unusable); of those, VVPsRequalified
	// passed the re-qualification scan and kept their results, while
	// VVPsDropped failed it and had their columns discarded.
	VVPsUnstable, VVPsRequalified, VVPsDropped int
}

// StartStage begins timing a named stage and returns the function that
// stops the clock and appends the timing:
//
//	defer m.StartStage("discover-vvps")()
//
// A nil receiver returns a no-op, so callers never need to guard.
func (m *Metrics) StartStage(name string) func() {
	if m == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		m.Stages = append(m.Stages, StageTiming{Name: name, Duration: time.Since(start)})
	}
}

// StageDuration returns the recorded duration for name (summing repeats)
// and whether the stage ran.
func (m *Metrics) StageDuration(name string) (time.Duration, bool) {
	if m == nil {
		return 0, false
	}
	var total time.Duration
	found := false
	for _, s := range m.Stages {
		if s.Name == name {
			total += s.Duration
			found = true
		}
	}
	return total, found
}

// String renders a compact human-readable report (for -timings output).
func (m *Metrics) String() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d pairs=%d usable=%d discarded=%d sim-events=%d\n",
		m.Workers, m.PairsMeasured, m.PairsUsable, m.PairsDiscarded, m.SimEvents)
	if m.PairsReused > 0 || (m.PairsRemeasured > 0 && m.PairsRemeasured != m.PairsMeasured) {
		fmt.Fprintf(&b, "incremental: reused=%d remeasured=%d (%.1f%% reuse) revalidated=%d restored=%d prefixes-reevaluated=%d tnodes-requalified=%d ases-rescored=%d\n",
			m.PairsReused, m.PairsRemeasured,
			100*float64(m.PairsReused)/float64(m.PairsMeasured),
			m.PairsRevalidated, m.PairsRestored,
			m.TestPrefixesReevaluated, m.TNodesRequalified, m.ASesRescored)
	}
	if f := m.Faults; f.Profile != "" && f.Profile != "none" {
		fmt.Fprintf(&b, "faults=%s retries=%d recovered=%d churned=%d unstable=%d requalified=%d dropped=%d\n",
			f.Profile, f.PairRetries, f.PairsRecovered, f.VVPsChurned,
			f.VVPsUnstable, f.VVPsRequalified, f.VVPsDropped)
	}
	width := 0
	for _, s := range m.Stages {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range m.Stages {
		fmt.Fprintf(&b, "  %-*s %12v\n", width, s.Name, s.Duration.Round(time.Microsecond))
	}
	return b.String()
}
