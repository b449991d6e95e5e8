// Package pipeline holds the measurement round's building blocks that know
// nothing about world construction: the deterministic parallel executor the
// scans and pairs run on, the §6.2 unanimity rule, the round's metrics and
// status, and the grid-shaped pair-result cache of incremental rounds. It
// depends only on the measurement-level types (inet, scan, detect); the
// round itself — test prefixes (§3.2), tNodes (§4.1), vVPs (§4.2), per-pair
// measurement (§4.3) and scoring — is core.Runner.Measure.
package pipeline

import (
	"net/netip"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/scan"
)

// RoundStatus is the typed health verdict of one measurement round. A
// degraded round (not enough qualified tNodes, or no AS with enough vVPs)
// reports *why* it carries no scores instead of silently returning zeros —
// downstream consumers must be able to tell "measured as unprotected" from
// "could not measure".
type RoundStatus uint8

// Round statuses.
const (
	// RoundOK: the round ran to completion with enough data to score.
	RoundOK RoundStatus = iota
	// RoundInsufficientTNodes: fewer qualified tNodes than the configured
	// minimum; no AS was scored.
	RoundInsufficientTNodes
	// RoundInsufficientVVPs: no AS retained enough usable vantage points
	// after the background cutoff (and any churn); no pairs were measured.
	RoundInsufficientVVPs
)

// String implements fmt.Stringer.
func (s RoundStatus) String() string {
	switch s {
	case RoundOK:
		return "ok"
	case RoundInsufficientTNodes:
		return "insufficient-tnodes"
	case RoundInsufficientVVPs:
		return "insufficient-vvps"
	default:
		return "unknown"
	}
}

// InsufficientData reports whether the round degraded below scorability.
func (s RoundStatus) InsufficientData() bool { return s != RoundOK }

// ASOutcome is ScoreAS's verdict for one AS.
type ASOutcome struct {
	// Score is the ROV protection score in [0, 100].
	Score float64
	// TNodesMeasured / TNodesFiltered give the score's denominator and
	// numerator.
	TNodesMeasured, TNodesFiltered int
	// Unanimous is false when at least one tNode was discarded because the
	// AS's vVPs disagreed.
	Unanimous bool
	// Verdicts maps each measured tNode address to whether it was judged
	// outbound-filtered.
	Verdicts map[netip.Addr]bool
	// ConsistentCells / TotalCells feed the round-wide consistency fraction
	// (the paper reports 95.1% of cells consistent).
	ConsistentCells, TotalCells int
}

// ScoreAS reduces one AS's pair results, indexed [ti*nVVPs + vi] like the
// round's pair grid, with the paper's §6.2 rule: a tNode counts for an AS
// only when every usable vVP verdict agrees; filtered tNodes with unanimous
// outbound-filtering verdicts form the score's numerator. Inbound-filtering
// and inconclusive outcomes carry no information about the vVP's AS (§3.3
// case b) and are ignored.
func ScoreAS(tnodes []scan.TNode, nVVPs int, results []detect.PairResult) ASOutcome {
	out := ASOutcome{Unanimous: true, Verdicts: make(map[netip.Addr]bool)}
	for ti, tn := range tnodes {
		filteredVotes, reachableVotes := 0, 0
		for vi := 0; vi < nVVPs; vi++ {
			res := results[ti*nVVPs+vi]
			if !res.Usable {
				continue
			}
			switch res.Outcome {
			case detect.OutboundFiltering:
				filteredVotes++
			case detect.NoFiltering:
				reachableVotes++
			}
		}
		if filteredVotes+reachableVotes == 0 {
			continue // nothing usable for this tNode
		}
		out.TotalCells++
		switch {
		case filteredVotes > 0 && reachableVotes == 0:
			out.ConsistentCells++
			out.TNodesMeasured++
			out.TNodesFiltered++
			out.Verdicts[tn.Addr] = true
		case reachableVotes > 0 && filteredVotes == 0:
			out.ConsistentCells++
			out.TNodesMeasured++
			out.Verdicts[tn.Addr] = false
		default:
			// Disagreement: discard the tNode for this AS.
			out.Unanimous = false
		}
	}
	out.Score = ProtectionScore(out.TNodesFiltered, out.TNodesMeasured)
	return out
}

// ProtectionScore is the ROV protection score in [0, 100]: the percentage
// of an AS's consistently measured tNodes that it filters. The counts are
// archived beside the rounded score so the exact value stays re-derivable.
func ProtectionScore(filtered, measured int) float64 {
	if measured == 0 {
		return 0
	}
	return 100 * float64(filtered) / float64(measured)
}
