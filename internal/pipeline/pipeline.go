// Package pipeline decomposes a RoVista measurement round into its five
// stages — test-prefix selection (§3.2), tNode qualification (§4.1), vVP
// discovery (§4.2), per-pair side-channel measurement (§4.3), and per-AS
// scoring (§6.2) — each behind a small interface so experiments and
// ablations can replace one stage without reimplementing the round.
//
// The package deliberately knows nothing about world construction: it
// depends only on the measurement-level types (inet, scan, detect), and the
// default stage implementations live next to the Runner in internal/core.
package pipeline

import (
	"net/netip"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/inet"
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

// TestPrefixSource yields the exclusively-invalid prefixes that anchor a
// round (§3.2: announced at a collector, covered by a ROA, and with no
// covering valid announcement).
type TestPrefixSource interface {
	TestPrefixes() []netip.Prefix
}

// TNodeQualifier turns test prefixes into qualified tNodes (§4.1), including
// whatever false-tNode mitigation the implementation applies.
type TNodeQualifier interface {
	QualifyTNodes(prefixes []netip.Prefix) []scan.TNode
}

// VVPProvider yields the discovered vantage points (§4.2), before any
// background-rate cutoff — the round applies the §6.1 cutoff itself so the
// pre-cutoff population stays observable.
type VVPProvider interface {
	DiscoverVVPs() []scan.VVP
}

// Pair identifies one (vVP, tNode) measurement inside an AS. The indices
// are positions within the round's tNode list and the AS's capped vVP list;
// together with the round seed they determine the pair's derived seed, so a
// Pair is a complete, order-independent description of one unit of work.
type Pair struct {
	ASN      inet.ASN
	TNodeIdx int
	VVPIdx   int
	TNode    scan.TNode
	VVP      scan.VVP
}

// PairMeasurer runs one Figure-3 measurement round for a pair. A conforming
// implementation must be a pure function of the pair (plus whatever
// immutable state it closes over): calls must be safe to run concurrently
// and must return the same result regardless of execution order. The
// parallel executor relies on exactly that contract.
type PairMeasurer interface {
	MeasurePair(p Pair) detect.PairResult
}

// ASOutcome is a scorer's verdict for one AS.
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

// Scorer reduces one AS's pair results to a verdict. results is indexed
// [ti*nVVPs + vi], matching the pair grid the round laid out; a result's
// zero value never occurs (every cell is measured).
type Scorer interface {
	ScoreAS(asn inet.ASN, tnodes []scan.TNode, nVVPs int, results []detect.PairResult) ASOutcome
}

// UnanimityScorer implements the paper's §6.2 rule: a tNode counts for an AS
// only when every usable vVP verdict agrees; filtered tNodes with unanimous
// outbound-filtering verdicts form the score's numerator. Inbound-filtering
// and inconclusive outcomes carry no information about the vVP's AS (§3.3
// case b) and are ignored.
type UnanimityScorer struct{}

// ScoreAS implements Scorer.
func (UnanimityScorer) ScoreAS(asn inet.ASN, tnodes []scan.TNode, nVVPs int, results []detect.PairResult) ASOutcome {
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
