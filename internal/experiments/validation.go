package experiments

import (
	"io"

	"github.com/netsec-lab/rovista/internal/analysis"
	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/groundtruth"
	"github.com/netsec-lab/rovista/internal/hijack"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
	"net/netip"
	"sort"
)

// XValResult is the §6.3.1 traceroute cross-validation.
type XValResult struct {
	Tuples   int // (AS, tNode) tuples compared
	Matches  int
	Mismatch int
	// Measurements / Retained mirror the paper's campaign accounting
	// (168,642 raw measurements, 99.2% retained after the consistency
	// filter, covering 2,768 ASes).
	Measurements     int
	Retained         float64
	InconsistentASes int
}

// MatchRate returns the agreement fraction (paper: a perfect match).
func (r XValResult) MatchRate() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return float64(r.Matches) / float64(r.Tuples)
}

// XVal reproduces §6.3.1: a RIPE-Atlas-style probe fleet runs TCP
// traceroutes toward every tNode (10 probes per AS, with per-measurement
// API noise), the paper's consistency filter discards ASes whose probes
// disagree, and the surviving (AS, tNode, reachability) tuples are compared
// with RoVista's verdicts.
func XVal(seed int64, out io.Writer) XValResult {
	w := mustWorld(smallWorld(seed))
	_, snap := measureAt(w, 0, seed)

	// One probe fleet across every scored AS, ten probes each (§6.3.1 uses
	// 6,296 probes over 2,768 ASes).
	var asns []inet.ASN
	for asn := range snap.Reports {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	fleet := collectors.NewFleet(asns, 10)
	var targets []netip.Addr
	for _, tn := range snap.TNodes {
		targets = append(targets, tn.Addr)
	}
	stats := fleet.RunCampaign(w.Net, targets, 443, 0.005, seed)

	res := XValResult{
		Measurements:     stats.Measurements,
		Retained:         stats.RetentionRate(),
		InconsistentASes: len(stats.InconsistentASes),
	}
	for asn, rep := range snap.Reports {
		tuples, ok := stats.Tuples[asn]
		if !ok {
			continue // AS excluded by the consistency filter
		}
		for addr, filtered := range rep.Verdicts {
			reached, measured := tuples[addr]
			if !measured {
				continue
			}
			res.Tuples++
			// Unreachable by traceroute ⇔ judged outbound-filtered.
			if reached == !filtered {
				res.Matches++
			} else {
				res.Mismatch++
			}
		}
	}

	fprintf(out, "== §6.3.1 cross-validation: probe traceroutes vs RoVista verdicts ==\n")
	fprintf(out, "raw measurements: %d, retained: %s, inconsistent ASes excluded: %d (paper: 168,642 raw, 99.2%% retained)\n",
		res.Measurements, percent(res.Retained), res.InconsistentASes)
	fprintf(out, "tuples compared: %d, matches: %d (%s; paper: perfect match)\n",
		res.Tuples, res.Matches, percent(res.MatchRate()))
	return res
}

// CoverageResult is the §6.1 measurement census.
type CoverageResult struct {
	TotalVVPs     int
	UsableVVPs    int // background <= 10 pkt/s
	ASesCovered   int // ASes with at least MinVVPs usable vVPs
	TotalASes     int
	TNodes        int
	TNodePrefixes int
	TNodeRIRs     map[string]int // tNode count per RIR
	Consistency   float64        // (AS, tNode) unanimity rate (paper: 95.1%)
}

// Coverage reproduces the §6.1 coverage statistics.
func Coverage(seed int64, out io.Writer) CoverageResult {
	w := mustWorld(mediumWorld(seed))
	r, snap := measureAt(w, 0, seed)

	res := CoverageResult{
		TotalVVPs:   snap.AllVVPs,
		TotalASes:   len(w.Topo.ASNs),
		TNodes:      len(snap.TNodes),
		Consistency: snap.ConsistentPairFraction,
		TNodeRIRs:   map[string]int{},
	}
	for _, vvps := range snap.VVPsByAS {
		res.UsableVVPs += len(vvps)
		if len(vvps) >= r.Cfg.MinVVPsPerAS {
			res.ASesCovered++
		}
	}
	prefixes := map[string]bool{}
	for _, tn := range snap.TNodes {
		prefixes[tn.Prefix.String()] = true
		rir := rirOfPrefix(w, tn.ASN)
		res.TNodeRIRs[rir]++
	}
	res.TNodePrefixes = len(prefixes)

	fprintf(out, "== §6.1 coverage census ==\n")
	fprintf(out, "vVPs discovered: %d; usable (<=10 pkt/s): %d\n", res.TotalVVPs, res.UsableVVPs)
	fprintf(out, "ASes measurable: %d / %d (%s; paper: 28,314/~70k)\n",
		res.ASesCovered, res.TotalASes, percent(float64(res.ASesCovered)/float64(res.TotalASes)))
	fprintf(out, "tNodes: %d across %d prefixes (paper: avg 31 tNodes, min 10)\n", res.TNodes, res.TNodePrefixes)
	fprintf(out, "per-RIR tNode spread: %v (paper: spread across all five RIRs)\n", res.TNodeRIRs)
	fprintf(out, "vVP unanimity per (AS, tNode): %s (paper: 95.1%%)\n", percent(res.Consistency))
	return res
}

func rirOfPrefix(w *core.World, asn inet.ASN) string {
	if info, ok := w.Topo.Info[asn]; ok {
		return info.RIR.String()
	}
	return rpki.RIR(255).String()
}

// BGPStreamResult is the §7.5 hijack-report analysis.
type BGPStreamResult struct {
	Summary hijack.Summary
	// CoveredContained: RPKI-covered hijacks spread less than uncovered
	// ones on average.
	CoveredContained bool
}

// BGPStream reproduces §7.5: generate hijack reports, join them with ROV
// scores, and measure how coverage and path filtering limited them.
func BGPStream(seed int64, out io.Writer) BGPStreamResult {
	w := mustWorld(smallWorld(seed))
	_, snap := measureAt(w, 0, seed)

	events := hijack.Generate(w, 120, seed)
	reports := hijack.Analyze(w, snap.Scores(), events)
	res := BGPStreamResult{Summary: hijack.Summarize(reports)}
	res.CoveredContained = res.Summary.MeanSpreadCovered < res.Summary.MeanSpreadUncovered

	s := res.Summary
	fprintf(out, "== §7.5 BGPStream-style hijack analysis ==\n")
	fprintf(out, "reports: %d; RPKI-covered: %d (%s; paper: 179/1277 = 14%%)\n",
		s.Total, s.RPKICovered, percent(float64(s.RPKICovered)/float64(max1(s.Total))))
	fprintf(out, "covered hijacks crossing a >90%%-score AS: %d (paper: 5/124, all via customer routes)\n", s.CoveredHighScore)
	fprintf(out, "uncovered hijacks crossing a >90%%-score AS: %d (paper: 204/884 = 23.1%% — a ROA would have helped)\n", s.UncoveredHighScore)
	fprintf(out, "mean blast radius: covered %.1f ASes vs uncovered %.1f ASes\n", s.MeanSpreadCovered, s.MeanSpreadUncovered)
	return res
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// ChallengesResult is the §7.6 classification summary.
type ChallengesResult struct {
	Challenges []analysis.Challenge
	ByKind     map[analysis.ChallengeKind]int
	// TruthAgreement: classified default-route ASes that really have a
	// default leak in the ground truth.
	DefaultRouteCorrect int
	DefaultRouteTotal   int
}

// Challenges reproduces §7.6: classify why high-but-not-full scorers stall,
// and verify the default-route classifications against ground truth.
func Challenges(seed int64, out io.Writer) ChallengesResult {
	cfg := smallWorld(seed)
	cfg.DefaultRouteLeakFrac = 0.25
	cfg.CustomerExemptFrac = 0.25
	w := mustWorld(cfg)
	_, snap := measureAt(w, 0, seed)

	res := ChallengesResult{ByKind: map[analysis.ChallengeKind]int{}}
	// The paper analyses the >90%% band; below that, partial collateral
	// benefit dominates and first-hop heuristics lose meaning.
	res.Challenges = analysis.ClassifyChallenges(w, snap, 90)
	for _, c := range res.Challenges {
		res.ByKind[c.Kind]++
		if c.Kind == analysis.ChallengeDefaultRoute {
			res.DefaultRouteTotal++
			if w.Truth[c.ASN].DefaultLeak || w.Graph.AS(c.ASN).HasDefault {
				res.DefaultRouteCorrect++
			}
		}
	}

	fprintf(out, "== §7.6 challenges to a 100%% score ==\n")
	for kind, n := range res.ByKind {
		fprintf(out, "  %-28s %d ASes\n", kind, n)
	}
	fprintf(out, "default-route classifications confirmed by ground truth: %d/%d\n",
		res.DefaultRouteCorrect, res.DefaultRouteTotal)
	return res
}

// SurveyResult mirrors the §6.3.2 MANRS survey comparison.
type SurveyResult struct {
	Responses []groundtruth.SurveyResponse
	Compared  int
	// FullDeployersChecked / FullDeployersConsistent: respondents whose
	// ground truth is a full deployment, and how many RoVista scores >= 90
	// (the paper: 13/13 deployers at a perfect score).
	FullDeployersChecked, FullDeployersConsistent int
	// CollateralSurprises: operators who said "not deployed" but score
	// 100% (the AS-1403 story: protected by their providers).
	CollateralSurprises int
}

// Survey reproduces the §6.3.2 operator survey comparison.
func Survey(seed int64, out io.Writer) SurveyResult {
	w := mustWorld(smallWorld(seed))
	r, snap := measureAt(w, w.Cfg.Days, seed)
	scores := snap.Scores()

	res := SurveyResult{Responses: groundtruth.SimulateSurvey(w, w.Cfg.Days, 31, 0.13, seed)}
	for _, resp := range res.Responses {
		s, ok := scores[resp.ASN]
		if !ok {
			s = r.OracleScore(resp.ASN, snap.TNodes)
		}
		res.Compared++
		switch resp.Answer {
		case groundtruth.AnswerDeployed:
			// The verifiable claim: a clean full deployment must measure
			// >= 90. Partial modes (customer-exempt, prefer-valid) and
			// deployments with local exceptions (default-route leaks,
			// SLURM whitelists) legitimately score anywhere — the paper's
			// operator follow-ups surfaced exactly these caveats.
			tr := w.Truth[resp.ASN]
			if tr.Kind == "full" && !tr.DefaultLeak && !tr.SLURMException.IsValid() {
				res.FullDeployersChecked++
				if s >= 90 {
					res.FullDeployersConsistent++
				}
			}
		case groundtruth.AnswerNotDeployed:
			if s >= 100 {
				res.CollateralSurprises++
			}
		}
	}

	fprintf(out, "== §6.3.2 operator survey vs RoVista ==\n")
	fprintf(out, "responses: %d; full deployers confirmed: %d/%d (paper: 13/13)\n",
		res.Compared, res.FullDeployersConsistent, res.FullDeployersChecked)
	fprintf(out, "non-deployers at a 100%% score (collateral benefit, the AS-1403 case): %d\n", res.CollateralSurprises)
	return res
}
