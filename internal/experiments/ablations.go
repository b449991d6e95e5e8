package experiments

import (
	"io"
	"math"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// AblationDetectorResult compares the Appendix-A model-based detector with
// a naive fixed-threshold detector on identical measurement rounds.
type AblationDetectorResult struct {
	ModelAccuracy, NaiveAccuracy float64
	Rounds                       int
}

// AblationDetector runs repeated rounds against a known-outcome fixture at
// several background rates and scores both detectors against ground truth.
func AblationDetector(seed int64, out io.Writer) AblationDetectorResult {
	var res AblationDetectorResult
	modelOK, naiveOK := 0, 0
	for _, rate := range []float64{0, 2, 5, 8} {
		for _, filtered := range []bool{false, true} {
			for trial := 0; trial < 5; trial++ {
				n, client, vvp, tn := detectFixture(seed+int64(trial), filtered)
				vvp.BackgroundRate = rate
				pr := detect.MeasurePair(n, client, vvp.Addr, tn, seed+int64(trial)*31, 0)
				res.Rounds++

				want := detect.NoFiltering
				if filtered {
					want = detect.OutboundFiltering
				}
				if pr.Usable && pr.Outcome == want {
					modelOK++
				}
				if naiveClassify(pr.IDs) == want {
					naiveOK++
				}
			}
		}
	}
	res.ModelAccuracy = float64(modelOK) / float64(res.Rounds)
	res.NaiveAccuracy = float64(naiveOK) / float64(res.Rounds)

	fprintf(out, "== Ablation: ADF-gated AR + trend detector vs naive threshold ==\n")
	fprintf(out, "model-based accuracy: %s over %d rounds\n", percent(res.ModelAccuracy), res.Rounds)
	fprintf(out, "naive threshold accuracy: %s\n", percent(res.NaiveAccuracy))
	return res
}

// naiveClassify is the strawman detector: any growth sample more than twice
// the first sample is a "spike".
func naiveClassify(ids []uint16) detect.Outcome {
	growth := detect.GrowthSeries(ids)
	if len(growth) < 12 {
		return detect.Inconclusive
	}
	base := growth[0] + 1
	var spikes []int
	for i, g := range growth {
		if g > 2*base+4 {
			spikes = append(spikes, i)
		}
	}
	switch {
	case len(spikes) == 0:
		return detect.InboundFiltering
	case len(spikes) == 1:
		return detect.NoFiltering
	default:
		return detect.OutboundFiltering
	}
}

// AblationScoresResult compares per-AS scores under two pipeline settings.
type AblationScoresResult struct {
	Name             string
	BaselineScored   int
	VariantScored    int
	MeanAbsScoreDiff float64
}

func compareScores(name string, base, variant *core.Snapshot) AblationScoresResult {
	res := AblationScoresResult{
		Name:           name,
		BaselineScored: len(base.Reports),
		VariantScored:  len(variant.Reports),
	}
	diff, n := 0.0, 0
	for asn, rep := range base.Reports {
		if v, ok := variant.Reports[asn]; ok {
			diff += math.Abs(rep.Score - v.Score)
			n++
		}
	}
	if n > 0 {
		res.MeanAbsScoreDiff = diff / float64(n)
	}
	return res
}

// AblationUnanimity compares the paper's all-vVPs-agree rule with a
// majority-vote variant (implemented by measuring with MinVVPs=1, where
// single votes stand in for relaxed agreement).
func AblationUnanimity(seed int64, out io.Writer) AblationScoresResult {
	w := mustWorld(smallWorld(seed))
	_, base := measureAt(w, 0, seed)

	relaxed := core.DefaultRunnerConfig(seed)
	relaxed.MinVVPsPerAS = 1
	variant := round(core.NewRunner(w, relaxed))

	res := compareScores("unanimity(min=2) vs single-vVP(min=1)", base, variant)
	fprintf(out, "== Ablation: minimum vVPs per AS ==\n")
	fprintf(out, "scored ASes: %d (min 2 vVPs) vs %d (min 1)\n", res.BaselineScored, res.VariantScored)
	fprintf(out, "mean |score delta| on shared ASes: %.2f points\n", res.MeanAbsScoreDiff)
	return res
}

// AblationTrafficCutoff compares background cutoffs 10 vs 30 vs 100 pkt/s.
func AblationTrafficCutoff(seed int64, out io.Writer) []AblationScoresResult {
	w := mustWorld(smallWorld(seed))
	_, base := measureAt(w, 0, seed)

	var out2 []AblationScoresResult
	fprintf(out, "== Ablation: background-traffic cutoff ==\n")
	fprintf(out, "cutoff 10 pkt/s: %d scored ASes, consistency %s\n",
		len(base.Reports), percent(base.ConsistentPairFraction))
	for _, cutoff := range []float64{30, 100} {
		cfg := core.DefaultRunnerConfig(seed)
		cfg.BackgroundCutoff = cutoff
		snap := round(core.NewRunner(w, cfg))
		r := compareScores("cutoff", base, snap)
		out2 = append(out2, r)
		fprintf(out, "cutoff %3.0f pkt/s: %d scored ASes (+%d), consistency %s, mean |score delta| %.2f\n",
			cutoff, len(snap.Reports), len(snap.Reports)-len(base.Reports),
			percent(snap.ConsistentPairFraction), r.MeanAbsScoreDiff)
	}
	return out2
}

// AblationExclusivityResult quantifies the §3.2 test-prefix filter.
type AblationExclusivityResult struct {
	WithFilter, WithoutFilter int // test prefixes selected
	// SharedMisleads: shared prefixes that, if (wrongly) used as test
	// prefixes, would be reachable even from full-ROV ASes.
	SharedMisleads int
}

// AblationExclusivity shows why dual-announced invalid prefixes must be
// excluded from the tNode set: it counts the prefixes with ANY invalid route
// at the collector — the set without the §3.2 exclusivity requirement —
// beside the round's exclusively-invalid test prefixes.
func AblationExclusivity(seed int64, out io.Writer) AblationExclusivityResult {
	w := mustWorld(smallWorld(seed))
	var res AblationExclusivityResult
	_, base := measureAt(w, 0, seed)
	res.WithFilter = base.TestPrefixes

	view := w.Collector.Snapshot(w.Graph)
	for _, p := range view.Prefixes() {
		for _, obs := range view.Routes(p) {
			if w.VRPs.Validate(p, obs.Origin()) == rpki.Invalid {
				res.WithoutFilter++
				break
			}
		}
	}
	for _, inv := range w.Invalids {
		if !inv.Shared {
			continue
		}
		// A full-ROV AS still reaches the shared prefix via the victim.
		for asn, tr := range w.Truth {
			if tr.Kind == "full" && tr.DeployedAt(0) && !tr.DefaultLeak {
				if w.Graph.Reachable(asn, inv.Prefix.Addr().Next()) {
					res.SharedMisleads++
				}
				break
			}
		}
	}

	fprintf(out, "== Ablation: exclusive-invalid test-prefix filter ==\n")
	fprintf(out, "test prefixes with the filter:    %d\n", res.WithFilter)
	fprintf(out, "invalid prefixes without it:      %d\n", res.WithoutFilter)
	fprintf(out, "shared prefixes reachable from a full-ROV AS (false negatives avoided): %d\n", res.SharedMisleads)
	return res
}
