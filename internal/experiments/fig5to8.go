package experiments

import (
	"io"
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/analysis"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/topology"
)

// Fig5Result is the Figure-5 reproduction: the CDF of the latest ROV
// protection scores plus the paper's three headline shares.
type Fig5Result struct {
	CDF []analysis.CDFPoint
	// ZeroPct / FullPct / PartialPct are the shares of scored ASes at 0%,
	// at 100%, and strictly in between (paper: 36.2% / 12.3% / 51.5%).
	ZeroPct, FullPct, PartialPct float64
	ScoredASes                   int
}

// Fig5 reproduces Figure 5 on a medium world's latest snapshot.
func Fig5(seed int64, out io.Writer) Fig5Result {
	w := mustWorld(mediumWorld(seed))
	_, snap := measureAt(w, w.Cfg.Days, seed)
	return fig5From(snap, out)
}

func fig5From(snap *core.Snapshot, out io.Writer) Fig5Result {
	scores := snap.Scores()
	res := Fig5Result{CDF: analysis.ScoreCDF(scores), ScoredASes: len(scores)}
	zero, full := 0, 0
	for _, s := range scores {
		switch {
		case s == 0:
			zero++
		case s >= 100:
			full++
		}
	}
	if len(scores) > 0 {
		res.ZeroPct = 100 * float64(zero) / float64(len(scores))
		res.FullPct = 100 * float64(full) / float64(len(scores))
		res.PartialPct = 100 - res.ZeroPct - res.FullPct
	}

	fprintf(out, "== Figure 5: CDF of ROV protection scores ==\n")
	fprintf(out, "scored ASes: %d\n", res.ScoredASes)
	fprintf(out, "never protected (0%%):   %5.1f%%   (paper: 36.2%%)\n", res.ZeroPct)
	fprintf(out, "partially protected:    %5.1f%%   (paper: 51.5%%)\n", res.PartialPct)
	fprintf(out, "fully protected (100%%): %5.1f%%   (paper: 12.3%%)\n", res.FullPct)
	fprintf(out, "CDF (every 10 points):\n")
	for _, p := range res.CDF {
		if int(p.Score)%10 == 0 {
			fprintf(out, "  F(%3.0f) = %.3f\n", p.Score, p.Frac)
		}
	}
	return res
}

// Fig6Result is the Figure-6 reproduction: % of ASes at a 100% score per
// snapshot.
type Fig6Result struct {
	Days []int
	Pct  []float64
}

// Fig6 reproduces Figure 6 over a small world's timeline.
func Fig6(seed int64, out io.Writer) Fig6Result {
	cfg := smallWorld(seed)
	days, pct := timeline(mustWorld(cfg), seed, cfg.Days/10).FullProtectionSeries()
	res := Fig6Result{Days: days, Pct: pct}

	fprintf(out, "== Figure 6: %% of ASes with a 100%% ROV score over time ==\n")
	for i := range days {
		fprintf(out, "  day %4d: %5.1f%%\n", days[i], pct[i])
	}
	if len(pct) >= 2 {
		fprintf(out, "start -> end: %.1f%% -> %.1f%% (paper: 6.3%% -> 12.3%%)\n", pct[0], pct[len(pct)-1])
	}
	return res
}

// Fig7Result is the Figure-7 reproduction.
type Fig7Result struct {
	Bins                 []analysis.RankBin
	TopMean, BottomMean  float64
	Top25PctHighScorers  float64 // share of the top quarter scoring >= 80
	Bottom25PctLowScores float64 // share of the bottom quarter scoring < 20
}

// Fig7 reproduces Figure 7: protection score distribution by AS rank.
func Fig7(seed int64, out io.Writer) Fig7Result {
	w := mustWorld(mediumWorld(seed))
	_, snap := measureAt(w, w.Cfg.Days, seed)
	scores := snap.Scores()

	binSize := len(w.Topo.ASNs) / 8
	res := Fig7Result{Bins: analysis.ScoreByRank(w.Topo, scores, binSize)}
	res.TopMean, res.BottomMean = analysis.MeanScoreTopVsBottom(w.Topo, scores)
	res.Top25PctHighScorers = shareInRankQuartile(w.Topo, scores, true)
	res.Bottom25PctLowScores = shareInRankQuartile(w.Topo, scores, false)

	fprintf(out, "== Figure 7: score distribution by AS rank ==\n")
	fprintf(out, "%16s %8s %8s %8s %8s %8s %6s\n", "rank bin", "0-20", "20-40", "40-60", "60-80", "80-100", "n")
	for _, b := range res.Bins {
		fprintf(out, "%7d-%-8d %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %6d\n",
			b.LoRank, b.HiRank,
			100*b.Buckets.Frac[0], 100*b.Buckets.Frac[1], 100*b.Buckets.Frac[2],
			100*b.Buckets.Frac[3], 100*b.Buckets.Frac[4], b.Buckets.N)
	}
	fprintf(out, "mean score, top half of ranking:    %5.1f\n", res.TopMean)
	fprintf(out, "mean score, bottom half of ranking: %5.1f\n", res.BottomMean)
	return res
}

func shareInRankQuartile(topo *topology.Topology, scores map[inet.ASN]float64, top bool) float64 {
	byRank := topo.ByRank()
	q := len(byRank) / 4
	var slice []inet.ASN
	if top {
		slice = byRank[:q]
	} else {
		slice = byRank[len(byRank)-q:]
	}
	hit, n := 0, 0
	for _, asn := range slice {
		s, ok := scores[asn]
		if !ok {
			continue
		}
		n++
		if top && s >= 80 {
			hit++
		}
		if !top && s < 20 {
			hit++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hit) / float64(n)
}

// Fig8Series is one AS's score trajectory in the Figure-8 reproduction.
type Fig8Series struct {
	ASN    inet.ASN
	Role   string // "provider", "stub-customer", "multihomed-customer"
	Days   []int
	Scores []float64
}

// Fig8Result is the KPN collateral-benefit case study.
type Fig8Result struct {
	Provider  inet.ASN
	DeployDay int
	Series    []Fig8Series
	// StubsJumpedWithProvider: single-homed customers that reached 100%
	// the same snapshot the provider did.
	StubsJumpedWithProvider int
	// MultihomedUnchanged: customers with an unfiltered second upstream
	// whose score did not jump (the AS 3573 / 15466 behaviour).
	MultihomedUnchanged int
}

// Fig8 reproduces Figure 8: a provider (the "KPN" role) deploys ROV
// mid-timeline; its single-homed customers inherit full protection the same
// day while multihomed customers with non-filtering second upstreams do not.
func Fig8(seed int64, out io.Writer) Fig8Result {
	cfg := smallWorld(seed)
	// Keep the case study clean of covered invalids: collateral damage
	// would cap everyone's ceiling below 100% and blur the jump the figure
	// is about (KPN and its stubs moved 0% -> 100% in one day).
	cfg.CoveredInvalidAnnouncements = 0
	w := mustWorld(cfg)

	// Cast the roles: a tier-2/3 provider with both single-homed and
	// multihomed customers; everyone in the cast must start unfiltered, and
	// candidates are auditioned against the routing oracle so the scripted
	// deployment produces the figure's dynamics without collapsing the
	// measurement substrate.
	if err := w.AdvanceTo(0); err != nil {
		panic(err)
	}
	provider, stubs, multis := castFig8(w)
	deployDay := cfg.Days / 2
	w.Truth[provider].Policy = rov.Full()
	w.Truth[provider].Kind = "full"
	w.Truth[provider].DeployDay = deployDay
	w.Truth[provider].RollbackDay = 0
	// Guarantee the cast is observable: every role needs qualifying vVPs.
	for _, asn := range append(append([]inet.ASN{provider}, stubs...), multis...) {
		w.AddCandidateHosts(asn, 3)
	}

	tl := timeline(w, seed, cfg.Days/10)

	res := Fig8Result{Provider: provider, DeployDay: deployDay}
	record := func(asn inet.ASN, role string) Fig8Series {
		days, scores := tl.ScoreSeries(asn)
		return Fig8Series{ASN: asn, Role: role, Days: days, Scores: scores}
	}
	res.Series = append(res.Series, record(provider, "provider"))
	for _, s := range stubs {
		ser := record(s, "stub-customer")
		res.Series = append(res.Series, ser)
		if jumpedAt(ser, deployDay) {
			res.StubsJumpedWithProvider++
		}
	}
	for _, m := range multis {
		ser := record(m, "multihomed-customer")
		res.Series = append(res.Series, ser)
		if !jumpedAt(ser, deployDay) {
			res.MultihomedUnchanged++
		}
	}

	fprintf(out, "== Figure 8: collateral benefit — provider %v deploys ROV at day %d ==\n", provider, deployDay)
	for _, ser := range res.Series {
		fprintf(out, "%-22s %v: ", ser.Role, ser.ASN)
		for i := range ser.Days {
			fprintf(out, "(%d,%3.0f) ", ser.Days[i], ser.Scores[i])
		}
		fprintf(out, "\n")
	}
	fprintf(out, "single-homed customers jumping with the provider: %d/%d\n", res.StubsJumpedWithProvider, len(stubs))
	fprintf(out, "multihomed customers unaffected: %d/%d\n", res.MultihomedUnchanged, len(multis))
	return res
}

// jumpedAt reports whether the series moved from below 50 to 100 at or
// right after the deploy day.
func jumpedAt(s Fig8Series, deployDay int) bool {
	var before, after float64 = -1, -1
	for i, d := range s.Days {
		if d < deployDay {
			before = s.Scores[i]
		}
		if d >= deployDay && after < 0 {
			after = s.Scores[i]
		}
	}
	return before >= 0 && after >= 0 && before < 50 && after >= 100
}

// castFig8 picks the provider and customer roles. The world must already be
// advanced (converged): each structural candidate is *auditioned* — its
// deployment is applied temporarily and the routing oracle must show (a) the
// measurement clients keep reaching every invalid prefix, (b) the
// single-homed stubs lose reachability entirely, and (c) the multihomed
// customer keeps a way around. The first candidate passing the audition is
// cast, with the whole cast frozen against schedule noise.
func castFig8(w *core.World) (provider inet.ASN, stubs, multis []inet.ASN) {
	type cand struct {
		asn           inet.ASN
		stubs, multis []inet.ASN
	}
	var structural []cand
	for _, asn := range w.Topo.ASNs {
		tier := w.Topo.Info[asn].Tier
		if tier != topology.Tier2 && tier != topology.Tier3 {
			continue
		}
		var cs, cm []inet.ASN
		for _, c := range w.Topo.Customers(asn) {
			if w.Topo.Info[c].Tier != topology.Stub {
				continue // non-stubs hear routes over peering links too
			}
			provs := w.Topo.Providers(c)
			if len(provs) == 1 {
				cs = append(cs, c)
			} else if len(provs) > 1 {
				for _, p := range provs {
					if p != asn && w.Truth[p].DeployDay < 0 {
						cm = append(cm, c)
						break
					}
				}
			}
		}
		if len(cs) >= 2 && len(cm) >= 1 {
			structural = append(structural, cand{asn, cs[:2], cm[:1]})
		}
	}
	if len(structural) == 0 {
		panic("experiments: no suitable Figure-8 provider in this topology")
	}

	var invalidAddrs []netip.Addr
	var invalidPrefixes []netip.Prefix
	for _, inv := range w.Invalids {
		if inv.Shared {
			continue
		}
		invalidAddrs = append(invalidAddrs, inet.NthAddr(inv.Prefix, 20))
		invalidPrefixes = append(invalidPrefixes, inv.Prefix)
	}
	reachesAll := func(asn inet.ASN) bool {
		for _, a := range invalidAddrs {
			if !w.Graph.Reachable(asn, a) {
				return false
			}
		}
		return true
	}
	reachesAny := func(asn inet.ASN) bool {
		for _, a := range invalidAddrs {
			if w.Graph.Reachable(asn, a) {
				return true
			}
		}
		return false
	}

	freeze := func(c cand) {
		for _, asn := range append(append([]inet.ASN{c.asn}, c.stubs...), c.multis...) {
			w.Truth[asn].DeployDay = -1
			w.Truth[asn].RollbackDay = 0
			w.Truth[asn].Kind = "none"
			w.Truth[asn].DefaultLeak = false
			w.Graph.AS(c.asn).HasDefault = false
			w.Graph.AS(asn).Policy = nil
			w.Graph.AS(asn).VRPs = nil
		}
	}

	for _, c := range structural {
		// Baseline with the cast frozen and un-filtered.
		freeze(c)
		w.Graph.ConvergePrefixes(invalidPrefixes)
		baselineOK := reachesAll(w.ClientA.ASN) && reachesAll(w.ClientB.ASN) && reachesAll(c.asn)
		for _, stx := range c.stubs {
			baselineOK = baselineOK && reachesAll(stx)
		}
		if !baselineOK {
			continue
		}
		// Audition: apply the deployment and check the script's outcome.
		a := w.Graph.AS(c.asn)
		a.Policy = rov.Full()
		a.VRPs = w.VRPs
		w.Graph.ConvergePrefixes(invalidPrefixes)
		ok := reachesAll(w.ClientA.ASN) && reachesAll(w.ClientB.ASN)
		for _, stx := range c.stubs {
			ok = ok && !reachesAny(stx)
		}
		for _, m := range c.multis {
			ok = ok && reachesAny(m)
		}
		// Revert the audition.
		a.Policy = nil
		a.VRPs = nil
		w.Graph.ConvergePrefixes(invalidPrefixes)
		if !ok {
			continue
		}
		sort.Slice(c.stubs, func(i, j int) bool { return c.stubs[i] < c.stubs[j] })
		sort.Slice(c.multis, func(i, j int) bool { return c.multis[i] < c.multis[j] })
		return c.asn, c.stubs, c.multis
	}
	panic("experiments: no Figure-8 candidate survived the routing audition")
}
