package experiments

import (
	"fmt"
	"io"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/analysis"
	"github.com/netsec-lab/rovista/internal/baselines"
	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/groundtruth"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/topology"
)

// Fig9Result is the collateral-damage case study.
type Fig9Result struct {
	// ROVInstalled: the filtering AS kept only the valid covering route.
	ROVInstalled bool
	// DeliveredToHijacker: its traffic for the /24 nevertheless reached the
	// wrong origin.
	DeliveredToHijacker bool
	// ControlToVictim: traffic for the rest of the /20 reached the victim.
	ControlToVictim bool
	// DamageCasesInWorld: §7.4-style detections in a full generated world.
	DamageCasesInWorld int
}

// Fig9 reproduces Figure 9: TDC (ROV) behind Deutsche Telekom (no ROV)
// still delivers traffic to an invalid more-specific — then runs the same
// detection over a generated world.
func Fig9(seed int64, out io.Writer) Fig9Result {
	mp := netip.MustParsePrefix
	const (
		tdc      inet.ASN = 3292
		dtag     inet.ASN = 3320
		orange   inet.ASN = 5511
		seabone  inet.ASN = 6762
		hijacker inet.ASN = 36947
	)
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: orange, Prefix: mp("193.251.160.0/20"), MaxLength: 20}})
	g := bgp.NewGraph()
	g.Link(dtag, tdc, bgp.Customer)
	g.Link(dtag, orange, bgp.Peer)
	g.Link(dtag, seabone, bgp.Peer)
	g.Link(seabone, hijacker, bgp.Customer)
	g.AS(orange).Originated = []netip.Prefix{mp("193.251.160.0/20")}
	g.AS(hijacker).Originated = []netip.Prefix{mp("193.251.160.0/24")}
	g.AS(tdc).Policy = rov.Full()
	g.AS(tdc).VRPs = vrps
	if _, err := g.Converge(); err != nil {
		panic(err)
	}

	var res Fig9Result
	_, has24 := g.AS(tdc).BestRoute(mp("193.251.160.0/24"))
	_, has20 := g.AS(tdc).BestRoute(mp("193.251.160.0/20"))
	res.ROVInstalled = !has24 && has20
	if origin, ok := g.OriginOf(tdc, netip.MustParseAddr("193.251.160.1")); ok && origin == hijacker {
		res.DeliveredToHijacker = true
	}
	if origin, ok := g.OriginOf(tdc, netip.MustParseAddr("193.251.170.1")); ok && origin == orange {
		res.ControlToVictim = true
	}

	// Systematic detection over a generated world (§7.4 procedure).
	cfg := smallWorld(seed)
	cfg.CoveredInvalidAnnouncements = 2
	w := mustWorld(cfg)
	if err := w.AdvanceTo(0); err != nil {
		panic(err)
	}
	r := core.NewRunner(w, core.DefaultRunnerConfig(seed))
	snap := r.Measure()
	res.DamageCasesInWorld = len(analysis.DetectCollateralDamage(w, snap, 80))

	fprintf(out, "== Figure 9: collateral damage (TDC behind Deutsche Telekom) ==\n")
	fprintf(out, "TDC filtered the invalid /24 and kept the valid /20: %v\n", res.ROVInstalled)
	fprintf(out, "TDC's traffic for 193.251.160.1 delivered to the hijacker: %v\n", res.DeliveredToHijacker)
	fprintf(out, "control traffic for 193.251.170.1 delivered to Orange: %v\n", res.ControlToVictim)
	fprintf(out, "systematic §7.4 detections in a generated world: %d (paper: 6 ASes)\n", res.DamageCasesInWorld)
	return res
}

// Fig10Point is one snapshot of the single-prefix-vs-RoVista comparison.
type Fig10Point struct {
	Day          int
	FPPct, FNPct float64
	// ExemptScore is the customer-exempting tier-1's RoVista score.
	ExemptScore float64
	HasExempt   bool
}

// Fig10Result is the Figure-10 reproduction.
type Fig10Result struct {
	Points []Fig10Point
	// LinkDay is when the test-prefix owner became the tier-1's customer.
	LinkDay int
	Exempt  inet.ASN
	// FNJumped: the single-prefix FN rate increased after the link event.
	FNJumped bool
	// ScoreDropped: the tier-1's RoVista score dipped below 100 after it.
	ScoreDropped bool
}

// Fig10 reproduces Figure 10: a customer-exempting transit ("AT&T") starts
// carrying the single test prefix when its owner ("Cloudflare") becomes a
// customer mid-timeline; single-prefix measurements then misclassify the
// exempting AS and everything single-homed behind it as unsafe while their
// RoVista scores stay above 90%.
func Fig10(seed int64, out io.Writer) Fig10Result {
	cfg := smallWorld(seed)
	// One tNode per test prefix and a wider prefix pool: the scripted event
	// exposes exactly one prefix, which must cost the exempting AS only a
	// few points (AT&T went 100% -> 97.8%), not a fifth of its score.
	cfg.InvalidAnnouncements = 18
	cfg.TNodesPerInvalid = 1
	cfg.CoveredInvalidAnnouncements = 0
	cfg.TNodeBrokenFrac = 0
	w := mustWorld(cfg)

	// Cast: a transit provider with single-homed stub customers plays the
	// AT&T role — customer-exempt filtering from day 0. Its customer cone
	// must be free of invalid origins, otherwise the exemption leaks test
	// prefixes before the scripted event; its stubs are the
	// collateral-benefit ASes whose misclassification drives the FN rate.
	exempt, stubs, testInv := castFig10(w)
	w.Truth[exempt].Policy = rov.CustomerExempt()
	w.Truth[exempt].Kind = "customer-exempt"
	w.Truth[exempt].DeployDay = 0
	w.Truth[exempt].RollbackDay = 0
	for _, asn := range append([]inet.ASN{exempt}, stubs...) {
		w.AddCandidateHosts(asn, 3)
	}
	testAddr := inet.NthAddr(testInv.Prefix, 20)
	linkDay := cfg.Days / 2

	r := core.NewRunner(w, core.DefaultRunnerConfig(seed))
	res := Fig10Result{LinkDay: linkDay, Exempt: exempt}
	interval := cfg.Days / 10
	linked := false
	for day := 0; day <= cfg.Days; day += interval {
		if !linked && day >= linkDay {
			link := bgp.RouteEvent{Kind: bgp.EvLinkChange, AS: exempt, Peer: testInv.Origin, Rel: bgp.Customer}
			if err := w.Apply(core.Msg{Events: []bgp.RouteEvent{link}}); err != nil {
				panic(err)
			}
			linked = true
		}
		if err := w.AdvanceTo(day); err != nil {
			panic(err)
		}
		snap := r.Measure()
		scores := snap.Scores()
		verdicts := baselines.SinglePrefix(w.Graph, testAddr, sortedKeys(scores))
		fpfn := baselines.CompareSinglePrefix(verdicts, scores)
		p := Fig10Point{Day: day, FPPct: 100 * fpfn.FPRate(), FNPct: 100 * fpfn.FNRate()}
		if s, ok := scores[exempt]; ok {
			p.ExemptScore, p.HasExempt = s, true
		}
		res.Points = append(res.Points, p)
	}

	var fnBefore, fnAfter, nB, nA float64
	for _, p := range res.Points {
		if p.Day < linkDay {
			fnBefore += p.FNPct
			nB++
		} else {
			fnAfter += p.FNPct
			nA++
		}
		if p.HasExempt && p.Day >= linkDay && p.ExemptScore < 100 {
			res.ScoreDropped = true
		}
	}
	if nB > 0 && nA > 0 {
		res.FNJumped = fnAfter/nA > fnBefore/nB
	}

	fprintf(out, "== Figure 10: single-prefix FP/FN vs RoVista; the AT&T/Cloudflare event ==\n")
	fprintf(out, "tier-1 %v exempts customer routes; test-prefix owner becomes its customer on day %d\n", res.Exempt, linkDay)
	fprintf(out, "%8s %8s %8s %14s\n", "day", "FP%", "FN%", "tier1 score")
	for _, p := range res.Points {
		score := "   -"
		if p.HasExempt {
			score = fmtScore(p.ExemptScore)
		}
		fprintf(out, "%8d %7.1f%% %7.1f%% %14s\n", p.Day, p.FPPct, p.FNPct, score)
	}
	fprintf(out, "FN rate increased after the link event: %v (paper: 3.8%% avg, spiking after 2022-03-14)\n", res.FNJumped)
	return res
}

func fmtScore(s float64) string {
	return fmt.Sprintf("%.1f%%", s)
}

// castFig10 picks the "AT&T" role: a transit AS whose customer cone holds
// no invalid origin, with at least two single-homed stub customers; the
// returned invalid plays the Cloudflare test prefix. The cast is frozen so
// scheduled policies cannot interfere with the scripted event.
func castFig10(w *core.World) (inet.ASN, []inet.ASN, core.InvalidAnn) {
	origins := map[inet.ASN]bool{}
	for _, inv := range w.Invalids {
		origins[inv.Origin] = true
	}
	cone := func(asn inet.ASN) map[inet.ASN]bool {
		out := map[inet.ASN]bool{}
		var walk func(a inet.ASN)
		walk = func(a inet.ASN) {
			for _, c := range w.Topo.Customers(a) {
				if !out[c] {
					out[c] = true
					walk(c)
				}
			}
		}
		walk(asn)
		return out
	}
	for _, asn := range w.Topo.ByRank() {
		tier := w.Topo.Info[asn].Tier
		if tier != topology.Tier2 && tier != topology.Tier3 {
			continue
		}
		c := cone(asn)
		dirty := false
		for o := range origins {
			if c[o] {
				dirty = true
				break
			}
		}
		if dirty {
			continue
		}
		var stubs []inet.ASN
		for _, cust := range w.Topo.Customers(asn) {
			if len(w.Topo.Providers(cust)) == 1 {
				stubs = append(stubs, cust)
			}
		}
		if len(stubs) < 2 {
			continue
		}
		if len(stubs) > 3 {
			stubs = stubs[:3]
		}
		// Find a test prefix whose origin is not the cast itself and
		// announces exactly one invalid prefix — like Cloudflare's single
		// test prefix, the link event must expose one tNode, not a batch.
		perOrigin := map[inet.ASN]int{}
		for _, inv := range w.Invalids {
			perOrigin[inv.Origin]++
		}
		for _, inv := range w.Invalids {
			if inv.Shared || inv.Covered || inv.Origin == asn || perOrigin[inv.Origin] != 1 {
				continue
			}
			// Freeze the cast.
			for _, member := range append([]inet.ASN{asn}, stubs...) {
				w.Truth[member].DeployDay = -1
				w.Truth[member].RollbackDay = 0
				w.Truth[member].Kind = "none"
				w.Truth[member].DefaultLeak = false
				w.Graph.AS(member).HasDefault = false
			}
			return asn, stubs, inv
		}
	}
	panic("experiments: no suitable Figure-10 cast in this topology")
}

// Fig11Result is the crowdsourced-list comparison (Figure 11).
type Fig11Result struct {
	// CDFByLabel holds a score CDF per list label.
	CDFByLabel map[baselines.CrowdLabel][]analysis.CDFPoint
	// SafeAt100 / UnsafeAt0 are the agreement shares (paper: 53% of safe
	// ASes at 100%, 80% of unsafe at 0%).
	SafeAt100, UnsafeAt0 float64
	// SafeBelow50: "safe"-labelled ASes RoVista scores below 50 (stale or
	// wrong entries; paper: 16%).
	SafeBelow50 float64
	// MeanByLabel is the mean score per list label; the Figure-11 shape is
	// safe > partially-safe ≳ unsafe.
	MeanByLabel map[baselines.CrowdLabel]float64
	Compared    int
}

// Fig11 reproduces Figure 11: RoVista scores of ASes grouped by their
// crowdsourced-list label, list compiled with lag and errors.
func Fig11(seed int64, out io.Writer) Fig11Result {
	w := mustWorld(mediumWorld(seed))
	if err := w.AdvanceTo(w.Cfg.Days); err != nil {
		panic(err)
	}
	r := core.NewRunner(w, core.DefaultRunnerConfig(seed))
	snap := r.Measure()
	scores := snap.Scores()

	list := groundtruth.BuildCrowdsourcedList(w, w.Cfg.Days, w.Cfg.Days/3, 0.08, 200, seed)
	byLabel := map[baselines.CrowdLabel]map[inet.ASN]float64{}
	res := Fig11Result{CDFByLabel: map[baselines.CrowdLabel][]analysis.CDFPoint{}}
	var safeTotal, safe100, safeLow, unsafeTotal, unsafe0 int
	for _, e := range list {
		s, ok := scores[e.ASN]
		if !ok {
			continue
		}
		res.Compared++
		if byLabel[e.Label] == nil {
			byLabel[e.Label] = map[inet.ASN]float64{}
		}
		byLabel[e.Label][e.ASN] = s
		switch e.Label {
		case baselines.LabelSafe:
			safeTotal++
			if s >= 100 {
				safe100++
			}
			if s < 50 {
				safeLow++
			}
		case baselines.LabelUnsafe:
			unsafeTotal++
			if s == 0 {
				unsafe0++
			}
		}
	}
	res.MeanByLabel = map[baselines.CrowdLabel]float64{}
	for label, m := range byLabel {
		res.CDFByLabel[label] = analysis.ScoreCDF(m)
		sum := 0.0
		for _, v := range m {
			sum += v
		}
		if len(m) > 0 {
			res.MeanByLabel[label] = sum / float64(len(m))
		}
	}
	if safeTotal > 0 {
		res.SafeAt100 = float64(safe100) / float64(safeTotal)
		res.SafeBelow50 = float64(safeLow) / float64(safeTotal)
	}
	if unsafeTotal > 0 {
		res.UnsafeAt0 = float64(unsafe0) / float64(unsafeTotal)
	}

	fprintf(out, "== Figure 11: RoVista scores of crowdsourced-list ASes ==\n")
	fprintf(out, "list entries with a RoVista score: %d\n", res.Compared)
	fprintf(out, "safe-labelled at 100%% score:  %s  (paper: 53%%)\n", percent(res.SafeAt100))
	fprintf(out, "safe-labelled below 50%%:      %s  (paper: 16%%)\n", percent(res.SafeBelow50))
	fprintf(out, "unsafe-labelled at 0%% score:  %s  (paper: 80%%)\n", percent(res.UnsafeAt0))
	fprintf(out, "mean score by label: safe %.1f / partially %.1f / unsafe %.1f\n",
		res.MeanByLabel[baselines.LabelSafe], res.MeanByLabel[baselines.LabelPartiallySafe], res.MeanByLabel[baselines.LabelUnsafe])
	return res
}
