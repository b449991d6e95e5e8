package core

import (
	"github.com/netsec-lab/rovista/internal/inet"
	"math"
	"testing"

	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/rpki"
)

func buildSmall(t *testing.T, seed int64) *World {
	t.Helper()
	w, err := BuildWorld(SmallWorldConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorldStructure(t *testing.T) {
	w := buildSmall(t, 1)
	if len(w.Topo.ASNs) != 124 {
		t.Fatalf("AS count = %d", len(w.Topo.ASNs))
	}
	if len(w.Invalids) == 0 {
		t.Fatal("no invalid announcements scheduled")
	}
	if w.ClientA.ASN == w.ClientB.ASN {
		t.Fatal("clients must live in different ASes")
	}
	if w.Truth[w.ClientA.ASN].DeployDay >= 0 || w.Truth[w.ClientB.ASN].DeployDay >= 0 {
		t.Fatal("client ASes must never filter")
	}
	// Hosts: HostsPerAS per AS + tNodes + 2 clients.
	if w.Net.Hosts() < len(w.Topo.ASNs)*w.Cfg.HostsPerAS {
		t.Fatalf("host count = %d", w.Net.Hosts())
	}
}

func TestAdvanceToValidatesRPKI(t *testing.T) {
	w := buildSmall(t, 2)
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if w.VRPs == nil || w.VRPs.Len() == 0 {
		t.Fatal("no VRPs after AdvanceTo")
	}
	// Each invalid announcement must actually validate as invalid; for
	// shared ones, the victim's own announcement of the same prefix must be
	// valid (that is what makes them unusable as test prefixes).
	for _, inv := range w.Invalids {
		if got := w.VRPs.Validate(inv.Prefix, inv.Origin); got != rpki.Invalid {
			t.Fatalf("invalid announcement %v by %v validates as %v", inv.Prefix, inv.Origin, got)
		}
		if inv.Shared {
			if got := w.VRPs.Validate(inv.Prefix, inv.Victim); got != rpki.Valid {
				t.Fatalf("shared victim's announcement of %v validates as %v", inv.Prefix, got)
			}
		}
	}
}

func TestROACoverageGrowsOverTime(t *testing.T) {
	w := buildSmall(t, 3)
	w.AdvanceTo(0)
	start := w.VRPs.Len()
	w.AdvanceTo(w.Cfg.Days)
	end := w.VRPs.Len()
	if end <= start {
		t.Fatalf("ROA coverage did not grow: %d -> %d", start, end)
	}
}

func TestROVScheduleAppliesPolicies(t *testing.T) {
	w := buildSmall(t, 4)
	w.AdvanceTo(w.Cfg.Days)
	filtering, none := 0, 0
	for asn, tr := range w.Truth {
		a := w.Graph.AS(asn)
		if tr.DeployedAt(w.Cfg.Days) {
			filtering++
			if a.Policy == nil || a.VRPs == nil {
				t.Fatalf("deployed AS %v missing policy/VRPs", asn)
			}
		} else {
			none++
			if a.Policy != nil {
				t.Fatalf("non-deployed AS %v has a policy", asn)
			}
		}
	}
	if filtering == 0 {
		t.Fatal("no AS ever deploys ROV")
	}
	frac := float64(filtering) / float64(filtering+none)
	if frac < 0.08 || frac > 0.45 {
		t.Fatalf("deployment fraction %v outside plausible band", frac)
	}
}

func TestROVAdoptionGrowsOverTime(t *testing.T) {
	w := buildSmall(t, 5)
	count := func(day int) int {
		n := 0
		for _, tr := range w.Truth {
			if tr.DeployedAt(day) {
				n++
			}
		}
		return n
	}
	if count(0) >= count(w.Cfg.Days) {
		t.Fatalf("adoption did not grow: %d -> %d", count(0), count(w.Cfg.Days))
	}
}

func TestGroundTruthFiltering(t *testing.T) {
	w := buildSmall(t, 6)
	w.AdvanceTo(0)
	// For a fully deploying AS with no default leak, invalid prefixes must
	// be unreachable; for a never-deploying AS with only non-filtering
	// providers they should mostly be reachable.
	var inv InvalidAnn
	found := false
	for _, cand := range w.Invalids {
		if !cand.Shared {
			inv, found = cand, true
			break
		}
	}
	if !found {
		t.Skip("no exclusive invalid in this seed")
	}
	for asn, tr := range w.Truth {
		if tr.Kind == "full" && tr.DeployedAt(0) && asn != inv.Origin {
			// A filtering AS must never install the invalid route itself.
			// (It may still *reach* the prefix through a non-filtering
			// transit holding the more-specific — collateral damage, §7.4 —
			// or through its own default route.)
			if _, ok := w.Graph.AS(asn).BestRoute(inv.Prefix); ok {
				t.Fatalf("full-ROV AS %v installed the invalid route", asn)
			}
		}
	}
}

func TestSharedInvalidReachableFromROVAS(t *testing.T) {
	w := buildSmall(t, 7)
	w.AdvanceTo(0)
	// Shared prefixes are announced by victim too; an ROV AS keeps the
	// valid route, so the prefix stays reachable (though traffic lands at
	// the victim). That is exactly why they are excluded as test prefixes.
	view := w.Collector.Snapshot(w.Graph)
	excl := view.ExclusivelyInvalid(w.VRPs)
	exclSet := map[string]bool{}
	for _, p := range excl {
		exclSet[p.String()] = true
	}
	for _, inv := range w.Invalids {
		if inv.Shared && exclSet[inv.Prefix.String()] {
			t.Fatalf("shared invalid %v classified as exclusive", inv.Prefix)
		}
		if !inv.Shared && !exclSet[inv.Prefix.String()] {
			t.Fatalf("exclusive invalid %v missing from test prefixes", inv.Prefix)
		}
	}
}

func TestMeasureSnapshot(t *testing.T) {
	w := buildSmall(t, 8)
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(8))
	snap := r.Measure()

	if len(snap.TNodes) < r.Cfg.MinTNodes {
		t.Fatalf("only %d tNodes qualified", len(snap.TNodes))
	}
	if snap.AllVVPs == 0 {
		t.Fatal("no vVPs discovered")
	}
	if len(snap.Reports) == 0 {
		t.Fatal("no ASes scored")
	}
	// Consistency should be high (the paper reports 95.1%).
	if snap.ConsistentPairFraction < 0.85 {
		t.Fatalf("consistency = %v, want >= 0.85", snap.ConsistentPairFraction)
	}
	// Scores are percentages.
	for asn, rep := range snap.Reports {
		if rep.Score < 0 || rep.Score > 100 || math.IsNaN(rep.Score) {
			t.Fatalf("AS %v score = %v", asn, rep.Score)
		}
	}
}

func TestMeasureMatchesOracle(t *testing.T) {
	w := buildSmall(t, 9)
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(9))
	snap := r.Measure()
	if len(snap.Reports) == 0 {
		t.Fatal("no reports")
	}
	// Every per-tNode verdict RoVista reaches must match the data-plane
	// oracle (§6.3.1 found a perfect match for all measured tuples).
	agree, total := 0, 0
	for asn, rep := range snap.Reports {
		for addr, filtered := range rep.Verdicts {
			total++
			if filtered == !w.Graph.Reachable(asn, addr) {
				agree++
			}
		}
	}
	if total == 0 {
		t.Fatal("no verdicts recorded")
	}
	if frac := float64(agree) / float64(total); frac < 0.98 {
		t.Fatalf("only %.1f%% of verdicts match the oracle (%d/%d)", 100*frac, agree, total)
	}
}

func TestDeployedASesScoreHigherThanNone(t *testing.T) {
	w := buildSmall(t, 10)
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(10))
	snap := r.Measure()
	var deployed, nondeployed []float64
	for asn, rep := range snap.Reports {
		if w.Truth[asn].Kind == "full" && w.Truth[asn].DeployedAt(0) && !w.Truth[asn].DefaultLeak {
			deployed = append(deployed, rep.Score)
		}
		if w.Truth[asn].DeployDay < 0 {
			nondeployed = append(nondeployed, rep.Score)
		}
	}
	if len(deployed) == 0 || len(nondeployed) == 0 {
		t.Skip("seed lacks both cohorts among scored ASes")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(deployed) <= mean(nondeployed) {
		t.Fatalf("deployed mean %.1f <= non-deployed mean %.1f", mean(deployed), mean(nondeployed))
	}
	// A full-ROV AS without a default leak can only reach tNodes whose
	// invalid prefix has a covering legitimate announcement (collateral
	// damage, §7.4); anything else reachable means filtering failed.
	coveredPrefix := map[string]bool{}
	for _, inv := range w.Invalids {
		if inv.Covered {
			coveredPrefix[inv.Prefix.String()] = true
		}
	}
	tnodePrefix := map[string]string{}
	for _, tn := range snap.TNodes {
		tnodePrefix[tn.Addr.String()] = tn.Prefix.String()
	}
	for asn, rep := range snap.Reports {
		tr := w.Truth[asn]
		if !(tr.Kind == "full" && tr.DeployedAt(0) && !tr.DefaultLeak) {
			continue
		}
		for addr, filtered := range rep.Verdicts {
			if !filtered && !coveredPrefix[tnodePrefix[addr.String()]] {
				t.Fatalf("full-ROV AS %v reaches uncovered invalid tNode %v", asn, addr)
			}
		}
	}
}

func TestAdvanceToOutOfRange(t *testing.T) {
	w := buildSmall(t, 13)
	if err := w.AdvanceTo(-1); err == nil {
		t.Fatal("expected error for negative day")
	}
	if err := w.AdvanceTo(w.Cfg.Days + 1); err == nil {
		t.Fatal("expected error past the horizon")
	}
}

func TestBuildWorldRejectsZeroDays(t *testing.T) {
	cfg := SmallWorldConfig(1)
	cfg.Days = 0
	if _, err := BuildWorld(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestTruthDeployedAt(t *testing.T) {
	tr := &Truth{DeployDay: 10, RollbackDay: 50}
	cases := []struct {
		day  int
		want bool
	}{{0, false}, {9, false}, {10, true}, {49, true}, {50, false}, {100, false}}
	for _, c := range cases {
		if got := tr.DeployedAt(c.day); got != c.want {
			t.Errorf("DeployedAt(%d) = %v, want %v", c.day, got, c.want)
		}
	}
	never := &Truth{DeployDay: -1}
	if never.DeployedAt(100) {
		t.Fatal("never-deploying AS reported deployed")
	}
}

func TestVVPDiscoveryFindsOnlyGlobalCounters(t *testing.T) {
	w := buildSmall(t, 14)
	w.AdvanceTo(0)
	r := NewRunner(w, DefaultRunnerConfig(14))
	vvps := r.DiscoverVVPs()
	if len(vvps) == 0 {
		t.Fatal("no vVPs found")
	}
	for _, v := range vvps {
		h, ok := w.Net.HostAt(v.Addr)
		if !ok {
			t.Fatalf("vVP %v has no host", v.Addr)
		}
		if h.IPID.Policy() != ipid.Global {
			t.Fatalf("vVP %v has %v counter", v.Addr, h.IPID.Policy())
		}
	}
	// Cache behaves.
	again := r.DiscoverVVPs()
	if len(again) != len(vvps) {
		t.Fatal("cache returned different vVPs")
	}
	// Rediscovery re-measures Poisson background, so borderline hosts may
	// flip; the population must stay essentially the same.
	fresh := NewRunner(w, DefaultRunnerConfig(14)).DiscoverVVPs()
	diff := len(fresh) - len(vvps)
	if diff < 0 {
		diff = -diff
	}
	if diff > len(vvps)/10+1 {
		t.Fatalf("rediscovery differs too much: %d vs %d", len(fresh), len(vvps))
	}
}

func TestMeasureDeterministicAcrossRuns(t *testing.T) {
	run := func() map[inet.ASN]float64 {
		w := buildSmall(t, 31)
		if err := w.AdvanceTo(0); err != nil {
			t.Fatal(err)
		}
		return NewRunner(w, DefaultRunnerConfig(31)).Measure().Scores()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("scored %d vs %d ASes", len(a), len(b))
	}
	for asn, s := range a {
		if b[asn] != s {
			t.Fatalf("AS %v scored %v vs %v across identical runs", asn, s, b[asn])
		}
	}
}
