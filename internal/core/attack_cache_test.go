package core

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// attackCovering returns a subprefix-hijack event for the /25 containing
// addr — strictly more specific than any test prefix, so it wins LPM
// everywhere it propagates — launched by an AS that is neither the
// address's origin nor the measurement clients' host AS.
func attackCovering(t *testing.T, w *World, addr netip.Addr) (bgp.RouteEvent, inet.ASN) {
	t.Helper()
	sub := netip.PrefixFrom(addr, 25).Masked()
	victim, _ := w.Graph.OriginOf(w.ClientA.ASN, addr)
	for _, asn := range w.Topo.ASNs {
		if asn == victim || asn == w.ClientA.ASN || asn == w.ClientB.ASN {
			continue
		}
		if w.Graph.AS(asn).OriginatesCovering(addr) {
			continue
		}
		return bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: asn, Prefix: sub}, asn
	}
	t.Fatal("no eligible attacker")
	return bgp.RouteEvent{}, 0
}

// TestAttackMovesStampForEveryDestination is the stale-cache regression
// anchor at the stamp level: a pair measurement sends packets toward three
// destinations — the client, the vVP, and the tNode (the destination the
// pair's spoofed probe names). A hijack covering any one of them must move
// that pair's Stamp, or the result cache would happily replay a pre-attack
// verdict.
func TestAttackMovesStampForEveryDestination(t *testing.T) {
	w, err := BuildWorld(SmallWorldConfig(71))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(71))
	snap := r.Measure()
	if len(snap.TNodes) == 0 || len(snap.VVPsByAS) == 0 {
		t.Fatal("round discovered no tNodes or vVPs")
	}
	tnode := snap.TNodes[0].Addr
	var vvp netip.Addr
	for _, vvps := range snap.VVPsByAS {
		vvp = vvps[0].Addr
		break
	}

	stamp := func() pipeline.Stamp {
		return pipeline.PairStamp(destStamp(w.Net, w.ClientA.Addr), destStamp(w.Net, vvp), destStamp(w.Net, tnode))
	}
	dests := map[string]netip.Addr{
		"client": w.ClientA.Addr,
		"vvp":    vvp,
		"tnode":  tnode, // the spoofed packet's destination
	}
	for name, addr := range dests {
		t.Run(name, func(t *testing.T) {
			before := stamp()
			ev, attacker := attackCovering(t, w, addr)
			if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{ev}); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{{Kind: bgp.EvWithdraw, AS: attacker, Prefix: ev.Prefix}}); err != nil {
					t.Fatal(err)
				}
			}()
			after := stamp()
			if before == after {
				t.Fatalf("hijack of %s destination %v left pair stamp unchanged (%+v)", name, addr, before)
			}
		})
	}
}

// TestMidCampaignHijackNeverServesStaleVerdicts is the end-to-end
// regression: with the incremental cache warm, a mid-campaign subprefix
// hijack of a tNode's space must force remeasurement — the incremental
// snapshot stays bit-identical to a from-scratch runner's and never reports
// the victim through pre-attack cached results.
func TestMidCampaignHijackNeverServesStaleVerdicts(t *testing.T) {
	const seed = 73
	wInc, wRef := worldPair(t, seed)

	cfgInc := DefaultRunnerConfig(seed)
	cfgInc.Workers = 4
	cfgRef := cfgInc
	cfgRef.Workers = 1
	rInc := NewRunner(wInc, cfgInc)
	rRef := NewRunner(wRef, cfgRef)

	// Round 1 warms the cache; the reference runs every round from scratch.
	pre := rInc.Measure()
	rRef.ForceFullRound()
	rRef.Measure()
	if len(pre.TNodes) == 0 {
		t.Fatal("no tNodes discovered")
	}
	target := pre.TNodes[0]

	// Mid-campaign hijack: an attacker announces the /24 holding the tNode
	// (the same batch internal/hijack's SubprefixHijack primitive emits).
	ev, _ := attackCovering(t, wInc, target.Addr)
	for _, w := range []*World{wInc, wRef} {
		if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{ev}); err != nil {
			t.Fatal(err)
		}
	}

	got := rInc.Measure()
	rRef.ForceFullRound()
	want := rRef.Measure()
	if got.Metrics.PairsRemeasured == 0 {
		t.Fatal("no pair was remeasured after the hijack: the cache served stale results")
	}
	got.Metrics, want.Metrics = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatal("incremental snapshot diverged from from-scratch runner after mid-campaign hijack")
	}

	// The attack makes the victim unreachable on the data plane, so no
	// report may still carry a pre-attack "responses flowed" verdict
	// (Verdicts[addr] == false) for it — that is exactly what a stale cached
	// pair result would replay. Post-attack the victim either drops out of
	// discovery entirely or is judged filtered everywhere.
	preReachable := 0
	for _, rep := range pre.Reports {
		if v, ok := rep.Verdicts[target.Addr]; ok && !v {
			preReachable++
		}
	}
	if preReachable == 0 {
		t.Fatal("victim tNode was never reported reachable pre-attack; regression test is vacuous")
	}
	for asn, rep := range got.Reports {
		if v, ok := rep.Verdicts[target.Addr]; ok && !v {
			t.Fatalf("AS %v still reports hijacked tNode %v as reachable (stale cached verdict)", asn, target.Addr)
		}
	}
}
