package netsim_test

import (
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// TestPairFlowsAreKeyed pins the premise of the pair grid's routing key
// (pipeline.PairKey): every flow a pair measurement's simulator resolves —
// its retries included — leaves the client's, the vVP's or the tNode's AS
// toward one of the other two hosts, and is one of the five keyed (source
// AS, destination) flows; the tNode never sends toward the client. Each
// pair of a default-world round, clean and under the paper's fault profile,
// is re-run alone after the forwarding-path cache is emptied, and the cache
// then holds exactly what the pair resolved.
func TestPairFlowsAreKeyed(t *testing.T) {
	w, err := core.BuildWorld(core.DefaultWorldConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	for _, profile := range []faults.Profile{faults.None(), faults.Paper()} {
		t.Run(profile.Name, func(t *testing.T) {
			w.Net.ArmFaults(profile, seedmix.Mix(7, faults.StreamArm))
			cfg := core.DefaultRunnerConfig(7)
			cfg.RecordPairs = true
			snap := core.NewRunner(w, cfg).Measure()
			retries := 0
			if profile.Enabled() {
				retries = 2
			}
			if len(snap.PairResults) == 0 {
				t.Fatal("the round measured no pairs")
			}
			n, client := w.Net, w.ClientA
			lpm := func(a netip.Addr) bgp.PrefixID {
				id, _ := w.Graph.Prefixes().LPM(a)
				return id
			}
			checked := 0
			for i := 0; i < len(snap.PairResults); i += 1 + len(snap.PairResults)/200 {
				res := snap.PairResults[i]
				vvp, ok := n.HostAt(res.VVP)
				if !ok {
					t.Fatalf("vVP %v is not attached", res.VVP)
				}
				tn := res.TNode
				keyed := map[netsim.CachedRoute]bool{
					{Src: client.ASN, Dst: lpm(vvp.Addr)}: true,
					{Src: client.ASN, Dst: lpm(tn.Addr)}:  true,
					{Src: vvp.ASN, Dst: lpm(client.Addr)}: true,
					{Src: vvp.ASN, Dst: lpm(tn.Addr)}:     true,
					{Src: tn.ASN, Dst: lpm(vvp.Addr)}:     true,
				}
				hosts := map[netip.Addr]bool{client.Addr: true, vvp.Addr: true, tn.Addr: true}
				n.InvalidatePathCache()
				// The attempts core.Runner makes: the first, then under faults
				// every retry at its 2 s backoff offset.
				for attempt := 0; attempt <= retries; attempt++ {
					detect.MeasurePairIsolated(n, client, vvp.Addr, tn, seedmix.Mix(int64(i), int64(attempt)), float64(attempt)*2, false)
				}
				routes, dsts := n.CachedRoutes()
				for _, r := range routes {
					if !keyed[r] {
						t.Fatalf("pair %d (vVP %v, tNode %v) resolved the unkeyed flow %v → prefix %d", i, vvp.Addr, tn.Addr, r.Src, r.Dst)
					}
				}
				for _, a := range dsts {
					if !hosts[a] {
						t.Fatalf("pair %d (vVP %v, tNode %v) sent toward %v", i, vvp.Addr, tn.Addr, a)
					}
				}
				if len(routes) >= 3 {
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no pair resolved three flows; the check is vacuous")
			}
		})
	}
}
