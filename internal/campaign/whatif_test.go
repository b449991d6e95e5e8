package campaign

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/rov"
)

// TestDeployROVWhatIfScope: the engine scopes a deploy-rov counterfactual to
// the prefixes with an Invalid origination. Its answer must equal the one
// from the same policy change forced to re-converge every prefix the VRP set
// covers (the scope the engine used to derive); only the amount of
// re-convergence may differ.
func TestDeployROVWhatIfScope(t *testing.T) {
	w := buildWorld(t, 31)
	if err := w.AdvanceTo(w.Cfg.Days / 2); err != nil {
		t.Fatal(err)
	}
	var covered []netip.Prefix
	tab := w.Graph.Prefixes()
	for id := 0; id < tab.Len(); id++ {
		if p := tab.Prefix(bgp.PrefixID(id)); w.VRPs.CoversPrefix(p) {
			covered = append(covered, p)
		}
	}
	e := &WhatIfEngine{W: w}
	moved, narrowed := 0, 0
	for _, asn := range w.Topo.ASNs {
		if w.Truth[asn].DeployedAt(w.Day) {
			continue
		}
		q := WhatIfQuery{Action: "deploy-rov", ASN: asn}
		got, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		explicit := []bgp.RouteEvent{{Kind: bgp.EvPolicyChange, AS: asn, Policy: rov.Full(), VRPs: w.VRPs, Prefixes: covered}}
		want, err := e.answer(q, explicit, e.invalidProbes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Impacts, want.Impacts) {
			t.Fatalf("AS %v: impacts differ from the all-covered-prefixes scope:\ngot  %+v\nwant %+v", asn, got.Impacts, want.Impacts)
		}
		if got.DirtyPrefixes > want.DirtyPrefixes {
			t.Fatalf("AS %v: scoped query re-converged %d prefixes, the all-covered one %d", asn, got.DirtyPrefixes, want.DirtyPrefixes)
		}
		if got.DirtyPrefixes < want.DirtyPrefixes {
			narrowed++
		}
		for _, imp := range got.Impacts {
			if imp.ChangedOrigins > 0 {
				moved++
				break
			}
		}
	}
	if moved == 0 || narrowed == 0 {
		t.Fatalf("vacuous: %d queries moved an origin, %d had a narrower scope than coverage", moved, narrowed)
	}
}
