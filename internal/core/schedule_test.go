package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
)

// TestAdvanceCostsTheDaysDelta pins both halves of "AdvanceTo is O(what
// changed)": the day 0 → 50 step of the default world re-converges no more
// prefixes than have an Invalid origination or overlap the ROA diff (not the
// hundreds a VRP merely covers), verifies only the signatures that step
// introduced, and still leaves every Loc-RIB — recorded validity included —
// exactly as a world built and converged from scratch at day 50 has it.
func TestAdvanceCostsTheDaysDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the default world twice")
	}
	const from, to = 0, 50
	w, err := BuildWorld(DefaultWorldConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(from); err != nil {
		t.Fatal(err)
	}
	if w.rp.Verifications == 0 {
		t.Fatal("the first validation verified nothing")
	}

	// The bound, computed from the schedule before the step runs: interned
	// prefixes some origination of which is Invalid on either day, plus
	// those overlapping a ROA whose window opens in (from, to].
	tab := w.Graph.Prefixes()
	bound := map[bgp.PrefixID]bool{}
	for _, inv := range w.Invalids {
		if inv.ActiveAt(from) || inv.ActiveAt(to) {
			bound[tab.Intern(inv.Prefix)] = true
		}
	}
	opened := 0
	for p, d0 := range w.roaDayByPrefix {
		if d0 <= from || d0 > to {
			continue
		}
		opened++
		for id := 0; id < tab.Len(); id++ {
			if p.Overlaps(tab.Prefix(bgp.PrefixID(id))) {
				bound[bgp.PrefixID(id)] = true
			}
		}
	}

	dirtyBefore := w.Graph.Stats().DirtyPrefixes.Load()
	start := time.Now()
	if err := w.AdvanceTo(to); err != nil {
		t.Fatal(err)
	}
	step := time.Since(start)
	dirty := int(w.Graph.Stats().DirtyPrefixes.Load() - dirtyBefore)
	t.Logf("day %d -> %d: %d of %d interned prefixes re-converged (bound %d), %d signatures verified for %d new ROAs, %v",
		from, to, dirty, tab.Len(), len(bound), w.rp.Verifications, opened, step)
	if dirty == 0 || dirty > len(bound) {
		t.Fatalf("re-converged %d prefixes, want 1..%d", dirty, len(bound))
	}
	if w.rp.Verifications != 0 {
		// Every ROA is published at build time and only its window opens
		// later, so no day of this world introduces a signature.
		t.Fatalf("%d signatures verified on a day that published no object", w.rp.Verifications)
	}

	// A quiet re-advance: nothing to validate, nothing to converge, no view
	// rebuilt.
	vrps, version := w.VRPs, w.Graph.Version()
	start = time.Now()
	if err := w.AdvanceTo(to); err != nil {
		t.Fatal(err)
	}
	t.Logf("quiet AdvanceTo: %v", time.Since(start))
	if w.VRPs != vrps || w.Graph.Version() != version || w.rp.Verifications != 0 {
		t.Fatalf("quiet day moved state: vrps %v, version %d -> %d, %d verifications",
			w.VRPs != vrps, version, w.Graph.Version(), w.rp.Verifications)
	}

	fresh, err := BuildWorld(DefaultWorldConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AdvanceTo(to); err != nil {
		t.Fatal(err)
	}
	if !w.VRPs.Equal(fresh.VRPs) {
		t.Fatal("incremental validation and a fresh relying party disagree on the VRP set")
	}
	for _, asn := range w.Topo.ASNs {
		got, want := w.Graph.AS(asn).Routes(), fresh.Graph.AS(asn).Routes()
		if len(got) != len(want) {
			t.Fatalf("AS %v holds %d routes after the step, %d when converged at day %d", asn, len(got), len(want), to)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("AS %v: route after the step differs from a world converged at day %d:\ngot  %+v\nwant %+v", asn, to, got[i], want[i])
			}
		}
	}
}
