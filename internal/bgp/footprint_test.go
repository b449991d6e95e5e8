package bgp

import (
	"net/netip"
	"strings"
	"testing"
	"unsafe"

	"github.com/netsec-lab/rovista/internal/inet"
)

// TestRoutingStateSizes pins the per-(AS, prefix) layout: a change that grows
// one of these grows the 74k-AS world by gigabytes.
func TestRoutingStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(adjCell{}); got != 24 {
		t.Errorf("adjCell is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(AS{}.best[0]); got != 2 {
		t.Errorf("Loc-RIB slot is %d bytes, want 2", got)
	}
	if got := unsafe.Sizeof(route{}); got != 16 {
		t.Errorf("route is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(update{}); got != 16 {
		t.Errorf("update is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(wireAnn{}); got != 32 {
		t.Errorf("announcement header is %d bytes, want 32", got)
	}
}

// checkBestInvariant asserts what the Loc-RIB index promises: for every
// (AS, prefix), best names the adjBetter-maximal entry of its cell, or the
// self route of a prefix the AS originates, or nothing — over an empty cell,
// or where dropped is set (DropRoute leaves the cell populated). Every route
// a cell holds carries the cell's own PrefixID. After a full flood (full
// set) no cell holds a spill run and no AS a spill pool: the flood released
// them.
func checkBestInvariant(t testing.TB, label string, g *Graph, dropped, full bool) {
	t.Helper()
	for asn, a := range g.ASes {
		if len(a.best) != len(a.adjIn) {
			t.Fatalf("%s: AS %v: %d index slots over %d cells", label, asn, len(a.best), len(a.adjIn))
		}
		if full && (len(a.spill) != 0 || a.spillCap|a.spillLen|a.spillLive != 0 || a.spillFree != [16]uint32{}) {
			t.Fatalf("%s: AS %v keeps a spill pool after a full flood: %d segments, cap/len/live %d/%d/%d",
				label, asn, len(a.spill), a.spillCap, a.spillLen, a.spillLive)
		}
		set := 0
		for id, at := range a.best {
			c := &a.adjIn[id]
			if full && c.spill != (spillRef{}) {
				t.Fatalf("%s: AS %v cell %d holds a spill run %+v after a full flood", label, asn, id, c.spill)
			}
			sp := a.spillOf(c)
			if c.r0.ann != nil && c.r0.ann.pid != PrefixID(id) {
				t.Fatalf("%s: AS %v cell %d holds a route for prefix %d", label, asn, id, c.r0.ann.pid)
			}
			for i := range sp {
				if sp[i].ann.pid != PrefixID(id) {
					t.Fatalf("%s: AS %v cell %d spills a route for prefix %d", label, asn, id, sp[i].ann.pid)
				}
			}
			switch {
			case at == 0:
				if c.r0.ann != nil && !dropped {
					t.Fatalf("%s: AS %v prefix %d: populated cell, no route selected", label, asn, id)
				}
				continue
			case at == bestSelf:
				own := false
				for _, p := range a.Originated {
					own = own || p == a.tab.Prefix(PrefixID(id))
				}
				if !own {
					t.Fatalf("%s: AS %v prefix %d: self route for a prefix it does not originate", label, asn, id)
				}
			case c.r0.ann == nil || int(at) > bestR0+len(sp):
				t.Fatalf("%s: AS %v prefix %d: index %d past the cell's %d routes", label, asn, id, at, len(sp)+1)
			default:
				best, want := &c.r0, bestR0
				for i := range sp {
					if adjBetter(&sp[i], best) {
						best, want = &sp[i], bestR0+1+i
					}
				}
				if int(at) != want {
					t.Fatalf("%s: AS %v prefix %d: index %d, the cell's best is at %d", label, asn, id, at, want)
				}
			}
			set++
		}
		n := 0
		for _, c := range a.lenCount {
			n += c
		}
		if n != set {
			t.Fatalf("%s: AS %v: lenCount sums to %d, %d routes selected", label, asn, n, set)
		}
	}
}

// TestFanInBound: a cell holds one route per neighbor in a uint16-sized run,
// so the adjacency that would give an AS more neighbors than that must be
// refused by name — by Link, and so by an EvLinkChange batch — not crash an
// import worker at the next convergence. At the bound the graph converges,
// with the hub's cell full at the flood's peak.
func TestFanInBound(t *testing.T) {
	const hub = inet.ASN(1)
	g := NewGraph()
	p := netip.MustParsePrefix("10.0.0.0/24")
	for i := 0; i < maxCellRoutes; i++ {
		spoke := inet.ASN(100 + i)
		if err := g.Link(hub, spoke, Customer); err != nil {
			t.Fatal(err)
		}
		g.AS(spoke).Originated = []netip.Prefix{p}
	}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	// The hub is the only AS with a second neighbor, so the flood's spill
	// routes are its cell's.
	if live := g.Footprint().SpillFloodLiveBytes / uint64(unsafe.Sizeof(route{})); live != maxSpill {
		t.Fatalf("hub cell held %d spill routes at the flood's peak, want %d", live, maxSpill)
	}
	if r, ok := g.AS(hub).BestRoute(p); !ok || r.LearnedFrom != 100 {
		t.Fatalf("hub selected %+v, want the route from AS100", r)
	}
	checkBestInvariant(t, "full cell", g, false, true)

	const extra = inet.ASN(7)
	for _, link := range []func() error{
		func() error { return g.Link(hub, extra, Customer) },
		func() error { return g.Link(extra, hub, Provider) },
		func() error {
			_, err := g.ApplyEvents([]RouteEvent{{Kind: EvLinkChange, AS: hub, Peer: extra, Rel: Customer}})
			return err
		},
	} {
		err := link()
		if err == nil || !strings.Contains(err.Error(), "AS1 has 32769 neighbors") {
			t.Fatalf("one neighbor too many: %v, want an error naming AS1 and its neighbor count", err)
		}
	}
	if len(g.AS(hub).Neighbors) != maxCellRoutes || len(g.AS(extra).Neighbors) != 0 {
		t.Fatal("a refused adjacency was recorded")
	}
	// Re-typing an adjacency that exists is not growth.
	if err := g.Link(hub, 100, Peer); err != nil {
		t.Fatal(err)
	}
	// The graph's one prefix is all of them: the withdraw is a full flood.
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvWithdraw, AS: 101, Prefix: p}}); err != nil {
		t.Fatal(err)
	}
	if live := g.Footprint().SpillFloodLiveBytes / uint64(unsafe.Sizeof(route{})); live != maxSpill-1 {
		t.Fatalf("hub cell held %d spill routes at the re-flood's peak, want %d", live, maxSpill-1)
	}
	checkBestInvariant(t, "after a withdraw", g, false, true)
}
