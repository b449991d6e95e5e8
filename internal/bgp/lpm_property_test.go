package bgp

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
)

// refLookup is the brute-force reference for AS.Lookup: the most specific
// of routes whose prefix contains dst.
func refLookup(routes []Route, dst netip.Addr) (Route, bool) {
	var best Route
	ok := false
	for _, r := range routes {
		if r.Prefix.Contains(dst) && (!ok || r.Prefix.Bits() > best.Prefix.Bits()) {
			best, ok = r, true
		}
	}
	return best, ok
}

// checkLookupAgainstReference compares AS.Lookup with refLookup for dst.
func checkLookupAgainstReference(t *testing.T, a *AS, routes []Route, dst netip.Addr) {
	t.Helper()
	gotR, gotOK := a.Lookup(dst)
	wantR, wantOK := refLookup(routes, dst)
	if gotOK != wantOK {
		t.Fatalf("AS %v Lookup(%v): hit=%v, reference says %v", a.ASN, dst, gotOK, wantOK)
	}
	if !gotOK {
		return
	}
	if gotR.Prefix != wantR.Prefix {
		t.Fatalf("AS %v Lookup(%v): matched %v, reference matched %v", a.ASN, dst, gotR.Prefix, wantR.Prefix)
	}
	if !routesEqual(gotR, wantR) {
		t.Fatalf("AS %v Lookup(%v): route %+v, reference %+v", a.ASN, dst, gotR, wantR)
	}
}

// TestLookupAgreesWithTrieReference: the data-plane longest-prefix match over
// the slice-backed Loc-RIB (per-plen key probes against the interned prefix
// table) must agree with a brute-force longest match over the AS's Routes()
// for every address — same hit/miss, same matched prefix, same route — across random
// topologies announcing nested prefixes at many depths, and must keep
// agreeing after DropRoute punches holes in the table.
func TestLookupAgreesWithTrieReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed*7901 + 13))
		g := randomHierarchy(seed)
		asns := g.sortedASNs()

		// Layer nested prefixes onto a few origins: a /12 with /16, /20 and
		// /24 more-specifics, some from different origins — the shape that
		// exercises every probe length in Lookup.
		var probes []netip.Addr
		for i := 0; i < 4; i++ {
			origin := asns[rng.Intn(len(asns))]
			base := netip.PrefixFrom(inet.V4(uint32(64+i)<<24), 12)
			g.AS(origin).Originated = append(g.AS(origin).Originated, base)
			for _, plen := range []int{16, 20, 24} {
				sub := inet.SubnetAt(base, plen, uint32(rng.Intn(1<<(plen-12))))
				who := asns[rng.Intn(len(asns))]
				g.AS(who).Originated = append(g.AS(who).Originated, sub)
				probes = append(probes, sub.Addr(), inet.NthAddr(sub, 1))
			}
			probes = append(probes, base.Addr(), inet.NthAddr(base, 77))
		}
		if _, err := g.Converge(); err != nil {
			t.Fatalf("seed %d: converge: %v", seed, err)
		}
		// Random addresses, covered or not.
		for i := 0; i < 64; i++ {
			probes = append(probes, inet.V4(rng.Uint32()))
		}

		for _, i := range []int{0, len(asns) / 2, len(asns) - 1} {
			a := g.AS(asns[i])
			routes := a.Routes()
			for _, dst := range probes {
				checkLookupAgainstReference(t, a, routes, dst)
			}

			// DropRoute holes: remove a third of the routes and require the
			// next-less-specific to take over exactly as in the reference.
			var kept []Route
			for _, r := range routes {
				if rng.Float64() < 0.33 {
					a.DropRoute(r.Prefix)
				} else {
					kept = append(kept, r)
				}
			}
			for _, dst := range probes {
				checkLookupAgainstReference(t, a, kept, dst)
			}
		}
	}
}

// TestDefaultScopeFallbackMatchesReference: when the LPM misses (or the hole
// punched by DropRoute makes it miss), the data plane falls back to the
// default route only for destinations inside DefaultScope — and the
// reference miss plus scope containment exactly predicts which.
func TestDefaultScopeFallbackMatchesReference(t *testing.T) {
	g := NewGraph()
	g.AddAS(1)
	g.AddAS(2)
	g.AddAS(3)
	g.Link(1, 2, Customer) // 1 is 2's provider
	g.Link(1, 3, Customer)
	g.AS(3).Originated = []netip.Prefix{netip.PrefixFrom(inet.V4(10<<24), 8)}
	if _, err := g.Converge(); err != nil {
		t.Fatalf("converge: %v", err)
	}

	a := g.AS(2)
	scope := netip.PrefixFrom(inet.V4(192<<24), 8)
	a.DefaultRoute, a.HasDefault = 1, true
	a.DefaultScope = scope
	g.BumpVersion()

	routes := a.Routes()
	inScope := inet.NthAddr(scope, 9)
	outScope := inet.V4(11 << 24)
	covered := inet.V4(10<<24 | 42)

	for _, dst := range []netip.Addr{inScope, outScope, covered} {
		_, refHit := refLookup(routes, dst)
		_, lpmHit := a.Lookup(dst)
		if refHit != lpmHit {
			t.Fatalf("Lookup(%v)=%v, reference %v", dst, lpmHit, refHit)
		}
		path, delivered := g.DataPath(2, dst)
		switch {
		case refHit:
			if !delivered {
				t.Fatalf("DataPath(2, %v): covered destination not delivered (path %v)", dst, path)
			}
		case scope.Contains(dst):
			// LPM miss inside the scope: must take the default toward AS 1
			// (which has no route either, so the packet dies there — but the
			// hop must happen).
			if delivered || len(path) < 2 || path[len(path)-1] != 1 {
				t.Fatalf("DataPath(2, %v): expected default-route hop to AS 1, got path=%v delivered=%v", dst, path, delivered)
			}
		default:
			// LPM miss outside the scope: the packet must never leave AS 2.
			if delivered || len(path) > 1 {
				t.Fatalf("DataPath(2, %v): expected unroutable at src, got path=%v delivered=%v", dst, path, delivered)
			}
		}
	}
}
