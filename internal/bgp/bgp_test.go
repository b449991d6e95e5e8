package bgp

import (
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// buildChain creates provider(1) -> customer(2) -> customer(3); AS 3
// originates 10.3.0.0/16.
func buildChain(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	g.Link(1, 2, Customer) // 2 is 1's customer
	g.Link(2, 3, Customer)
	g.AddAS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPropagationUpChain(t *testing.T) {
	g := buildChain(t)
	r, ok := g.AS(1).BestRoute(pfx("10.3.0.0/16"))
	if !ok {
		t.Fatal("provider did not learn customer route")
	}
	if r.Origin() != 3 || r.LearnedFrom != 2 {
		t.Fatalf("route = %+v", r)
	}
	if len(r.Path) != 2 || r.Path[0] != 2 || r.Path[1] != 3 {
		t.Fatalf("path = %v, want [2 3]", r.Path)
	}
}

func TestDataPathDelivery(t *testing.T) {
	g := buildChain(t)
	path, ok := g.DataPath(1, ip("10.3.1.1"))
	if !ok {
		t.Fatal("packet not delivered")
	}
	want := []inet.ASN{1, 2, 3}
	if len(path) != 3 {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDataPathUnroutable(t *testing.T) {
	g := buildChain(t)
	if _, ok := g.DataPath(1, ip("99.9.9.9")); ok {
		t.Fatal("unannounced space must be unreachable")
	}
}

func TestValleyFreeExport(t *testing.T) {
	// 1 and 2 are peers; 3 is 2's provider. A route learned by 2 from its
	// peer 1 must NOT be exported to provider 3 (no valley routing).
	g := NewGraph()
	g.Link(1, 2, Peer)
	g.Link(3, 2, Customer) // 2 is 3's customer
	g.AddAS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.AS(2).BestRoute(pfx("10.1.0.0/16")); !ok {
		t.Fatal("peer route should be learned by 2")
	}
	if _, ok := g.AS(3).BestRoute(pfx("10.1.0.0/16")); ok {
		t.Fatal("peer-learned route leaked to provider (valley)")
	}
}

func TestPeerRouteExportedToCustomers(t *testing.T) {
	// Same topology but 4 is 2's customer: peer routes DO go to customers.
	g := NewGraph()
	g.Link(1, 2, Peer)
	g.Link(2, 4, Customer)
	g.AddAS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.AS(4).BestRoute(pfx("10.1.0.0/16")); !ok {
		t.Fatal("peer route should reach customer")
	}
}

func TestPreferCustomerOverPeerOverProvider(t *testing.T) {
	// AS 10 hears 10.9.0.0/16 from a customer (20), a peer (30) and a
	// provider (40); it must pick the customer route.
	g := NewGraph()
	g.Link(10, 20, Customer)
	g.Link(10, 30, Peer)
	g.Link(40, 10, Customer) // 40 is 10's provider
	origin := inet.ASN(99)
	for _, via := range []inet.ASN{20, 30, 40} {
		g.Link(via, origin+inet.ASN(via), Customer) // give each a distinct stub...
	}
	// Simpler: three distinct origins all announcing the same prefix via
	// different neighbors of 10.
	g.AS(20).Originated = []netip.Prefix{pfx("10.9.0.0/16")}
	g.AS(30).Originated = []netip.Prefix{pfx("10.9.0.0/16")}
	g.AS(40).Originated = []netip.Prefix{pfx("10.9.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	r, ok := g.AS(10).BestRoute(pfx("10.9.0.0/16"))
	if !ok || r.LearnedFrom != 20 {
		t.Fatalf("best = %+v, want via customer 20", r)
	}
}

func TestShorterPathPreferred(t *testing.T) {
	// Two provider paths to the same origin: 1->2->5 and 1->3->4->5; the
	// shorter must win at AS 1.
	g := NewGraph()
	g.Link(2, 1, Customer) // 2 provider of 1
	g.Link(3, 1, Customer)
	g.Link(5, 2, Customer) // 5 provider of 2? No: Link(a,b,Customer) = b is a's customer.
	// Rebuild carefully below instead.
	g = NewGraph()
	// 5 originates; 2 is a customer of 5; 1 is a customer of 2.
	// Also 4 customer of 5, 3 customer of 4, 1 customer of 3.
	g.Link(5, 2, Customer)
	g.Link(2, 1, Customer)
	g.Link(5, 4, Customer)
	g.Link(4, 3, Customer)
	g.Link(3, 1, Customer)
	g.AddAS(5).Originated = []netip.Prefix{pfx("10.5.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	r, ok := g.AS(1).BestRoute(pfx("10.5.0.0/16"))
	if !ok {
		t.Fatal("no route at AS 1")
	}
	if r.LearnedFrom != 2 || len(r.Path) != 2 {
		t.Fatalf("best = %+v, want 2-hop path via 2", r)
	}
}

func TestLoopPrevention(t *testing.T) {
	// Triangle of peers all re-announcing: convergence must terminate and
	// no AS should install a route with itself on the path.
	g := NewGraph()
	g.Link(1, 2, Peer)
	g.Link(2, 3, Peer)
	g.Link(3, 1, Peer)
	g.AddAS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []inet.ASN{1, 2, 3} {
		for _, r := range g.AS(asn).Routes() {
			for _, hop := range r.Path {
				if hop == asn {
					t.Fatalf("AS %v installed looped path %v", asn, r.Path)
				}
			}
		}
	}
}

func TestMoreSpecificWinsForwarding(t *testing.T) {
	// Origin 3 announces /16; origin 4 announces a /24 inside it
	// (sub-prefix hijack); traffic for the /24 must go to 4.
	g := NewGraph()
	g.Link(1, 3, Customer)
	g.Link(1, 4, Customer)
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	g.AS(4).Originated = []netip.Prefix{pfx("10.3.96.0/24")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	if origin, _ := g.OriginOf(1, ip("10.3.96.5")); origin != 4 {
		t.Fatalf("sub-prefix traffic went to %v, want hijacker 4", origin)
	}
	if origin, _ := g.OriginOf(1, ip("10.3.1.1")); origin != 3 {
		t.Fatalf("covering-prefix traffic went to %v, want 3", origin)
	}
}

func TestDefaultRouteForwarding(t *testing.T) {
	// AS 2 has no route for the destination but defaults to AS 1.
	g := NewGraph()
	g.Link(1, 2, Customer)
	g.Link(1, 3, Customer)
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	// Do not converge AS 2's route: emulate by removing after convergence.
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	a2 := g.AS(2)
	a2.DropRoute(pfx("10.3.0.0/16"))
	_, ok := g.DataPath(2, ip("10.3.0.1"))
	if ok {
		t.Fatal("without default route the packet must drop")
	}
	a2.DefaultRoute, a2.HasDefault = 1, true
	path, ok := g.DataPath(2, ip("10.3.0.1"))
	if !ok {
		t.Fatalf("default route should deliver; path=%v", path)
	}
}

func TestDataPathLoopDetection(t *testing.T) {
	// Two ASes defaulting to each other must terminate as undelivered.
	g := NewGraph()
	g.Link(1, 2, Peer)
	a1, a2 := g.AS(1), g.AS(2)
	a1.resetRoutingState(g)
	a2.resetRoutingState(g)
	a1.DefaultRoute, a1.HasDefault = 2, true
	a2.DefaultRoute, a2.HasDefault = 1, true
	if _, ok := g.DataPath(1, ip("10.0.0.1")); ok {
		t.Fatal("default-route loop must not deliver")
	}
}

func TestSelfLinkRejected(t *testing.T) {
	g := NewGraph()
	if err := g.Link(7, 7, Peer); err == nil {
		t.Fatal("self link should error")
	}
}

func TestOwnPrefixNeverDisplaced(t *testing.T) {
	// The legitimate origin also hears a hijack of its own prefix; its own
	// route must remain.
	g := NewGraph()
	g.Link(1, 2, Peer)
	g.AS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	g.AS(2).Originated = []netip.Prefix{pfx("10.1.0.0/16")} // hijacker
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	r, _ := g.AS(1).BestRoute(pfx("10.1.0.0/16"))
	if !r.SelfOriginated() {
		t.Fatal("own prefix displaced by learned route")
	}
}

func TestConvergenceDeterminism(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		g.Link(1, 2, Customer)
		g.Link(1, 3, Customer)
		g.Link(2, 4, Customer)
		g.Link(3, 4, Customer)
		g.Link(2, 3, Peer)
		g.AS(4).Originated = []netip.Prefix{pfx("10.4.0.0/16")}
		g.Converge()
		return g
	}
	g1, g2 := build(), build()
	for asn := range g1.ASes {
		r1, ok1 := g1.AS(asn).BestRoute(pfx("10.4.0.0/16"))
		r2, ok2 := g2.AS(asn).BestRoute(pfx("10.4.0.0/16"))
		if ok1 != ok2 || (ok1 && !routesEqual(r1, r2)) {
			t.Fatalf("AS %v: nondeterministic result %+v vs %+v", asn, r1, r2)
		}
	}
}

// routesEqual compares two installed routes field by field (Route holds a
// path slice, so == does not apply).
func routesEqual(x, y Route) bool {
	if x.Prefix != y.Prefix || x.LearnedFrom != y.LearnedFrom || x.LocalPref != y.LocalPref {
		return false
	}
	return pathsEqual(x.Path, y.Path)
}

func TestAnnouncementHelpers(t *testing.T) {
	a := Announcement{Prefix: pfx("10.0.0.0/8"), Path: []inet.ASN{2, 3, 4}}
	if a.Origin() != 4 {
		t.Fatalf("Origin = %v", a.Origin())
	}
	if (Announcement{}).Origin() != 0 {
		t.Fatal("empty announcement origin should be 0")
	}
}

func TestRelationshipString(t *testing.T) {
	if Customer.String() != "customer" || Peer.String() != "peer" || Provider.String() != "provider" {
		t.Fatal("relationship strings wrong")
	}
}

// rovDropPolicy drops invalid routes — a minimal in-package stand-in to keep
// this test independent of internal/rov (which has its own tests).
type rovDropPolicy struct{}

func (rovDropPolicy) Evaluate(_, _ inet.ASN, _ Relationship, _ Announcement, v rpki.Validity) ImportDecision {
	return ImportDecision{Accept: v != rpki.Invalid}
}

func TestROVFilteringAtImport(t *testing.T) {
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 3, Prefix: pfx("10.3.0.0/16"), MaxLength: 16}})
	g := NewGraph()
	g.Link(1, 2, Customer)
	g.Link(2, 3, Customer)
	g.Link(2, 4, Customer)
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")} // valid origin
	g.AS(4).Originated = []netip.Prefix{pfx("10.3.0.0/16")} // invalid origin
	g.AS(2).Policy = rovDropPolicy{}
	g.AS(2).VRPs = vrps
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	r, ok := g.AS(2).BestRoute(pfx("10.3.0.0/16"))
	if !ok || r.Origin() != 3 {
		t.Fatalf("ROV AS picked %+v, want origin 3", r)
	}
	if r.Validity != rpki.Valid {
		t.Fatalf("validity = %v, want valid", r.Validity)
	}
	// AS 1 (no ROV) hears only what AS 2 exports — the valid route.
	r1, ok := g.AS(1).BestRoute(pfx("10.3.0.0/16"))
	if !ok || r1.Origin() != 3 {
		t.Fatalf("upstream got %+v", r1)
	}
}

// TestFigure9CollateralDamage reproduces the paper's Figure 9: AS 3292
// deploys ROV but its transit AS 3320 does not. AS 36947 hijacks a /24
// inside Orange's (AS 5511) /20. AS 3292 only keeps the valid /20, but
// forwarding hands the packet to AS 3320, whose more-specific /24 entry
// sends it to the hijacker.
func TestFigure9CollateralDamage(t *testing.T) {
	const (
		tdc      inet.ASN = 3292
		dtag     inet.ASN = 3320
		orange   inet.ASN = 5511
		seabone  inet.ASN = 6762
		hijacker inet.ASN = 36947
	)
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: orange, Prefix: pfx("193.251.160.0/20"), MaxLength: 20}})

	g := NewGraph()
	g.Link(dtag, tdc, Customer) // TDC buys transit from DTAG
	g.Link(dtag, orange, Peer)  // DTAG peers with Orange
	g.Link(dtag, seabone, Peer) // DTAG peers with Seabone
	g.Link(seabone, hijacker, Customer)
	g.AS(orange).Originated = []netip.Prefix{pfx("193.251.160.0/20")}
	g.AS(hijacker).Originated = []netip.Prefix{pfx("193.251.160.0/24")}
	g.AS(tdc).Policy = rovDropPolicy{}
	g.AS(tdc).VRPs = vrps
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}

	// TDC's own table holds only the valid /20.
	if _, ok := g.AS(tdc).BestRoute(pfx("193.251.160.0/24")); ok {
		t.Fatal("ROV AS should have filtered the invalid /24")
	}
	if _, ok := g.AS(tdc).BestRoute(pfx("193.251.160.0/20")); !ok {
		t.Fatal("ROV AS should keep the valid /20")
	}

	// Yet the data path for an address in the hijacked /24 ends at the
	// hijacker: collateral damage.
	origin, ok := g.OriginOf(tdc, ip("193.251.160.1"))
	if !ok {
		t.Fatal("packet should be delivered (to the wrong place)")
	}
	if origin != hijacker {
		t.Fatalf("delivered to %v, want hijacker %v", origin, hijacker)
	}

	// Control: an address in the /20 outside the /24 goes to Orange.
	origin, _ = g.OriginOf(tdc, ip("193.251.170.1"))
	if origin != orange {
		t.Fatalf("control traffic went to %v, want %v", origin, orange)
	}
}
