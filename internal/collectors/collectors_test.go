package collectors

import (
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// graph: 1 and 2 are tier providers; 3 originates a valid prefix, 4 an
// invalid one, 5 originates the victim's prefix invalidly while 6 announces
// it validly (shared).
func build(t *testing.T) (*bgp.Graph, *rpki.VRPSet) {
	t.Helper()
	g := bgp.NewGraph()
	g.Link(1, 2, bgp.Peer)
	for _, asn := range []inet.ASN{3, 4} {
		g.Link(1, asn, bgp.Customer)
		g.Link(2, asn, bgp.Customer)
	}
	// Split the shared-prefix origins across feeders so the collector's
	// union view contains both (had both fed through the same providers,
	// the deterministic tiebreak could hide the valid origin entirely —
	// which is precisely the paper's limited-visibility caveat).
	g.Link(1, 5, bgp.Customer)
	g.Link(2, 6, bgp.Customer)
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	g.AS(4).Originated = []netip.Prefix{pfx("10.9.0.0/20")} // exclusively invalid
	g.AS(5).Originated = []netip.Prefix{pfx("10.6.0.0/16")} // invalid (shared)
	g.AS(6).Originated = []netip.Prefix{pfx("10.6.0.0/16")} // valid owner
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	vrps := rpki.NewVRPSet([]rpki.VRP{
		{ASN: 3, Prefix: pfx("10.3.0.0/16"), MaxLength: 16},
		{ASN: 99, Prefix: pfx("10.9.0.0/16"), MaxLength: 16},
		{ASN: 6, Prefix: pfx("10.6.0.0/16"), MaxLength: 16},
	})
	return g, vrps
}

func TestSnapshotAndOrigins(t *testing.T) {
	g, _ := build(t)
	c := &Collector{Name: "rv", Feeders: []inet.ASN{1, 2}}
	v := c.Snapshot(g)
	if got := len(v.Prefixes()); got != 3 {
		t.Fatalf("prefixes = %d, want 3", got)
	}
	origins := v.Origins(pfx("10.6.0.0/16"))
	if len(origins) != 2 || origins[0] != 5 || origins[1] != 6 {
		t.Fatalf("origins = %v", origins)
	}
	// Feeder paths start with the feeder.
	for _, r := range v.Routes(pfx("10.3.0.0/16")) {
		if r.Path[0] != r.Feeder {
			t.Fatalf("path %v does not start at feeder %v", r.Path, r.Feeder)
		}
		if r.Origin() != 3 {
			t.Fatalf("origin = %v", r.Origin())
		}
	}
}

func TestPartialVisibility(t *testing.T) {
	g, _ := build(t)
	// A collector fed only by AS 3 sees only what AS 3's table holds;
	// notably AS 4's prefix is visible via 3's providers, but a collector
	// with zero feeders sees nothing.
	empty := &Collector{Name: "empty"}
	if n := len(empty.Snapshot(g).Prefixes()); n != 0 {
		t.Fatalf("empty collector saw %d prefixes", n)
	}
	ghost := &Collector{Name: "ghost", Feeders: []inet.ASN{999}}
	if n := len(ghost.Snapshot(g).Prefixes()); n != 0 {
		t.Fatalf("ghost feeder saw %d prefixes", n)
	}
}

func TestClassify(t *testing.T) {
	g, vrps := build(t)
	c := &Collector{Feeders: []inet.ASN{1, 2}}
	st := c.Snapshot(g).Classify(vrps)
	if st.Total != 3 {
		t.Fatalf("total = %d", st.Total)
	}
	if st.Covered != 3 {
		t.Fatalf("covered = %d, want 3", st.Covered)
	}
	if st.Invalid != 2 {
		t.Fatalf("invalid = %d, want 2 (10.9/20 and shared 10.6/16)", st.Invalid)
	}
	if st.Exclusive != 1 {
		t.Fatalf("exclusive = %d, want 1 (only 10.9/20)", st.Exclusive)
	}
}

func TestExclusivelyInvalid(t *testing.T) {
	g, vrps := build(t)
	c := &Collector{Feeders: []inet.ASN{1, 2}}
	got := c.Snapshot(g).ExclusivelyInvalid(vrps)
	if len(got) != 1 || got[0] != pfx("10.9.0.0/20") {
		t.Fatalf("exclusive = %v", got)
	}
}

func TestFleet(t *testing.T) {
	f := NewFleet([]inet.ASN{10, 20}, 3)
	if len(f.Probes) != 6 {
		t.Fatalf("probes = %d", len(f.Probes))
	}
	asns := f.ASNs()
	if len(asns) != 2 || asns[0] != 10 || asns[1] != 20 {
		t.Fatalf("ASNs = %v", asns)
	}
	// IDs unique.
	seen := map[int]bool{}
	for _, p := range f.Probes {
		if seen[p.ID] {
			t.Fatalf("duplicate probe id %d", p.ID)
		}
		seen[p.ID] = true
	}
}
