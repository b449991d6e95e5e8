package rov

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

var ann = bgp.Announcement{Prefix: pfx("10.0.0.0/16"), Path: []inet.ASN{2, 3}}

func TestNoneAcceptsInvalid(t *testing.T) {
	d := (&Policy{Default: ModeAccept}).Evaluate(1, 2, bgp.Peer, ann, rpki.Invalid)
	if !d.Accept || d.LocalPrefDelta != 0 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestFullDropsInvalidOnly(t *testing.T) {
	p := Full()
	if d := p.Evaluate(1, 2, bgp.Customer, ann, rpki.Invalid); d.Accept {
		t.Fatal("invalid should be dropped")
	}
	if d := p.Evaluate(1, 2, bgp.Customer, ann, rpki.Valid); !d.Accept {
		t.Fatal("valid should be accepted")
	}
	if d := p.Evaluate(1, 2, bgp.Customer, ann, rpki.NotFound); !d.Accept {
		t.Fatal("not-found should be accepted")
	}
}

func TestCustomerExempt(t *testing.T) {
	p := CustomerExempt()
	if d := p.Evaluate(1, 2, bgp.Customer, ann, rpki.Invalid); !d.Accept {
		t.Fatal("customer invalid should pass (exemption)")
	}
	if d := p.Evaluate(1, 2, bgp.Peer, ann, rpki.Invalid); d.Accept {
		t.Fatal("peer invalid should be dropped")
	}
	if d := p.Evaluate(1, 2, bgp.Provider, ann, rpki.Invalid); d.Accept {
		t.Fatal("provider invalid should be dropped")
	}
}

func TestPreferValidDepreferences(t *testing.T) {
	p := PreferValid()
	d := p.Evaluate(1, 2, bgp.Customer, ann, rpki.Invalid)
	if !d.Accept || d.LocalPrefDelta >= 0 {
		t.Fatalf("decision = %+v, want accept with negative delta", d)
	}
	d = p.Evaluate(1, 2, bgp.Customer, ann, rpki.Valid)
	if !d.Accept || d.LocalPrefDelta != 0 {
		t.Fatalf("valid route should carry no penalty: %+v", d)
	}
}

func TestPerASNOverrideBeatsRelOverride(t *testing.T) {
	p := &Policy{
		Default: ModeDrop,
		ByRel:   map[bgp.Relationship]Mode{bgp.Peer: ModeDrop},
		ByASN:   map[inet.ASN]Mode{42: ModeAccept},
	}
	if d := p.Evaluate(1, 42, bgp.Peer, ann, rpki.Invalid); !d.Accept {
		t.Fatal("per-ASN override should win")
	}
	if d := p.Evaluate(1, 43, bgp.Peer, ann, rpki.Invalid); d.Accept {
		t.Fatal("other neighbors still filtered")
	}
}

// End-to-end: prefer-valid keeps the invalid route available as backup but
// routes to the valid origin when both exist.
func TestPreferValidEndToEnd(t *testing.T) {
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 3, Prefix: pfx("10.3.0.0/16"), MaxLength: 16}})
	g := bgp.NewGraph()
	g.Link(1, 2, bgp.Customer)
	g.Link(2, 3, bgp.Customer)
	g.Link(2, 4, bgp.Customer)
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	g.AS(4).Originated = []netip.Prefix{pfx("10.3.0.0/16")} // invalid origin
	g.AS(2).Policy = PreferValid()
	g.AS(2).VRPs = vrps
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	r, ok := g.AS(2).BestRoute(pfx("10.3.0.0/16"))
	if !ok || r.Origin() != 3 {
		t.Fatalf("prefer-valid picked %+v, want origin 3", r)
	}
}

// End-to-end: the customer exemption leaves the AS reachable to
// customer-announced invalid prefixes — the AT&T/Cloudflare episode from
// Figure 10.
func TestCustomerExemptEndToEnd(t *testing.T) {
	const (
		att        inet.ASN = 7018
		cloudflare inet.ASN = 13335
		other      inet.ASN = 200
	)
	// Cloudflare's test prefix is deliberately RPKI-invalid (ROA pins a
	// different origin).
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 99999, Prefix: pfx("103.21.244.0/24"), MaxLength: 24}})
	g := bgp.NewGraph()
	g.Link(att, cloudflare, bgp.Customer) // Cloudflare became AT&T's customer
	g.Link(att, other, bgp.Customer)
	g.AS(cloudflare).Originated = []netip.Prefix{pfx("103.21.244.0/24")}
	g.AS(att).Policy = CustomerExempt()
	g.AS(att).VRPs = vrps
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	// AT&T accepts the invalid customer route and propagates it onward.
	if !g.Reachable(att, ip("103.21.244.1")) {
		t.Fatal("customer-exempt AS should reach the invalid prefix")
	}
	if !g.Reachable(other, ip("103.21.244.1")) {
		t.Fatal("invalid route should propagate through the exempting AS")
	}
}

// TestImportPolicyContract pins the bgp.ImportPolicy contract for every
// policy shape this package builds: an announcement that is not Invalid is
// accepted with its LocalPref untouched, whichever neighbor, relationship or
// override applies and whether it validated Valid or NotFound. The event
// engine's policy-change scope (re-converge only prefixes with an Invalid
// origination) is sound only under it.
func TestImportPolicyContract(t *testing.T) {
	policies := map[string]*Policy{
		"none":            {Default: ModeAccept},
		"full":            Full(),
		"customer-exempt": CustomerExempt(),
		"prefer-valid":    PreferValid(),
		"by-asn": {Default: ModeDrop, ByRel: map[bgp.Relationship]Mode{bgp.Peer: ModePreferValid},
			ByASN: map[inet.ASN]Mode{3: ModeAccept, 5: ModePreferValid, 7: ModeDrop}},
	}
	rng := rand.New(rand.NewSource(1))
	for name, p := range policies {
		for i := 0; i < 500; i++ {
			local, neighbor := inet.ASN(1+rng.Intn(9)), inet.ASN(1+rng.Intn(9))
			rel := bgp.Relationship(rng.Intn(3))
			a := bgp.Announcement{Prefix: ann.Prefix, Path: []inet.ASN{neighbor, inet.ASN(1 + rng.Intn(9))}}
			valid := p.Evaluate(local, neighbor, rel, a, rpki.Valid)
			notFound := p.Evaluate(local, neighbor, rel, a, rpki.NotFound)
			if valid != notFound || valid != (bgp.ImportDecision{Accept: true}) {
				t.Fatalf("%s: neighbor %v (%v): valid %+v, not-found %+v, want both accepted unadjusted",
					name, neighbor, rel, valid, notFound)
			}
		}
	}
}
