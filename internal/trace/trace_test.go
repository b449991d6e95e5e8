package trace

import (
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

func build(t *testing.T) *netsim.Network {
	t.Helper()
	g := bgp.NewGraph()
	g.Link(10, 1, bgp.Customer)
	g.Link(10, 2, bgp.Customer)
	g.Link(2, 3, bgp.Customer)
	g.AS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork(g)
	n.AddHost(netsim.NewHost(ip("10.3.0.1"), 3, ipid.Global, 1, 443))
	return n
}

func TestTCPTracerouteReached(t *testing.T) {
	n := build(t)
	res := TCPTraceroute(n, 1, ip("10.3.0.1"), 443)
	if !res.Reached {
		t.Fatalf("not reached: %+v", res)
	}
	want := []inet.ASN{1, 10, 2, 3}
	if len(res.Hops) != len(want) {
		t.Fatalf("hops = %v, want %v", res.Hops, want)
	}
	for i := range want {
		if res.Hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", res.Hops, want)
		}
	}
	if res.LastHop() != 3 {
		t.Fatalf("LastHop = %v", res.LastHop())
	}
	if res.FirstHopAfterSource() != 10 {
		t.Fatalf("FirstHopAfterSource = %v", res.FirstHopAfterSource())
	}
}

func TestTCPTracerouteClosedPort(t *testing.T) {
	n := build(t)
	res := TCPTraceroute(n, 1, ip("10.3.0.1"), 8080)
	if res.Reached {
		t.Fatal("closed port must not count as reached")
	}
	if res.LastHop() != 3 {
		t.Fatalf("path should still terminate at the host AS: %v", res.Hops)
	}
}

func TestTCPTracerouteNoRoute(t *testing.T) {
	n := build(t)
	res := TCPTraceroute(n, 1, ip("99.9.9.9"), 443)
	if res.Reached || res.Drop != netsim.DropNoRoute {
		t.Fatalf("res = %+v", res)
	}
}

func TestTCPTracerouteNoHost(t *testing.T) {
	n := build(t)
	res := TCPTraceroute(n, 1, ip("10.3.0.99"), 443)
	if res.Reached || res.Drop != netsim.DropNoHost {
		t.Fatalf("res = %+v", res)
	}
}

func TestTCPTracerouteFiltered(t *testing.T) {
	n := build(t)
	n.IngressFilter[3] = func(pkt netsim.Packet) bool { return true }
	res := TCPTraceroute(n, 1, ip("10.3.0.1"), 443)
	if res.Reached || res.Drop != netsim.DropIngress {
		t.Fatalf("res = %+v", res)
	}
}

func TestEmptyResultHelpers(t *testing.T) {
	var r Result
	if r.LastHop() != 0 || r.FirstHopAfterSource() != 0 {
		t.Fatal("empty result helpers wrong")
	}
}
