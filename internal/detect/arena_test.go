package detect

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/scan"
)

// carryWorld: provider AS 10 over AS 1 (the client), AS 2 (two vVPs; it
// filters RPKI-invalid routes), AS 3 (two tNodes under an invalid prefix)
// and AS 4 (one host that is a vVP and, listening on 443, a tNode too).
func carryWorld(t *testing.T) (*netsim.Network, *netsim.Host, []netip.Addr, []scan.TNode) {
	t.Helper()
	g := bgp.NewGraph()
	for asn := inet.ASN(1); asn <= 4; asn++ {
		g.Link(10, asn, bgp.Customer)
		g.AS(asn).Originated = []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(asn), 0, 0}), 16)}
	}
	g.AS(2).Policy = rov.Full()
	g.AS(2).VRPs = rpki.NewVRPSet([]rpki.VRP{{ASN: 99, Prefix: pfx("10.3.0.0/16"), MaxLength: 16}})
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork(g)
	client := netsim.NewHost(ip("10.1.0.1"), 1, ipid.Global, 11)
	n.AddHost(client)
	var vvps []netip.Addr
	for i, a := range []string{"10.2.0.1", "10.2.0.2", "10.4.0.1"} {
		addr := ip(a)
		asn := inet.ASN(addr.As4()[1])
		h := netsim.NewHost(addr, asn, ipid.Global, int64(20+i), 443)
		h.BackgroundRate = float64(2 + i)
		n.AddHost(h)
		vvps = append(vvps, addr)
	}
	tnodes := []scan.TNode{{Addr: vvps[2], ASN: 4, Port: 443, Prefix: pfx("10.4.0.0/16")}}
	for i, a := range []string{"10.3.0.1", "10.3.0.2"} {
		n.AddHost(netsim.NewHost(ip(a), 3, ipid.Global, int64(30+i), 443))
		tnodes = append(tnodes, scan.TNode{Addr: ip(a), ASN: 3, Port: 443, Prefix: pfx("10.3.0.0/16")})
	}
	return n, client, vvps, tnodes
}

// TestPairCarryOver: an arena carries its simulator, host clones, view and
// detector scratch from one pair to the next, so a pair measured in an arena
// that has just measured any other pair must equal the same pair measured
// in a fresh arena — over every ordered pair of the grid (one tNode shared
// by every vVP, vVPs sharing an AS, a tNode that is also the vVP and one
// that is a vVP elsewhere), and with the network changed in between: a
// routing change that re-routes the tNodes' prefix, the second pair
// measured over a Without view that hides a vVP or the first over one, and
// the second measured on another network whose filters differ.
func TestPairCarryOver(t *testing.T) {
	n, client, vvps, tnodes := carryWorld(t)
	type pair struct {
		vvp netip.Addr
		tn  scan.TNode
	}
	var pairs []pair
	for _, tn := range tnodes {
		for _, v := range vvps {
			pairs = append(pairs, pair{v, tn})
		}
	}
	hidden := n.Without(vvps[1])
	// other is the same world with AS 2 also dropping what the tNodes'
	// prefix sends it: inbound filtering, on a graph at the same version.
	other, _, _, _ := carryWorld(t)
	other.IngressFilter[2] = func(pkt netsim.Packet) bool { return pfx("10.3.0.0/16").Contains(pkt.Src) }
	measure := func(a *arena, net *netsim.Network, p pair, seed int64) PairResult {
		return a.measureIsolated(net, client, p.vvp, p.tn, seed, 0, true)
	}
	// reroute flips AS 2's filtering and re-converges the tNodes' prefix:
	// the vVPs' RSTs toward the tNodes start or stop arriving.
	filtering := true
	reroute := func() {
		filtering = !filtering
		if filtering {
			n.Graph.AS(2).Policy = rov.Full()
		} else {
			n.Graph.AS(2).Policy = nil
		}
		if _, err := n.Graph.ConvergePrefixes([]netip.Prefix{pfx("10.3.0.0/16")}); err != nil {
			t.Fatal(err)
		}
	}
	variants := []struct {
		name          string
		first, second *netsim.Network
		between       func()
	}{
		{"same network", n, n, func() {}},
		{"second over Without", n, hidden, func() {}},
		{"first over Without", hidden, n, func() {}},
		{"another network", n, other, func() {}},
		{"routing change", n, n, reroute},
	}
	outcomes := map[Outcome]bool{}
	for _, v := range variants {
		a := newArena()
		for i, p := range pairs {
			for j, q := range pairs {
				seed := int64(100*i + j)
				measure(a, v.first, p, seed)
				v.between()
				got := measure(a, v.second, q, seed+1)
				want := measure(newArena(), v.second, q, seed+1)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %v→%v after %v→%v differs from a fresh arena:\n got  %+v\n want %+v",
						v.name, q.vvp, q.tn.Addr, p.vvp, p.tn.Addr, got, want)
				}
				outcomes[got.Outcome] = true
			}
		}
	}
	// The grid must tell the cases apart, or equal results would say little.
	if !outcomes[NoFiltering] || !outcomes[OutboundFiltering] || !outcomes[InboundFiltering] || !outcomes[Inconclusive] {
		t.Fatalf("fixture: the grid's outcomes %v lack one of the three cases or a dead column", fmt.Sprint(outcomes))
	}
}
