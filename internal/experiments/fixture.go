package experiments

import (
	"net/netip"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/scan"
)

// detectFixture builds the canonical three-AS side-channel fixture used by
// the Figure 2/3 experiments: provider AS 10; AS 1 hosts the measurement
// client, AS 2 the vVP, AS 3 the tNode announcing an RPKI-invalid prefix
// (its ROA names AS 99). With rovAt2 the vVP's AS filters invalids.
func detectFixture(seed int64, rovAt2 bool) (*netsim.Network, *netsim.Host, *netsim.Host, scan.TNode) {
	mp := netip.MustParsePrefix
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 99, Prefix: mp("10.3.0.0/16"), MaxLength: 16}})
	g := bgp.NewGraph()
	g.Link(10, 1, bgp.Customer)
	g.Link(10, 2, bgp.Customer)
	g.Link(10, 3, bgp.Customer)
	g.AS(1).Originated = []netip.Prefix{mp("10.1.0.0/16")}
	g.AS(2).Originated = []netip.Prefix{mp("10.2.0.0/16")}
	g.AS(3).Originated = []netip.Prefix{mp("10.3.0.0/16")}
	if rovAt2 {
		g.AS(2).Policy = rov.Full()
		g.AS(2).VRPs = vrps
	}
	if _, err := g.Converge(); err != nil {
		panic(err)
	}
	n := netsim.NewNetwork(g)
	client := netsim.NewHost(netip.MustParseAddr("10.1.0.1"), 1, ipid.Global, seed+1)
	vvp := netsim.NewHost(netip.MustParseAddr("10.2.0.1"), 2, ipid.Global, seed+2)
	vvp.BackgroundRate = 2
	tnode := netsim.NewHost(netip.MustParseAddr("10.3.0.1"), 3, ipid.Global, seed+3, 443)
	n.AddHost(client)
	n.AddHost(vvp)
	n.AddHost(tnode)
	tn := scan.TNode{Addr: tnode.Addr, ASN: 3, Port: 443, Prefix: mp("10.3.0.0/16")}
	return n, client, vvp, tn
}
