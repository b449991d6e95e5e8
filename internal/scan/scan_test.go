package scan

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// fixture: AS 10 provider; AS 1 and 2 host the clients; AS 3 hosts vVP
// candidates; AS 4 announces the test prefix with tNode candidates.
type fixture struct {
	net              *netsim.Network
	clientA, clientB *netsim.Host
	sc               *Scanner
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g := bgp.NewGraph()
	for _, asn := range []inet.ASN{1, 2, 3, 4} {
		g.Link(10, asn, bgp.Customer)
	}
	g.AS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	g.AS(2).Originated = []netip.Prefix{pfx("10.2.0.0/16")}
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	g.AS(4).Originated = []netip.Prefix{pfx("10.4.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork(g)
	a := netsim.NewHost(ip("10.1.0.1"), 1, ipid.Global, 1)
	b := netsim.NewHost(ip("10.2.0.1"), 2, ipid.Global, 2)
	n.AddHost(a)
	n.AddHost(b)
	f := &fixture{net: n, clientA: a, clientB: b}
	f.sc = NewScanner(n, a, b, 443)
	return f
}

// scanTNodes runs the §4.1 scan over every host under the prefixes and
// returns the hosts a service answered on (with its port) and, of those, the
// ones that qualified.
func scanTNodes(sc *Scanner, prefixes []netip.Prefix) (listeners, tnodes []TNode) {
	cands := sc.TNodeCandidates(nil, prefixes)
	addrs := make([]netip.Addr, len(cands))
	for i, c := range cands {
		addrs[i] = c.Addr
	}
	for i, ans := range sc.QualifyTNodes(addrs) {
		c := cands[i]
		c.Port = ans.Port
		if ans.Port != 0 {
			listeners = append(listeners, c)
		}
		if ans.Qualified {
			tnodes = append(tnodes, c)
		}
	}
	return listeners, tnodes
}

func findListeners(sc *Scanner, prefixes []netip.Prefix) []TNode {
	listeners, _ := scanTNodes(sc, prefixes)
	return listeners
}

func discoverTNodes(sc *Scanner, prefixes []netip.Prefix) []TNode {
	_, tnodes := scanTNodes(sc, prefixes)
	return tnodes
}

func TestDiscoverVVPsByPolicy(t *testing.T) {
	f := newFixture(t)
	mk := func(last byte, pol ipid.Policy, bg float64) netip.Addr {
		addr := netip.AddrFrom4([4]byte{10, 3, 0, last})
		h := netsim.NewHost(addr, 3, pol, int64(last))
		h.BackgroundRate = bg
		f.net.AddHost(h)
		return addr
	}
	global := mk(10, ipid.Global, 2)
	perDest := mk(11, ipid.PerDestination, 2)
	random := mk(12, ipid.Random, 2)
	constant := mk(13, ipid.Constant, 2)

	vvps := f.sc.DiscoverVVPs([]netip.Addr{global, perDest, random, constant})
	if len(vvps) != 1 {
		t.Fatalf("qualified %d vVPs, want only the global-counter host: %+v", len(vvps), vvps)
	}
	if vvps[0].Addr != global {
		t.Fatalf("qualified %v, want %v", vvps[0].Addr, global)
	}
	if vvps[0].ASN != 3 {
		t.Fatalf("ASN = %v", vvps[0].ASN)
	}
	// Background estimate should be in the right ballpark (2 pkt/s).
	if vvps[0].BackgroundRate < 0 || vvps[0].BackgroundRate > 8 {
		t.Fatalf("background estimate %v", vvps[0].BackgroundRate)
	}
}

func TestDiscoverVVPsSilentHostRejected(t *testing.T) {
	f := newFixture(t)
	addr := ip("10.3.0.30")
	h := netsim.NewHost(addr, 3, ipid.Global, 30)
	h.Handler = func(*netsim.Sim, netsim.Packet) bool { return true } // never answers
	f.net.AddHost(h)
	if vvps := f.sc.DiscoverVVPs([]netip.Addr{addr}); len(vvps) != 0 {
		t.Fatalf("silent host qualified: %+v", vvps)
	}
}

func TestDiscoverVVPsUnreachableCandidate(t *testing.T) {
	f := newFixture(t)
	if vvps := f.sc.DiscoverVVPs([]netip.Addr{ip("99.9.9.9")}); len(vvps) != 0 {
		t.Fatalf("unreachable candidate qualified: %+v", vvps)
	}
}

func TestDiscoverVVPsBackgroundEstimate(t *testing.T) {
	f := newFixture(t)
	addr := ip("10.3.0.40")
	h := netsim.NewHost(addr, 3, ipid.Global, 40)
	h.BackgroundRate = 6
	f.net.AddHost(h)
	vvps := f.sc.DiscoverVVPs([]netip.Addr{addr})
	if len(vvps) != 1 {
		t.Fatalf("vvps = %+v", vvps)
	}
	if est := vvps[0].BackgroundRate; est < 2 || est > 12 {
		t.Fatalf("estimate %v for true rate 6", est)
	}
}

func addTNodeHost(f *fixture, last byte, cfgMod func(*tcpsim.Config)) netip.Addr {
	addr := netip.AddrFrom4([4]byte{10, 4, 0, last})
	cfg := tcpsim.DefaultConfig(443)
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	h := netsim.NewHost(addr, 4, ipid.Global, int64(last))
	h.TCP = tcpsim.New(cfg)
	f.net.AddHost(h)
	return addr
}

func TestFindListeners(t *testing.T) {
	f := newFixture(t)
	open := addTNodeHost(f, 20, nil)
	// A host with no open ports is invisible to the sweep.
	closed := netsim.NewHost(ip("10.4.0.21"), 4, ipid.Global, 21)
	f.net.AddHost(closed)

	got := findListeners(f.sc, []netip.Prefix{pfx("10.4.0.0/16")})
	if len(got) != 1 || got[0].Addr != open || got[0].Port != 443 {
		t.Fatalf("listeners = %+v", got)
	}
	if got[0].Prefix != pfx("10.4.0.0/16") {
		t.Fatalf("prefix = %v", got[0].Prefix)
	}
}

func TestQualifyTNodeCompliant(t *testing.T) {
	f := newFixture(t)
	addr := addTNodeHost(f, 22, nil)
	if ans := f.sc.QualifyTNode(addr); ans.Port != 443 || !ans.Qualified {
		t.Fatal("compliant host should qualify")
	}
}

func TestQualifyTNodeNoRetransmit(t *testing.T) {
	f := newFixture(t)
	addr := addTNodeHost(f, 23, func(c *tcpsim.Config) { c.Behavior = tcpsim.NoRetransmit })
	if f.sc.QualifyTNode(addr).Qualified {
		t.Fatal("non-retransmitting host must fail condition (b)")
	}
}

func TestQualifyTNodeIgnoresRST(t *testing.T) {
	f := newFixture(t)
	addr := addTNodeHost(f, 24, func(c *tcpsim.Config) { c.Behavior = tcpsim.IgnoreRST })
	if f.sc.QualifyTNode(addr).Qualified {
		t.Fatal("RST-ignoring host must fail condition (c)")
	}
}

func TestQualifyTNodeSilent(t *testing.T) {
	f := newFixture(t)
	addr := addTNodeHost(f, 25, nil)
	h, _ := f.net.HostAt(addr)
	h.Handler = func(*netsim.Sim, netsim.Packet) bool { return true }
	if f.sc.QualifyTNode(addr).Qualified {
		t.Fatal("silent host must fail condition (a)")
	}
}

func TestDiscoverTNodesEndToEnd(t *testing.T) {
	f := newFixture(t)
	good := addTNodeHost(f, 26, nil)
	addTNodeHost(f, 27, func(c *tcpsim.Config) { c.Behavior = tcpsim.NoRetransmit })

	got := discoverTNodes(f.sc, []netip.Prefix{pfx("10.4.0.0/16")})
	if len(got) != 1 || got[0].Addr != good {
		t.Fatalf("tNodes = %+v, want only %v", got, good)
	}
}

func TestScannerDefaultPorts(t *testing.T) {
	f := newFixture(t)
	sc := NewScanner(f.net, f.clientA, f.clientB)
	if len(sc.Ports) == 0 {
		t.Fatal("default ports missing")
	}
}

// TestShardedSweepMatchesInline: a sweep whose candidates run on goroutines
// of their own — every scan at once, all sharing the arena pool — returns
// what the same sweep returns run in order on the caller's goroutine.
func TestShardedSweepMatchesInline(t *testing.T) {
	f := newFixture(t)
	var vvpCands []netip.Addr
	for i := 0; i < 16; i++ {
		addr := netip.AddrFrom4([4]byte{10, 3, 1, byte(i)})
		h := netsim.NewHost(addr, 3, ipid.Policy(i%4), int64(100+i))
		h.BackgroundRate = float64(i % 5)
		f.net.AddHost(h)
		vvpCands = append(vvpCands, addr)
	}
	for i := 0; i < 8; i++ {
		behaviour := tcpsim.RTOBehavior(i % 3)
		addTNodeHost(f, byte(100+i), func(c *tcpsim.Config) { c.Behavior = behaviour })
	}
	prefixes := []netip.Prefix{pfx("10.4.0.0/16")}

	vvps := f.sc.DiscoverVVPs(vvpCands)
	listeners, tnodes := scanTNodes(f.sc, prefixes)
	if len(vvps) == 0 || len(tnodes) == 0 || len(tnodes) == len(listeners) {
		t.Fatalf("%d vVPs, %d tNodes of %d listeners: the fixture should qualify some and reject some", len(vvps), len(tnodes), len(listeners))
	}

	f.sc.ForEach = func(n int, fn func(i int)) {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer wg.Done()
				fn(i)
			}()
		}
		wg.Wait()
	}
	if got := f.sc.DiscoverVVPs(vvpCands); !reflect.DeepEqual(got, vvps) {
		t.Errorf("sharded vVP sweep:\n got %+v\nwant %+v", got, vvps)
	}
	gotListeners, gotTNodes := scanTNodes(f.sc, prefixes)
	if !reflect.DeepEqual(gotListeners, listeners) || !reflect.DeepEqual(gotTNodes, tnodes) {
		t.Errorf("sharded tNode sweep:\n got %+v\nwant %+v", gotTNodes, tnodes)
	}
}
