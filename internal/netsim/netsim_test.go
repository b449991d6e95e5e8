package netsim

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// NewSim is the reference constructor: a new Sim reset over net with seed.
// TestSimResetMatchesNewSim compares used storage against it.
func NewSim(net *Network, seed int64) *Sim {
	s := new(Sim)
	s.Reset(net, seed)
	return s
}

// cloneOf is h.CloneInto(seed) on a new host.
func cloneOf(h *Host, seed int64) *Host {
	c := new(Host)
	h.CloneInto(c, seed)
	return c
}

// cloneHostOf is n.CloneHostInto(seed) on a new host.
func cloneHostOf(n *Network, h *Host, seed int64) *Host {
	c := new(Host)
	n.CloneHostInto(c, h, seed)
	return c
}

// overlayOf is n.OverlayInto(hosts...) on a new view.
func overlayOf(n *Network, hosts ...*Host) *Network {
	view := new(Network)
	n.OverlayInto(view, hosts...)
	return view
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// threeASWorld: AS 1 (client) — AS 2 (vVP) — AS 3 (tNode), all connected
// through provider AS 10.
func threeASWorld(t *testing.T) (*Network, *Host, *Host, *Host) {
	t.Helper()
	g := bgp.NewGraph()
	g.Link(10, 1, bgp.Customer)
	g.Link(10, 2, bgp.Customer)
	g.Link(10, 3, bgp.Customer)
	g.AS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	g.AS(2).Originated = []netip.Prefix{pfx("10.2.0.0/16")}
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(g)
	client := NewHost(ip("10.1.0.1"), 1, ipid.Global, 1)
	vvp := NewHost(ip("10.2.0.1"), 2, ipid.Global, 2)
	tnode := NewHost(ip("10.3.0.1"), 3, ipid.Global, 3, 443)
	n.AddHost(client)
	n.AddHost(vvp)
	n.AddHost(tnode)
	return n, client, vvp, tnode
}

func TestSynSynAckRstExchange(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	s := NewSim(n, 7)

	var got []Packet
	client.Handler = func(_ *Sim, pkt Packet) bool {
		got = append(got, pkt)
		return false // fall through: default automaton RSTs the SYN-ACK
	}
	// Client sends a real (unspoofed) SYN to the tNode's open port.
	s.At(0, func() { s.SendFrom(client, client.Addr, tnode.Addr, 40000, 443, tcpsim.SYN) })
	s.Run(30)

	if len(got) != 1 {
		t.Fatalf("client received %d packets, want 1 SYN-ACK", len(got))
	}
	if got[0].Kind != tcpsim.SYNACK || got[0].Src != tnode.Addr {
		t.Fatalf("got %+v", got[0])
	}
	// The client's automatic RST must have cancelled the tNode's RTO: no
	// retransmissions pending.
	if tnode.TCP.PendingCount() != 0 {
		t.Fatal("tNode still has pending retransmission after RST")
	}
}

func TestClosedPortRst(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	s := NewSim(n, 7)
	var got []Packet
	client.Handler = func(_ *Sim, pkt Packet) bool { got = append(got, pkt); return true }
	s.At(0, func() { s.SendFrom(client, client.Addr, tnode.Addr, 40000, 81, tcpsim.SYN) })
	s.Run(5)
	if len(got) != 1 || got[0].Kind != tcpsim.RST {
		t.Fatalf("got %+v, want RST", got)
	}
}

func TestSpoofedSynTriggersSynAckToVictim(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)
	s := NewSim(n, 7)
	var vvpGot []Packet
	vvp.Handler = func(_ *Sim, pkt Packet) bool { vvpGot = append(vvpGot, pkt); return false }
	// Client spoofs the vVP's address toward the tNode.
	s.At(0, func() { s.SendFrom(client, vvp.Addr, tnode.Addr, 55555, 443, tcpsim.SYN) })
	s.Run(30)
	if len(vvpGot) == 0 || vvpGot[0].Kind != tcpsim.SYNACK || vvpGot[0].Src != tnode.Addr {
		t.Fatalf("vVP got %+v, want SYN-ACK from tNode", vvpGot)
	}
	// vVP's automatic RST reaches the tNode and cancels the RTO.
	if tnode.TCP.PendingCount() != 0 {
		t.Fatal("RST should have cancelled tNode retransmission")
	}
}

func TestRTORetransmissionWhenRSTBlocked(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)
	// Outbound filtering: the vVP's AS cannot reach the tNode's prefix
	// (e.g. its route was ROV-filtered). Model by dropping at egress.
	n.EgressFilter[2] = func(pkt Packet) bool { return pkt.Dst == tnode.Addr }

	s := NewSim(n, 7)
	var vvpGot []Packet
	vvp.Handler = func(_ *Sim, pkt Packet) bool { vvpGot = append(vvpGot, pkt); return false }
	s.At(0, func() { s.SendFrom(client, vvp.Addr, tnode.Addr, 55555, 443, tcpsim.SYN) })
	s.Run(30)

	// The tNode retransmits (MaxRetries=2): the vVP sees the original
	// SYN-ACK plus two retransmissions.
	if len(vvpGot) != 3 {
		t.Fatalf("vVP saw %d SYN-ACKs, want 3 (1 + 2 RTO retransmissions)", len(vvpGot))
	}
}

func TestIngressFilterBlocksSynAck(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)
	// Inbound filtering at the vVP's AS.
	n.IngressFilter[2] = func(pkt Packet) bool { return pkt.Src == tnode.Addr }
	s := NewSim(n, 7)
	count := 0
	vvp.Handler = func(_ *Sim, pkt Packet) bool { count++; return true }
	s.At(0, func() { s.SendFrom(client, vvp.Addr, tnode.Addr, 55555, 443, tcpsim.SYN) })
	s.Run(30)
	if count != 0 {
		t.Fatalf("vVP saw %d packets despite ingress filter", count)
	}
}

func TestIPIDGlobalCounterObservable(t *testing.T) {
	n, client, vvp, _ := threeASWorld(t)
	s := NewSim(n, 7)
	var ids []uint16
	client.Handler = func(_ *Sim, pkt Packet) bool {
		if pkt.Kind == tcpsim.RST && pkt.Src == vvp.Addr {
			ids = append(ids, pkt.IPID)
		}
		return true
	}
	// Probe the vVP with SYN-ACKs; each RST reply exposes the counter.
	for i := 0; i < 5; i++ {
		tt := float64(i) * 0.5
		s.At(tt, func() { s.SendFrom(client, client.Addr, vvp.Addr, uint16(41000+i), 443, tcpsim.SYNACK) })
	}
	s.Run(10)
	if len(ids) != 5 {
		t.Fatalf("got %d RSTs, want 5", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i]-ids[i-1] != 1 {
			t.Fatalf("idle host counter step = %d, want 1 (ids=%v)", ids[i]-ids[i-1], ids)
		}
	}
}

func TestIPIDBackgroundTraffic(t *testing.T) {
	n, client, vvp, _ := threeASWorld(t)
	vvp.BackgroundRate = 100 // pkt/s
	s := NewSim(n, 7)
	var ids []uint16
	var times []float64
	client.Handler = func(sim *Sim, pkt Packet) bool {
		if pkt.Kind == tcpsim.RST {
			ids = append(ids, pkt.IPID)
			times = append(times, sim.Now())
		}
		return true
	}
	for i := 0; i < 11; i++ {
		tt := float64(i) * 1.0
		s.At(tt, func() { s.SendFrom(client, client.Addr, vvp.Addr, uint16(42000+i), 443, tcpsim.SYNACK) })
	}
	s.Run(20)
	if len(ids) != 11 {
		t.Fatalf("got %d RSTs", len(ids))
	}
	// Mean growth per second should be ~100 (+1 for the RST itself).
	total := float64(ids[len(ids)-1] - ids[0])
	perSec := total / (times[len(times)-1] - times[0])
	if perSec < 60 || perSec > 140 {
		t.Fatalf("background growth %.1f pkt/s, want ~100", perSec)
	}
}

func TestTimeVaryingBackground(t *testing.T) {
	n, client, vvp, _ := threeASWorld(t)
	vvp.BackgroundFn = func(t float64) float64 { return 10 * t } // ramp
	s := NewSim(n, 7)
	var ids []uint16
	client.Handler = func(_ *Sim, pkt Packet) bool {
		if pkt.Kind == tcpsim.RST {
			ids = append(ids, pkt.IPID)
		}
		return true
	}
	for i := 0; i < 10; i++ {
		tt := float64(i)
		s.At(tt, func() { s.SendFrom(client, client.Addr, vvp.Addr, uint16(43000+i), 443, tcpsim.SYNACK) })
	}
	s.Run(20)
	// Increments should grow over time (ramping rate).
	first := ids[1] - ids[0]
	last := ids[len(ids)-1] - ids[len(ids)-2]
	if last <= first {
		t.Fatalf("ramping background not reflected: first=%d last=%d", first, last)
	}
}

func TestPacketLoss(t *testing.T) {
	n, client, vvp, _ := threeASWorld(t)
	n.LossRate = 1.0 // drop everything
	s := NewSim(n, 7)
	count := 0
	vvp.Handler = func(_ *Sim, pkt Packet) bool { count++; return true }
	s.At(0, func() { s.SendFrom(client, client.Addr, vvp.Addr, 40000, 443, tcpsim.SYNACK) })
	s.Run(5)
	if count != 0 {
		t.Fatal("fully lossy network delivered a packet")
	}
}

func TestTraceHook(t *testing.T) {
	n, client, vvp, _ := threeASWorld(t)
	s := NewSim(n, 7)
	var evs []TraceEvent
	s.Trace = func(ev TraceEvent) { evs = append(evs, ev) }
	s.At(0, func() { s.SendFrom(client, client.Addr, vvp.Addr, 40000, 443, tcpsim.SYNACK) })
	s.Run(5)
	// Two transmissions: probe out, RST back.
	if len(evs) != 2 {
		t.Fatalf("trace captured %d events, want 2", len(evs))
	}
	if evs[0].Dropped != DropNone || evs[1].Dropped != DropNone {
		t.Fatalf("unexpected drops: %+v", evs)
	}
}

func TestUnroutableDestination(t *testing.T) {
	n, client, _, _ := threeASWorld(t)
	s := NewSim(n, 7)
	var evs []TraceEvent
	s.Trace = func(ev TraceEvent) { evs = append(evs, ev) }
	s.At(0, func() { s.SendFrom(client, client.Addr, ip("99.9.9.9"), 1, 2, tcpsim.SYN) })
	s.Run(5)
	if len(evs) != 1 || evs[0].Dropped != DropNoRoute {
		t.Fatalf("evs = %+v", evs)
	}
}

func TestHijackedTrafficDropsAtWrongAS(t *testing.T) {
	// Host lives in AS 3 but AS 4 hijacks the covering prefix with a more
	// specific announcement: packets end up at AS 4 and never reach the
	// host (DropWrongAS).
	g := bgp.NewGraph()
	g.Link(10, 1, bgp.Customer)
	g.Link(10, 3, bgp.Customer)
	g.Link(10, 4, bgp.Customer)
	g.AS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	g.AS(4).Originated = []netip.Prefix{pfx("10.3.0.0/24")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(g)
	client := NewHost(ip("10.1.0.1"), 1, ipid.Global, 1)
	victim := NewHost(ip("10.3.0.9"), 3, ipid.Global, 2, 443)
	n.AddHost(client)
	n.AddHost(victim)
	s := NewSim(n, 7)
	var evs []TraceEvent
	s.Trace = func(ev TraceEvent) { evs = append(evs, ev) }
	s.At(0, func() { s.SendFrom(client, client.Addr, victim.Addr, 4000, 443, tcpsim.SYN) })
	s.Run(5)
	if len(evs) != 1 || evs[0].Dropped != DropWrongAS {
		t.Fatalf("evs = %+v, want DropWrongAS", evs)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	n, client, _, _ := threeASWorld(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddHost(client)
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []uint16 {
		n, client, vvp, _ := threeASWorld(t)
		vvp.BackgroundRate = 50
		s := NewSim(n, 99)
		var ids []uint16
		client.Handler = func(_ *Sim, pkt Packet) bool { ids = append(ids, pkt.IPID); return true }
		for i := 0; i < 8; i++ {
			tt := float64(i) * 0.5
			s.At(tt, func() { s.SendFrom(client, client.Addr, vvp.Addr, uint16(5000+i), 443, tcpsim.SYNACK) })
		}
		s.Run(10)
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic run length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic IDs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunReturnsEventCountAndAdvancesClock(t *testing.T) {
	n, _, _, _ := threeASWorld(t)
	s := NewSim(n, 1)
	fired := 0
	s.At(1, func() { fired++ })
	s.At(2, func() { fired++ })
	s.At(50, func() { fired++ })
	processed := s.Run(10)
	if processed != 2 || fired != 2 {
		t.Fatalf("processed=%d fired=%d", processed, fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
	// The future event still fires later.
	s.Run(100)
	if fired != 3 {
		t.Fatalf("fired=%d, want 3", fired)
	}
}

func TestHostASNValidation(t *testing.T) {
	n, client, _, _ := threeASWorld(t)
	s := NewSim(n, 1)
	var evs []TraceEvent
	s.Trace = func(ev TraceEvent) { evs = append(evs, ev) }
	ghost := NewHost(ip("10.99.0.1"), inet.ASN(999), ipid.Global, 5)
	s.At(0, func() { s.SendFrom(ghost, ghost.Addr, client.Addr, 1, 2, tcpsim.SYN) })
	s.Run(1)
	if len(evs) != 1 || evs[0].Dropped != DropSrcGone {
		t.Fatalf("evs = %+v, want DropSrcGone", evs)
	}
}

func TestJitterReordersTightBursts(t *testing.T) {
	// With jitter larger than the send spacing, arrival order scrambles —
	// this is why §4.2 paces direct probes one second apart.
	n, client, vvp, _ := threeASWorld(t)
	n.Jitter = 0.2
	s := NewSim(n, 5)
	var order []uint16
	vvp.Handler = func(_ *Sim, pkt Packet) bool { order = append(order, pkt.SrcPort); return true }
	for i := 0; i < 20; i++ {
		tt := float64(i) * 0.001 // 1 ms spacing, far below the jitter
		sp := uint16(50000 + i)
		s.At(tt, func() { s.SendFrom(client, client.Addr, vvp.Addr, sp, 443, tcpsim.SYNACK) })
	}
	s.Run(5)
	if len(order) != 20 {
		t.Fatalf("delivered %d", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no reordering despite jitter >> spacing")
	}
}

func TestWideSpacingSurvivesJitter(t *testing.T) {
	// One-second spacing keeps ordering intact under the same jitter.
	n, client, vvp, _ := threeASWorld(t)
	n.Jitter = 0.2
	s := NewSim(n, 5)
	var order []uint16
	vvp.Handler = func(_ *Sim, pkt Packet) bool { order = append(order, pkt.SrcPort); return true }
	for i := 0; i < 10; i++ {
		tt := float64(i)
		sp := uint16(51000 + i)
		s.At(tt, func() { s.SendFrom(client, client.Addr, vvp.Addr, sp, 443, tcpsim.SYNACK) })
	}
	s.Run(15)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("reordering at 1 s spacing: %v", order)
		}
	}
}

func TestGenerationTracksHostPopulation(t *testing.T) {
	n, _, _, _ := threeASWorld(t)
	g0 := n.Generation()
	n.AddHost(NewHost(ip("10.2.0.9"), 2, ipid.Global, 9))
	if n.Generation() <= g0 {
		t.Fatalf("generation did not advance: %d -> %d", g0, n.Generation())
	}
}

func TestCloneIsolatesHostState(t *testing.T) {
	n, _, vvp, _ := threeASWorld(t)
	vvp.BackgroundRate = 3
	clone := cloneOf(vvp, 99)
	if clone.Addr != vvp.Addr || clone.ASN != vvp.ASN || clone.BackgroundRate != vvp.BackgroundRate {
		t.Fatal("clone lost identity fields")
	}
	if clone.IPID.Policy() != vvp.IPID.Policy() {
		t.Fatal("clone lost IP-ID policy")
	}
	// Evolving the clone must not move the original.
	before := vvp.IPID.Peek()
	s := NewSim(overlayOf(n, clone), 1)
	for i := 0; i < 5; i++ {
		s.SendFrom(clone, clone.Addr, ip("10.3.0.1"), uint16(40000+i), 443, tcpsim.SYN)
	}
	s.Run(10)
	if vvp.IPID.Peek() != before {
		t.Fatal("evolving a clone advanced the original's counter")
	}
	if clone.TCP == vvp.TCP || clone.IPID == vvp.IPID {
		t.Fatal("clone shares mutable state with the original")
	}
}

func TestCloneDeterministicBySeed(t *testing.T) {
	_, _, vvp, _ := threeASWorld(t)
	vvp.BackgroundRate = 5
	a, b := cloneOf(vvp, 7), cloneOf(vvp, 7)
	a.advanceBackground(10, &faults.Profile{})
	b.advanceBackground(10, &faults.Profile{})
	if a.IPID.Peek() != b.IPID.Peek() {
		t.Fatal("same-seed clones diverged")
	}
	c := cloneOf(vvp, 8)
	c.advanceBackground(10, &faults.Profile{})
	// Different seeds draw different background (may rarely coincide, but the
	// initial counter offsets already differ with overwhelming probability).
	if a.IPID.Peek() == c.IPID.Peek() {
		t.Log("warning: different-seed clones coincided (possible but unlikely)")
	}
}

func TestOverlayShadowsWithoutMutatingBase(t *testing.T) {
	n, _, vvp, tnode := threeASWorld(t)
	cv := cloneOf(vvp, 1)
	view := overlayOf(n, cv)
	if h, _ := view.HostAt(vvp.Addr); h != cv {
		t.Fatal("overlay lookup did not return the clone")
	}
	if h, _ := view.HostAt(tnode.Addr); h != tnode {
		t.Fatal("non-overlaid lookup changed")
	}
	if h, _ := n.HostAt(vvp.Addr); h != vvp {
		t.Fatal("base network sees the overlay")
	}
	// Delivery through the overlay reaches the clone, not the base host.
	got := 0
	cv.Handler = func(*Sim, Packet) bool { got++; return true }
	vvp.Handler = func(*Sim, Packet) bool { t.Fatal("base host received overlay traffic"); return true }
	s := NewSim(view, 2)
	client, _ := view.HostAt(ip("10.1.0.1"))
	s.SendFrom(client, client.Addr, vvp.Addr, 40000, 443, tcpsim.SYN)
	s.Run(5)
	if got == 0 {
		t.Fatal("overlay clone never received the packet")
	}
}

// TestPathCacheEquivalence: the forwarding-path cache is a pure memo — for
// every (src, dst) pair, Trace with the cache enabled must return exactly
// what it returns with the cache disabled, and a routing change followed by
// a re-convergence (which bumps the graph's routing version) must flow
// through the cached network just as it does through the uncached one.
func TestPathCacheEquivalence(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)

	type traceOut struct {
		path   []inet.ASN
		dst    *Host
		reason DropReason
	}
	traceAll := func() []traceOut {
		var out []traceOut
		for _, src := range []inet.ASN{1, 2, 3, 10} {
			for _, dst := range []netip.Addr{client.Addr, vvp.Addr, tnode.Addr, ip("10.9.0.1")} {
				p, h, r := n.Trace(src, Packet{Src: client.Addr, Dst: dst})
				out = append(out, traceOut{append([]inet.ASN(nil), p...), h, r})
			}
		}
		return out
	}

	cached := traceAll() // warm + read through the cache
	n.DisablePathCache = true
	uncached := traceAll()
	n.DisablePathCache = false
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatalf("cached traces differ from uncached:\n%+v\nvs\n%+v", cached, uncached)
	}
	// Second cached pass: entries are now all hits and must still agree.
	if again := traceAll(); !reflect.DeepEqual(again, uncached) {
		t.Fatalf("cache-hit traces differ from uncached:\n%+v\nvs\n%+v", again, uncached)
	}

	// Routing change: the tNode's AS withdraws its prefix. ConvergePrefixes
	// bumps the routing version, so the cache must drop its entries without
	// any explicit invalidation call.
	n.Graph.AS(3).Originated = nil
	if _, err := n.Graph.ConvergePrefixes([]netip.Prefix{pfx("10.3.0.0/16")}); err != nil {
		t.Fatal(err)
	}
	cached = traceAll()
	n.DisablePathCache = true
	uncached = traceAll()
	n.DisablePathCache = false
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatalf("post-reconvergence cached traces differ from uncached:\n%+v\nvs\n%+v", cached, uncached)
	}
	if _, _, r := n.Trace(1, Packet{Src: client.Addr, Dst: tnode.Addr}); r != DropNoRoute {
		t.Fatalf("withdrawn prefix still routed through cache: reason=%v", r)
	}
}

// TestPathCacheSharedPrefixEntry: the cache keys on (src, interned covering
// prefix), so two destinations inside the same routed prefix share one
// entry. Nesting guarantees every per-hop decision is identical for both —
// this test pins that sharing never changes a trace, including for a
// more-specific carve-out where the two addresses fall under DIFFERENT
// most-specific prefixes and must NOT share.
func TestPathCacheSharedPrefixEntry(t *testing.T) {
	n, client, _, _ := threeASWorld(t)
	// AS 2 carves a more-specific out of AS 3's /16.
	n.Graph.AS(2).Originated = append(n.Graph.AS(2).Originated, pfx("10.3.128.0/17"))
	if _, err := n.Graph.Converge(); err != nil {
		t.Fatal(err)
	}
	dsts := []netip.Addr{
		ip("10.3.0.1"), ip("10.3.0.99"), // same /16, share an entry
		ip("10.3.128.1"), // inside the /17: different entry
		ip("10.3.200.5"), // also /17
	}
	type out struct {
		path []inet.ASN
		ok   bool
	}
	all := func() []out {
		var res []out
		for _, src := range []inet.ASN{1, 2, 3, 10} {
			for _, d := range dsts {
				p, _, r := n.Trace(src, Packet{Src: client.Addr, Dst: d})
				res = append(res, out{append([]inet.ASN(nil), p...), r == DropNone})
			}
		}
		return res
	}
	cached := all()
	second := all() // all hits now
	n.DisablePathCache = true
	uncached := all()
	n.DisablePathCache = false
	if !reflect.DeepEqual(cached, uncached) || !reflect.DeepEqual(second, uncached) {
		t.Fatalf("prefix-keyed cache changed traces:\ncached   %+v\nhits     %+v\nuncached %+v",
			cached, second, uncached)
	}
	// The /17 addresses must terminate at AS 2, the /16 ones at AS 3 — if an
	// entry were shared across the carve-out boundary this would fail.
	if p, _, _ := n.Trace(1, Packet{Src: client.Addr, Dst: ip("10.3.128.1")}); p[len(p)-1] != 2 {
		t.Fatalf("more-specific destination routed to %v, want AS 2", p[len(p)-1])
	}
	if p, _, _ := n.Trace(1, Packet{Src: client.Addr, Dst: ip("10.3.0.1")}); p[len(p)-1] != 3 {
		t.Fatalf("covering-prefix destination routed to %v, want AS 3", p[len(p)-1])
	}
}

// TestPathCacheUninternedScopeBypass: prefix-ID keying is only sound when
// every prefix the data plane consults is interned. Setting a DefaultScope by
// direct field edit plus BumpVersion (no re-convergence interns nothing)
// must flip the cache into bypass mode — correct, uncached answers — and the
// next full Converge interns the scope and restores caching, still with
// answers identical to the uncached network.
func TestPathCacheUninternedScopeBypass(t *testing.T) {
	n, client, _, _ := threeASWorld(t)

	probe := []netip.Addr{ip("10.3.0.1"), ip("10.9.0.1"), ip("10.2.0.1")}
	all := func() [][]inet.ASN {
		var res [][]inet.ASN
		for _, d := range probe {
			p, _, _ := n.Trace(1, Packet{Src: client.Addr, Dst: d})
			res = append(res, append([]inet.ASN(nil), p...))
		}
		return res
	}
	all() // warm the cache at the current version

	// Un-interned scope: 10.9.0.0/16 was never originated or converged.
	a := n.Graph.AS(1)
	a.DefaultRoute, a.HasDefault = 10, true
	a.DefaultScope = pfx("10.9.0.0/16")
	n.Graph.BumpVersion()

	cached := all()
	if n.paths.keyable {
		t.Fatal("cache stayed keyable with an un-interned DefaultScope in play")
	}
	n.DisablePathCache = true
	uncached := all()
	n.DisablePathCache = false
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatalf("bypassed cache differs from uncached:\n%+v\nvs\n%+v", cached, uncached)
	}
	// The scoped destination must now take the default hop toward AS 10.
	if p, _, _ := n.Trace(1, Packet{Src: client.Addr, Dst: ip("10.9.0.1")}); len(p) < 2 || p[1] != 10 {
		t.Fatalf("scoped destination did not take the default route: %v", p)
	}

	// Converge interns the scope; keying becomes safe again.
	if _, err := n.Graph.Converge(); err != nil {
		t.Fatal(err)
	}
	cached = all()
	if !n.paths.keyable {
		t.Fatal("cache did not recover keyability after Converge interned the scope")
	}
	n.DisablePathCache = true
	uncached = all()
	n.DisablePathCache = false
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatalf("post-converge cached traces differ from uncached:\n%+v\nvs\n%+v", cached, uncached)
	}
}

// TestRouteIDsExactAndNeverReused pins RouteID's contract: two (source,
// destination) flows get the same id exactly when Graph.DataPath answers
// them with the same AS path and delivered flag; an id, once given to a
// route, names no other route afterwards — not across a routing change, not
// across InvalidatePathCache racing concurrent readers — and a route that
// comes back gets its old id back; 0 (the cache disabled, a source AS the
// graph lacks) is the only answer no route receives.
func TestRouteIDsExactAndNeverReused(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)
	srcs := []inet.ASN{1, 2, 3, 10, 99}
	dsts := []netip.Addr{client.Addr, vvp.Addr, tnode.Addr, ip("10.3.0.99"), ip("10.9.0.1")}
	content := map[uint32]string{} // id → the route it names
	ids := map[string]uint32{}     // route → its id
	check := func() map[[2]int]uint32 {
		t.Helper()
		got := map[[2]int]uint32{}
		for i, src := range srcs {
			for j, dst := range dsts {
				id := n.RouteID(src, dst)
				got[[2]int{i, j}] = id
				if n.Graph.AS(src) == nil {
					if id != 0 {
						t.Fatalf("RouteID from the missing AS %v = %d, want 0", src, id)
					}
					continue
				}
				path, delivered := n.Graph.DataPath(src, dst)
				route := fmt.Sprint(path, delivered)
				if id == 0 {
					t.Fatalf("RouteID(%v, %v) = 0 for the route %s", src, dst, route)
				}
				if c, ok := content[id]; ok && c != route {
					t.Fatalf("id %d names %s and %s", id, c, route)
				}
				if old, ok := ids[route]; ok && old != id {
					t.Fatalf("route %s has ids %d and %d", route, old, id)
				}
				content[id], ids[route] = route, id
			}
		}
		return got
	}
	before := check()
	if before[[2]int{0, 2}] != before[[2]int{0, 3}] {
		t.Fatal("two addresses of one prefix, one route, got two ids")
	}

	// Readers race invalidations: every id they see is the one the route
	// already had.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.InvalidatePathCache()
			}
		}
	}()
	errs := make(chan string, 4)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 200; k++ {
				for i, src := range srcs {
					for j, dst := range dsts {
						if id := n.RouteID(src, dst); id != before[[2]int{i, j}] {
							errs <- fmt.Sprintf("RouteID(%v, %v) = %d beside invalidations, %d before", src, dst, id, before[[2]int{i, j}])
							return
						}
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// The tNode's AS withdraws its prefix: routes toward it change and take
	// fresh ids; re-originated, they are the old routes with the old ids.
	n.Graph.AS(3).Originated = nil
	if _, err := n.Graph.ConvergePrefixes([]netip.Prefix{pfx("10.3.0.0/16")}); err != nil {
		t.Fatal(err)
	}
	withdrawn := check()
	if withdrawn[[2]int{0, 2}] == before[[2]int{0, 2}] {
		t.Fatal("the withdrawn route kept its id")
	}
	n.Graph.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	if _, err := n.Graph.ConvergePrefixes([]netip.Prefix{pfx("10.3.0.0/16")}); err != nil {
		t.Fatal(err)
	}
	if back := check(); !reflect.DeepEqual(back, before) {
		t.Fatalf("routes that came back have ids %v, had %v", back, before)
	}

	n.DisablePathCache = true
	if id := n.RouteID(1, vvp.Addr); id != 0 {
		t.Fatalf("RouteID with the path cache disabled = %d, want 0", id)
	}
}
