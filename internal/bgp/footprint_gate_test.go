package bgp_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/topology"
)

// TestFootprintGate holds the routing table to what it weighs on the default
// 1,218-AS topology: 26 dense bytes per (AS, prefix); a flood's spill
// segments filled to within 15 % and runs to within 15 % of the routes they
// hold, and the whole pool released when the flood ends; the flood's buffers
// returned after the cold convergence — and an incremental batch's small
// buffers and regrown runs kept for the next one.
func TestFootprintGate(t *testing.T) {
	if testing.Short() {
		t.Skip("converges the default topology")
	}
	topo := topology.Generate(topology.DefaultConfig(7))
	g := topo.Graph
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	f := g.Footprint()
	cells := uint64(len(g.ASes) * g.Prefixes().Len())
	t.Logf("%d ASes x %d prefixes: %+v", len(g.ASes), g.Prefixes().Len(), f)
	if perCell := float64(f.DenseBytes) / float64(cells); perCell > 26 {
		t.Errorf("dense tables take %.1f bytes per (AS, prefix), want <= 26", perCell)
	}
	if f.SpillFloodLiveBytes == 0 || f.SpillFloodLiveBytes > f.SpillFloodLenBytes || f.SpillFloodLenBytes > f.SpillFloodCapBytes {
		t.Errorf("flood spill live/len/cap out of order: %d/%d/%d", f.SpillFloodLiveBytes, f.SpillFloodLenBytes, f.SpillFloodCapBytes)
	}
	if slack := float64(f.SpillFloodCapBytes) / float64(f.SpillFloodLenBytes); slack > 1.15 {
		t.Errorf("flood spill cap/len = %.3f, want <= 1.15", slack)
	}
	if slack := float64(f.SpillFloodLenBytes) / float64(f.SpillFloodLiveBytes); slack > 1.15 {
		t.Errorf("flood spill len/live = %.3f, want <= 1.15", slack)
	}
	if f.SpillLiveBytes != 0 || f.SpillLenBytes != 0 || f.SpillCapBytes != 0 {
		t.Errorf("spill live/len/cap %d/%d/%d retained after a full convergence, want 0",
			f.SpillLiveBytes, f.SpillLenBytes, f.SpillCapBytes)
	}
	// A repeated full flood carves the same pool into the one segment per AS
	// the release reserved for it, and releases it again; the dense tables
	// stay where they are.
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	if re := g.Footprint(); re.DenseBytes != f.DenseBytes || re.SpillFloodLiveBytes != f.SpillFloodLiveBytes ||
		re.SpillFloodLenBytes != f.SpillFloodLenBytes || re.SpillFloodCapBytes != re.SpillFloodLenBytes ||
		re.SpillLiveBytes != 0 || re.SpillLenBytes != 0 || re.SpillCapBytes != 0 {
		t.Errorf("a repeated convergence left %+v, the cold one %+v (want flood cap = len, nothing retained)", re, f)
	}
	// A header is 32 bytes and every path holds at least its sender.
	if f.Announcements == 0 || f.AnnouncementBytes < 36*f.Announcements {
		t.Errorf("%d announcements counted in %d bytes after a convergence", f.Announcements, f.AnnouncementBytes)
	}
	if f.FloodBytes != 0 {
		t.Errorf("%d bytes of flood buffers retained after a full convergence", f.FloodBytes)
	}

	var evs []bgp.RouteEvent
	for _, asn := range topo.ByRank() {
		if a := g.AS(asn); len(a.Originated) > 0 && len(evs) < 10 {
			evs = append(evs, bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: asn, Prefix: a.Originated[0]})
		}
	}
	flap := func(kind bgp.EventKind) bgp.Footprint {
		t.Helper()
		for i := range evs {
			evs[i].Kind = kind
		}
		if _, err := g.ApplyEvents(evs); err != nil {
			t.Fatal(err)
		}
		return g.Footprint()
	}
	if down := flap(bgp.EvWithdraw); down.Announcements >= f.Announcements {
		t.Errorf("withdrawing 10 prefixes left %d announcements of %d", down.Announcements, f.Announcements)
	}
	kept := flap(bgp.EvAnnounce)
	if kept.FloodBytes == 0 || kept.FloodBytes > 1<<20 {
		t.Errorf("a 10-event batch left %d bytes of flood buffers, want some and under 1 MiB", kept.FloodBytes)
	}
	if kept.Announcements != f.Announcements || kept.AnnouncementBytes != f.AnnouncementBytes {
		t.Errorf("re-announcing the prefixes minted %d announcements in %d bytes, the cold flood %d in %d",
			kept.Announcements, kept.AnnouncementBytes, f.Announcements, f.AnnouncementBytes)
	}
	if kept.DenseBytes != f.DenseBytes {
		t.Errorf("a flap resized the tables: %+v -> %+v", f, kept)
	}
	// The released pool regrows only the re-flooded cells' runs.
	if kept.SpillCapBytes == 0 || kept.SpillCapBytes > 1<<20 {
		t.Errorf("a 10-event batch regrew %d bytes of spill pool, want some and under 1 MiB", kept.SpillCapBytes)
	}
	// Kept means reused: capacities only grow (how the changed lists split
	// between workers is scheduling), and a like batch grows them little;
	// the same cells fill the same runs in place.
	flap(bgp.EvWithdraw)
	again := flap(bgp.EvAnnounce)
	if again.FloodBytes < kept.FloodBytes || again.FloodBytes > 2*kept.FloodBytes {
		t.Errorf("the same batch again left %d bytes of flood buffers, the first %d", again.FloodBytes, kept.FloodBytes)
	}
	if again.SpillLiveBytes != kept.SpillLiveBytes || again.SpillLenBytes != kept.SpillLenBytes || again.SpillCapBytes != kept.SpillCapBytes {
		t.Errorf("the same batch again moved the spill pool: %+v -> %+v", kept, again)
	}
}

// TestLeakWhatIfLeavesTheBase: a what-if that leaks at a transit AS is a
// full flood on the overlay, which releases the overlay's Adj-RIB-Ins. The
// base — converged, then regrown by an incremental batch, so it holds both
// released cells and live spill runs — must keep its footprint, its
// Loc-RIBs (down to the announcement storage their paths alias) and the
// route ids a network over it names its forwarding paths by.
func TestLeakWhatIfLeavesTheBase(t *testing.T) {
	topo := topology.Generate(topology.Config{
		Seed: 3, NumTier1: 4, NumTier2: 12, NumTier3: 40, NumStub: 120,
		PrefixesPerAS: 1.5, Tier2PeerProb: 0.3, Tier3PeerProb: 0.05, MultihomeProb: 0.45,
	})
	g := topo.Graph
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	var dsts []netip.Addr
	var regrow []bgp.RouteEvent
	for _, asn := range topo.ASNs {
		for _, p := range g.AS(asn).Originated {
			dsts = append(dsts, inet.NthAddr(p, 1))
			if len(regrow) < 6 {
				regrow = append(regrow, bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: topo.ASNs[len(regrow)], Prefix: p})
			}
		}
	}
	if _, err := g.ApplyEvents(regrow); err != nil {
		t.Fatal(err)
	}
	type view struct {
		f    bgp.Footprint
		ribs map[inet.ASN][]bgp.Route
		ids  []uint32
	}
	net := netsim.NewNetwork(g)
	look := func() view {
		v := view{f: g.Footprint(), ribs: map[inet.ASN][]bgp.Route{}}
		for _, asn := range topo.ASNs {
			v.ribs[asn] = g.AS(asn).Routes()
			for _, d := range dsts {
				v.ids = append(v.ids, net.RouteID(asn, d))
			}
		}
		return v
	}
	before := look()
	if before.f.SpillLiveBytes == 0 {
		t.Fatal("the regrowing batch left the base no spill routes; the case needs some")
	}

	ov := bgp.NewOverlay(g)
	leaker := topo.ByRank()[len(topo.Tier1)]
	res, err := ov.ApplyEvents([]bgp.RouteEvent{{Kind: bgp.EvLeakChange, AS: leaker, Leak: true}})
	if err != nil {
		t.Fatal(err)
	}
	og := ov.Graph()
	if res.DirtyPrefixes != og.Prefixes().Len() {
		t.Fatalf("the leak re-flooded %d of %d prefixes, want a full flood", res.DirtyPrefixes, og.Prefixes().Len())
	}
	if of := og.Footprint(); of.SpillLiveBytes != 0 || of.SpillCapBytes != 0 || of.SpillFloodLiveBytes == 0 {
		t.Fatalf("the overlay's full flood did not release its pool: %+v", of)
	}
	moved := false
	for _, asn := range topo.ASNs {
		moved = moved || !reflect.DeepEqual(og.AS(asn).Routes(), before.ribs[asn])
	}
	if !moved {
		t.Fatal("the leak moved no route; the what-if tests nothing")
	}

	after := look()
	if after.f != before.f {
		t.Errorf("base footprint moved: %+v -> %+v", before.f, after.f)
	}
	if !slices.Equal(after.ids, before.ids) {
		t.Error("base route ids moved")
	}
	for _, asn := range topo.ASNs {
		b, a := before.ribs[asn], after.ribs[asn]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("AS %v: base Loc-RIB moved", asn)
		}
		for i := range a {
			if len(a[i].Path) > 0 && &a[i].Path[0] != &b[i].Path[0] {
				t.Fatalf("AS %v: base route %v re-points at other announcement storage", asn, a[i].Prefix)
			}
		}
	}
}

// floodView is what a flood must leave the same at any worker count: the
// footprint, every Loc-RIB and the route ids of a network over the graph,
// toward one address of every origination from every AS.
type floodView struct {
	f    bgp.Footprint
	ribs map[inet.ASN][]bgp.Route
	ids  []uint32
}

func lookAtFlood(g *bgp.Graph, asns []inet.ASN) floodView {
	v := floodView{f: g.Footprint(), ribs: map[inet.ASN][]bgp.Route{}}
	net := netsim.NewNetwork(g)
	for _, asn := range asns {
		v.ribs[asn] = g.AS(asn).Routes()
	}
	for _, asn := range asns {
		for _, dst := range asns {
			for _, p := range g.AS(dst).Originated {
				v.ids = append(v.ids, net.RouteID(asn, inet.NthAddr(p, 1)))
			}
		}
	}
	return v
}

func diffFloods(t *testing.T, label string, got, want floodView) {
	t.Helper()
	if got.f != want.f {
		t.Errorf("%s: footprint %+v, at procs=1 %+v", label, got.f, want.f)
	}
	if !reflect.DeepEqual(got.ribs, want.ribs) {
		t.Errorf("%s: Loc-RIBs differ from procs=1", label)
	}
	if !slices.Equal(got.ids, want.ids) {
		t.Errorf("%s: route ids differ from procs=1", label)
	}
}

// floodTopology is the 176-AS hierarchy the worker-count tests flood. A
// full flood of it takes seven rounds of about 1,000, 5,700, 15,700,
// 24,300, 19,700, 8,700 and 2,600 updates.
func floodTopology() *topology.Topology {
	return topology.Generate(topology.Config{
		Seed: 9, NumTier1: 4, NumTier2: 12, NumTier3: 40, NumStub: 120,
		PrefixesPerAS: 1.5, Tier2PeerProb: 0.3, Tier3PeerProb: 0.05, MultihomeProb: 0.45,
	})
}

// TestFloodsAtAnyWorkerCount: a flood's import claims and emission blocks
// follow the worker count; what it leaves must not. A cold Converge, a link
// change and a leak what-if's full flood on an overlay, each run at 1, 2, 4
// and 8 procs, leave identical Loc-RIBs, footprints (spill and announcement
// figures) and route ids of a network over the graph. The fork crossover is
// lowered to 16 updates per extra worker, so nearly every round forks
// whenever there is more than one proc, and the test requires that some did.
func TestFloodsAtAnyWorkerCount(t *testing.T) {
	bgp.LowerForkGrain(t, 16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []floodView
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		topo := floodTopology()
		g := topo.Graph
		ranked := topo.ByRank()
		var got []floodView
		if _, err := g.Converge(); err != nil {
			t.Fatal(err)
		}
		got = append(got, lookAtFlood(g, topo.ASNs))
		link := bgp.RouteEvent{Kind: bgp.EvLinkChange, AS: ranked[0], Peer: ranked[len(ranked)-1], Rel: bgp.Customer}
		if _, err := g.ApplyEvents([]bgp.RouteEvent{link}); err != nil {
			t.Fatal(err)
		}
		got = append(got, lookAtFlood(g, topo.ASNs))
		ov := bgp.NewOverlay(g)
		leak := bgp.RouteEvent{Kind: bgp.EvLeakChange, AS: ranked[len(topo.Tier1)], Leak: true}
		if _, err := ov.ApplyEvents([]bgp.RouteEvent{leak}); err != nil {
			t.Fatal(err)
		}
		got = append(got, lookAtFlood(ov.Graph(), topo.ASNs))
		for name, st := range map[string]*bgp.ConvergeStats{"graph": g.Stats(), "overlay": ov.Graph().Stats()} {
			if n := st.ForkedRounds.Load(); (procs > 1) != (n > 0) {
				t.Fatalf("procs=%d: the %s forked %d rounds", procs, name, n)
			}
		}
		if want == nil {
			want = got
			if reflect.DeepEqual(want[1].ribs, want[2].ribs) {
				t.Fatal("the leak moved no route; the what-if tests nothing")
			}
			continue
		}
		for i, name := range []string{"Converge", "link change", "leak what-if"} {
			diffFloods(t, fmt.Sprintf("procs=%d %s", procs, name), got[i], want[i])
		}
	}
}

// TestFloodAcrossTheForkGrain runs one batch whose passes fall on both
// sides of the real fork crossover: a link change re-floods every prefix of
// floodTopology, and of its seven rounds only the last, 2,600 updates in
// and none out, runs wholly on the calling goroutine; the first imports
// serially and forks its emission. At 1, 2 and 4 procs it must leave
// identical Loc-RIBs, footprints and route ids.
func TestFloodAcrossTheForkGrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want floodView
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		topo := floodTopology()
		g := topo.Graph
		ranked := topo.ByRank()
		if _, err := g.Converge(); err != nil {
			t.Fatal(err)
		}
		st := g.Stats()
		forked0, serial0 := st.ForkedRounds.Load(), st.SerialRounds.Load()
		link := bgp.RouteEvent{Kind: bgp.EvLinkChange, AS: ranked[0], Peer: ranked[len(ranked)-1], Rel: bgp.Customer}
		res, err := g.ApplyEvents([]bgp.RouteEvent{link})
		if err != nil {
			t.Fatal(err)
		}
		forked, serial := st.ForkedRounds.Load()-forked0, st.SerialRounds.Load()-serial0
		if forked+serial != uint64(res.Rounds) {
			t.Fatalf("procs=%d: %d forked + %d serial rounds, the batch took %d", procs, forked, serial, res.Rounds)
		}
		if procs == 1 && forked != 0 || procs > 1 && (forked == 0 || serial == 0) {
			t.Fatalf("procs=%d: %d rounds forked and %d ran serially; the batch must cross the grain", procs, forked, serial)
		}
		t.Logf("procs=%d: %d rounds forked, %d serial", procs, forked, serial)
		got := lookAtFlood(g, topo.ASNs)
		if procs == 1 {
			want = got
			continue
		}
		diffFloods(t, fmt.Sprintf("procs=%d link change", procs), got, want)
	}
}
