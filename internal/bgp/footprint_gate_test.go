package bgp_test

import (
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/topology"
)

// TestFootprintGate holds the routing table to what it weighs on the default
// 1,218-AS topology: 26 dense bytes per (AS, prefix), spill segments filled
// to within 15 % and runs to within 15 % of the routes they hold, the
// flood's buffers returned after the cold convergence — and an incremental
// batch's small buffers kept for the next one.
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
	if f.SpillLiveBytes == 0 || f.SpillLiveBytes > f.SpillLenBytes || f.SpillLenBytes > f.SpillCapBytes {
		t.Errorf("spill live/len/cap out of order: %d/%d/%d", f.SpillLiveBytes, f.SpillLenBytes, f.SpillCapBytes)
	}
	if slack := float64(f.SpillCapBytes) / float64(f.SpillLenBytes); slack > 1.15 {
		t.Errorf("spill cap/len = %.3f, want <= 1.15", slack)
	}
	if slack := float64(f.SpillLenBytes) / float64(f.SpillLiveBytes); slack > 1.15 {
		t.Errorf("spill len/live = %.3f, want <= 1.15", slack)
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
	if kept.DenseBytes != f.DenseBytes || kept.SpillCapBytes != f.SpillCapBytes {
		t.Errorf("a flap resized the tables: %+v -> %+v", f, kept)
	}
	// Kept means reused: capacities only grow (how the changed lists split
	// between workers is scheduling), and a like batch grows them little.
	flap(bgp.EvWithdraw)
	if again := flap(bgp.EvAnnounce); again.FloodBytes < kept.FloodBytes || again.FloodBytes > 2*kept.FloodBytes {
		t.Errorf("the same batch again left %d bytes of flood buffers, the first %d", again.FloodBytes, kept.FloodBytes)
	}
}
