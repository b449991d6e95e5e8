package netsim

import (
	"testing"

	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// countDeliveries runs a one-packet-per-interval stream from the client to
// the tNode's open port and counts SYN-ACK responses arriving back.
func countDeliveries(n *Network, client, tnode *Host, packets int, seed int64) int {
	s := NewSim(n, seed)
	got := 0
	prevTrace := s.Trace
	s.Trace = func(ev TraceEvent) {
		if ev.Dropped == DropNone && ev.Pkt.Kind == tcpsim.SYNACK && ev.Pkt.Dst == client.Addr {
			got++
		}
		if prevTrace != nil {
			prevTrace(ev)
		}
	}
	for i := 0; i < packets; i++ {
		at := float64(i)
		s.At(at, func() {
			s.SendFrom(client, client.Addr, tnode.Addr, 40000, 443, tcpsim.SYN)
		})
	}
	s.Run(float64(packets) + 30)
	return got
}

// TestCleanNetworkLossless: with no fault profile armed, every SYN elicits a
// SYN-ACK — the baseline the gated fault draws must not perturb.
func TestCleanNetworkLossless(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	if got := countDeliveries(n, client, tnode, 20, 1); got != 20 {
		t.Fatalf("clean network delivered %d/20 responses", got)
	}
}

// TestLinkLossDropsSomePackets: a per-hop loss profile must lose traffic on
// multi-hop paths, and the loss must be seed-deterministic.
func TestLinkLossDropsSomePackets(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	n.ArmFaults(faults.Profile{Name: "loss", LinkLossPerHop: 0.2}, 7)
	a := countDeliveries(n, client, tnode, 50, 1)
	if a == 50 {
		t.Fatal("20% per-hop loss lost nothing over 50 round trips")
	}
	if b := countDeliveries(n, client, tnode, 50, 1); b != a {
		t.Fatalf("same-seed lossy runs diverged: %d vs %d", a, b)
	}
}

// TestRateLimitCapsResponses: a 1 pps SYN-ACK budget must suppress most
// responses to a burst while the suppressed responses still charge nothing.
func TestRateLimitCapsResponses(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	n.ArmFaults(faults.Profile{Name: "rl", RateLimitPPS: 1, RateLimitBurst: 2}, 7)
	s := NewSim(n, 1)
	got := 0
	s.Trace = func(ev TraceEvent) {
		if ev.Dropped == DropNone && ev.Pkt.Kind == tcpsim.SYNACK && ev.Pkt.Dst == client.Addr {
			got++
		}
	}
	// 20 SYNs in one virtual second: budget is 2 burst tokens + ~1 refill.
	for i := 0; i < 20; i++ {
		at := float64(i) * 0.05
		s.At(at, func() {
			s.SendFrom(client, client.Addr, tnode.Addr, uint16(41000+i), 443, tcpsim.SYN)
		})
	}
	s.Run(40)
	if got > 6 {
		t.Fatalf("rate limiter let %d/20 SYN-ACKs through a ~3-token budget", got)
	}
	if got == 0 {
		t.Fatal("rate limiter suppressed everything including the burst allowance")
	}
}

// TestFlapWindowDeterministicPerSeed: the flap window is drawn once per Sim;
// equal seeds must agree and the blackhole must actually drop traffic.
func TestFlapWindowDeterministicPerSeed(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	n.ArmFaults(faults.Profile{Name: "flap", FlapProb: 1, FlapDuration: 5, FlapSpan: 10}, 7)
	a := countDeliveries(n, client, tnode, 20, 3)
	b := countDeliveries(n, client, tnode, 20, 3)
	if a != b {
		t.Fatalf("same-seed flap runs diverged: %d vs %d", a, b)
	}
	if a == 20 {
		t.Fatal("a certain 5s flap over a 20s stream dropped nothing")
	}
}

// TestVanishedHostUnreachable: a host a Without view hides drops packets
// with no-such-host over the view and over overlays made from it, while the
// network the view was made from still reaches it.
func TestVanishedHostUnreachable(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	view := n.Without(tnode.Addr)
	if _, ok := view.HostAt(tnode.Addr); ok || !view.IsVanished(tnode.Addr) {
		t.Fatal("vanished host still resolvable")
	}
	if _, ok := overlayOf(view, client).HostAt(tnode.Addr); ok {
		t.Fatal("vanished host resolvable through an overlay of the view")
	}
	if got := countDeliveries(view, client, tnode, 5, 1); got != 0 {
		t.Fatalf("vanished host answered %d probes", got)
	}
	if _, ok := n.HostAt(tnode.Addr); !ok || n.IsVanished(tnode.Addr) {
		t.Fatal("Without hid the host on the network it was made from")
	}
	if got := countDeliveries(n, client, tnode, 5, 1); got != 5 {
		t.Fatalf("the network the view was made from answered %d/5 probes", got)
	}
}

// TestArmFaultsSplitsCounters: arming a split profile flips a deterministic
// subset of hosts to per-CPU lanes; re-arming the same profile is a no-op.
func TestArmFaultsSplitsCounters(t *testing.T) {
	n, _, _, _ := threeASWorld(t)
	p := faults.Profile{Name: "split", SplitCounterProb: 1, SplitWays: 2}
	n.ArmFaults(p, 7)
	split := 0
	for _, a := range n.AllAddrs() {
		h, _ := n.HostAt(a)
		if h.IPID.SplitWays() == 2 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("probability-1 split profile split no counters")
	}
	gen := n.Generation()
	n.ArmFaults(p, 7) // identical profile+seed: must not bump the generation
	if n.Generation() != gen {
		t.Fatal("re-arming an identical profile invalidated caches")
	}
}

// TestCloneHostAppliesReset: with a reset profile armed, CloneHostInto
// plants a deterministic mid-round counter reset; the same clone seed plants
// the same reset, and a clean network's CloneHostInto matches plain
// CloneInto.
func TestCloneHostAppliesReset(t *testing.T) {
	n, _, vvp, _ := threeASWorld(t)

	clean := cloneHostOf(n, vvp, 5)
	plain := cloneOf(vvp, 5)
	for i := 0; i < 10; i++ {
		if clean.IPID.Peek() != plain.IPID.Peek() {
			t.Fatal("clean CloneHostInto diverged from CloneInto")
		}
		clean.IPID.Advance(1)
		plain.IPID.Advance(1)
	}

	n.ArmFaults(faults.Profile{Name: "reset", ResetProb: 1, ResetMaxPackets: 4}, 7)
	a := cloneHostOf(n, vvp, 5)
	b := cloneHostOf(n, vvp, 5)
	diverged := false
	for i := 0; i < 10; i++ {
		if a.IPID.Peek() != b.IPID.Peek() {
			t.Fatalf("same-seed fault clones diverged at step %d", i)
		}
		before := a.IPID.Peek()
		a.IPID.Advance(1)
		b.IPID.Advance(1)
		if a.IPID.Peek() != before+1 {
			diverged = true // the reset re-randomized the counter
		}
	}
	if !diverged {
		t.Fatal("probability-1 reset profile never reset the clone's counter")
	}
}
