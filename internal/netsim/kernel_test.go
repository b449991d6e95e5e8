package netsim

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// TestTickArmedOncePerDeadline: a host's TCP wake-up is armed once per
// distinct retransmission deadline, not once per delivery. Ten spoofed SYNs
// reach the tNode together; the vVP's RSTs are filtered, so the tNode
// retransmits on schedule. Run processes exactly the sends, the deliveries
// and one tick per deadline.
func TestTickArmedOncePerDeadline(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)
	n.EgressFilter[2] = func(pkt Packet) bool { return pkt.Dst == tnode.Addr }
	s := NewSim(n, 7)
	delivered := 0
	s.Trace = func(ev TraceEvent) {
		if ev.Dropped == DropNone {
			delivered++
		}
	}
	const sends = 10
	for j := 0; j < sends; j++ {
		s.SendAt(0, client, vvp.Addr, tnode.Addr, uint16(48000+j), 443, tcpsim.SYN)
	}
	events := s.Run(60)

	// 10 SYNs in, then the SYN-ACK and its two retransmissions per flow out.
	if want := sends + 3*sends; delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
	// All ten flows share their deadlines: RTO, RTO+2·RTO, and the third
	// deadline, at which the exhausted flows are retired.
	const deadlines = 3
	if want := sends + delivered + deadlines; events != want {
		t.Fatalf("Run processed %d events, want %d sends + %d deliveries + %d ticks = %d",
			events, sends, delivered, deadlines, want)
	}
	if tnode.TCP.PendingCount() != 0 {
		t.Fatal("tNode still holds half-open flows after the last deadline")
	}
}

// TestResetForgetsArmedWakeups: a wake-up armed before Reset died with the
// queue, so the host's tag must not suppress arming afterwards — MeasurePair
// and the experiments run successive simulations over the same live hosts.
func TestResetForgetsArmedWakeups(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)
	n.EgressFilter[2] = func(pkt Packet) bool { return pkt.Dst == tnode.Addr }
	s := NewSim(n, 7)
	s.SendAt(0, client, vvp.Addr, tnode.Addr, 48000, 443, tcpsim.SYN)
	s.Run(1) // the SYN arrived, the wake-up for its RTO is queued
	if tnode.TCP.PendingCount() != 1 {
		t.Fatal("fixture: tNode holds no half-open flow")
	}

	s.Reset(n, 8)
	synAcks := 0
	s.Trace = func(ev TraceEvent) {
		if ev.Pkt.Kind == tcpsim.SYNACK && ev.Pkt.Src == tnode.Addr {
			synAcks++
		}
	}
	// Any delivery to the tNode re-arms for the flow it still holds.
	s.SendAt(0, client, client.Addr, tnode.Addr, 40000, 81, tcpsim.SYN)
	s.Run(60)
	if synAcks != 2 {
		t.Fatalf("tNode retransmitted %d SYN-ACKs after Reset, want 2", synAcks)
	}
}

// simTranscript is everything observable about a scripted exchange.
type simTranscript struct {
	Events []TraceEvent
	Fired  []float64 // virtual times at which the scripted callbacks ran
	Counts []int     // Run's return values
	Now    float64
	Seq    uint64 // the simulator's sequence counter at the end
}

// scheduleExchange queues a fixed exchange on s and hooks tr up to record
// it: paced probes of the vVP, a spoofed burst at the tNode, and plain
// callbacks, one of which schedules another.
func scheduleExchange(s *Sim, tr *simTranscript, client, vvp, tnode *Host) {
	s.Trace = func(ev TraceEvent) { tr.Events = append(tr.Events, ev) }
	for k := 0; k < 12; k++ {
		s.SendAt(float64(k)*0.5, client, client.Addr, vvp.Addr, uint16(47000+k), 443, tcpsim.SYNACK)
	}
	for j := 0; j < 4; j++ {
		s.SendAt(2.25, client, vvp.Addr, tnode.Addr, uint16(48000+j), 443, tcpsim.SYN)
	}
	s.At(1, func() { tr.Fired = append(tr.Fired, s.Now()) })
	s.At(3, func() {
		tr.Fired = append(tr.Fired, s.Now())
		s.At(s.Now()+0.25, func() { tr.Fired = append(tr.Fired, s.Now()) })
	})
}

// runExchange plays the exchange with a Run that stops while events are
// queued, one that drains them, and one that must find nothing left.
func runExchange(s *Sim, client, vvp, tnode *Host) simTranscript {
	var tr simTranscript
	scheduleExchange(s, &tr, client, vvp, tnode)
	tr.Counts = append(tr.Counts, s.Run(2.5), s.Run(40), s.Run(5000))
	tr.Now, tr.Seq = s.Now(), s.seq
	return tr
}

// TestSimResetMatchesNewSim: Reset after a run that stopped early — events
// queued in both lanes (sends not yet due in the lane; deliveries, wake-ups,
// callbacks and an out-of-order burst in the heap), a Trace hook set, a flap
// window drawn, flows resolved — replays a scripted exchange exactly as a
// new Sim does: no event, clock, sequence number, hook, flap window or
// flow-table entry survives. The replay runs over a view without the tNode,
// with and without a routing-version bump, and over a closed view of the
// same base in the same arena, whose clones of the vVP and the tNode swap
// slots: no entry survives there either.
func TestSimResetMatchesNewSim(t *testing.T) {
	flappy := faults.Profile{Name: "flap", FlapProb: 0.5, FlapDuration: 3, FlapSpan: 2}
	build := func() (*Network, *Host, *Host, *Host) {
		n, client, vvp, tnode := threeASWorld(t)
		vvp.BackgroundRate = 4
		n.Jitter = 0.004 // every delivery time now depends on the rng stream
		n.ArmFaults(flappy, 3)
		return n, client, vvp, tnode
	}
	// The dirty run draws a flap window, the replay's seed draws none: a
	// window that survived Reset would show as drops.
	probe, _, _, _ := build()
	flaps := func(seed int64) bool { s := NewSim(probe, seed); return s.flapEnd > s.flapStart }
	dirtySeed, replaySeed := int64(1), int64(1)
	for !flaps(dirtySeed) {
		dirtySeed++
	}
	for flaps(replaySeed) {
		replaySeed++
	}

	for _, variant := range []string{"bump", "churn", "same-base"} {
		// The replay, on a new Sim over network A and on the used one over
		// network B. Between the runs the tNode churns away — the replay
		// runs over a view without it — and, in "bump", routing moves on
		// (which alone would empty the flow table); "same-base" replays on
		// fresh clones in a closed view of the same network, where every
		// flow of the dirty run would still route.
		between := func(n *Network, tnode *Host) *Network {
			if variant == "bump" {
				n.Graph.BumpVersion()
			}
			return n.Without(tnode.Addr)
		}
		replayClones := func(a *Arena, n *Network, client, vvp, tnode *Host) (*Network, *Host, *Host, *Host) {
			a.Isolate(n)
			c, v, tn := a.Clone(client, 11), a.Clone(vvp, 12), a.Clone(tnode, 13)
			return a.View(), c, v, tn
		}

		nA, clientA, vvpA, tnodeA := build()
		var want simTranscript
		if variant == "same-base" {
			var fresh Arena
			view, c, v, tn := replayClones(&fresh, nA, clientA, vvpA, tnodeA)
			want = runExchange(NewSim(view, replaySeed), c, v, tn)
		} else {
			want = runExchange(NewSim(between(nA, tnodeA), replaySeed), clientA, vvpA, tnodeA)
		}
		if len(want.Events) < 20 || len(want.Fired) != 3 || want.Counts[2] != 0 {
			t.Fatalf("%s fixture: transcript %d transmissions, %d callbacks, %d late events", variant, len(want.Events), len(want.Fired), want.Counts[2])
		}

		// The dirty run works on clones in an arena — the tNode's in the
		// slot the replay gives the vVP and the other way round — so the
		// live hosts of network B reach the replay untouched; what it
		// leaves in the Sim — flows resolved to the clones, among the
		// rest — must not change the replay.
		nB, clientB, vvpB, tnodeB := build()
		var a Arena
		a.Isolate(nB)
		cl, ct, cv := a.Clone(clientB, 1), a.Clone(tnodeB, 3), a.Clone(vvpB, 2)
		s := &a.Sim
		s.Reset(a.View(), dirtySeed)
		var dirty simTranscript
		scheduleExchange(s, &dirty, cl, cv, ct)
		s.Run(2.4) // stops with probes, the burst's echoes, callbacks and wake-ups queued
		flapped := false
		for _, ev := range dirty.Events {
			flapped = flapped || ev.Dropped == DropFlap
		}
		if lane := len(s.lane) - s.head; !flapped || lane < 3 || len(s.queue) == 0 || s.nflows < 3 {
			t.Fatalf("fixture: dirty run flapped=%v, left %d sends in the lane and %d events in the heap, %d flows resolved",
				flapped, lane, len(s.queue), s.nflows)
		}
		before := len(dirty.Events) + len(dirty.Fired)
		view, c, v, tn := between(nB, tnodeB), clientB, vvpB, tnodeB
		if variant == "same-base" {
			view, c, v, tn = replayClones(&a, nB, clientB, vvpB, tnodeB)
		}
		s.Reset(view, replaySeed)
		if s.Trace != nil || s.Now() != 0 || len(s.queue) != 0 || len(s.lane) != s.head || s.nflows != 0 {
			t.Fatalf("%s: after Reset Trace set = %v, Now = %v, %d heap and %d lane events queued, %d flows kept",
				variant, s.Trace != nil, s.Now(), len(s.queue), len(s.lane)-s.head, s.nflows)
		}
		got := runExchange(s, c, v, tn)
		if len(dirty.Events)+len(dirty.Fired) != before {
			t.Fatalf("%s: an event or the Trace hook of the previous run survived Reset", variant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Reset sim replayed differently from NewSim:\n got  %+v\n want %+v", variant, got, want)
		}
	}
}

// TestFlowTableBoundedAndInvisible: the ninth distinct flow of a simulation,
// and every flow of a DisablePathCache network, resolve through the shared
// path; either way the exchange is the one the table-free path produces.
func TestFlowTableBoundedAndInvisible(t *testing.T) {
	const targets = 12
	run := func(disable bool) (simTranscript, int) {
		n, client, _, _ := threeASWorld(t)
		n.DisablePathCache = disable
		var addrs []netip.Addr
		for i := 0; i < targets; i++ {
			a := netip.AddrFrom4([4]byte{10, 3, 1, byte(i + 1)})
			n.AddHost(NewHost(a, 3, ipid.Global, int64(100+i), 443))
			addrs = append(addrs, a)
		}
		s := NewSim(n, 5)
		var tr simTranscript
		s.Trace = func(ev TraceEvent) { tr.Events = append(tr.Events, ev) }
		client.Handler = func(*Sim, Packet) bool { return true }
		for round := 0; round < 2; round++ {
			for i, a := range addrs {
				s.SendAt(float64(round)+float64(i)*0.01, client, client.Addr, a, uint16(41000+i), 443, tcpsim.SYN)
			}
		}
		tr.Counts = append(tr.Counts, s.Run(30))
		return tr, s.nflows
	}
	cached, filled := run(false)
	uncached, bypassed := run(true)
	if filled != flowSlots {
		t.Fatalf("flow table holds %d entries after %d distinct flows, want the cap %d", filled, 2*targets, flowSlots)
	}
	if bypassed != 0 {
		t.Fatalf("DisablePathCache network filled %d flow-table entries", bypassed)
	}
	if len(cached.Events) < 4*targets {
		t.Fatalf("fixture: only %d transmissions", len(cached.Events))
	}
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatal("exchange through the flow table differs from the shared path")
	}
}

// TestTraceHookMaySend: a Trace hook that transmits does not change the
// packet it was called for. The hook's send resolves a flow of another
// length — where the table is bypassed, into the very flow the traced
// packet was routed by — yet the traced SYN arrives when it does under a
// hook that sends nothing.
func TestTraceHookMaySend(t *testing.T) {
	for _, disable := range []bool{false, true} {
		arrival := func(send bool) float64 {
			n, client, _, tnode := threeASWorld(t)
			n.DisablePathCache = disable
			local := NewHost(ip("10.3.0.2"), 3, ipid.Global, 4)
			n.AddHost(local)
			s := NewSim(n, 5)
			s.Trace = func(ev TraceEvent) {
				if send && ev.Pkt.Src == client.Addr {
					s.SendFrom(tnode, tnode.Addr, local.Addr, 443, 40000, tcpsim.RST)
				}
			}
			at := -1.0
			tnode.Handler = func(s *Sim, pkt Packet) bool {
				if pkt.Src == client.Addr {
					at = s.Now()
				}
				return true
			}
			s.SendFrom(client, client.Addr, tnode.Addr, 40000, 443, tcpsim.SYN)
			s.Run(10)
			return at
		}
		quiet, busy := arrival(false), arrival(true)
		if quiet <= 0 || busy != quiet {
			t.Fatalf("DisablePathCache=%v: SYN arrives at %v under a sending hook, %v under a quiet one", disable, busy, quiet)
		}
	}
}

// TestFlowTableFollowsRoutingVersion: entries are valid only at the routing
// version they were filled at.
func TestFlowTableFollowsRoutingVersion(t *testing.T) {
	n, client, _, tnode := threeASWorld(t)
	s := NewSim(n, 5)
	var reasons []DropReason
	s.Trace = func(ev TraceEvent) { reasons = append(reasons, ev.Dropped) }
	s.SendFrom(client, client.Addr, tnode.Addr, 40000, 81, tcpsim.SYN)
	n.Graph.AS(3).Originated = nil
	if _, err := n.Graph.ConvergePrefixes([]netip.Prefix{pfx("10.3.0.0/16")}); err != nil {
		t.Fatal(err)
	}
	s.SendFrom(client, client.Addr, tnode.Addr, 40001, 81, tcpsim.SYN)
	if want := []DropReason{DropNone, DropNoRoute}; !reflect.DeepEqual(reasons, want) {
		t.Fatalf("drop reasons %v, want %v: a withdrawn prefix stayed routed through the flow table", reasons, want)
	}
}

// funcPC identifies a func value (reflect.DeepEqual cannot compare them).
func funcPC(f any) uintptr {
	if v := reflect.ValueOf(f); !v.IsNil() {
		return v.Pointer()
	}
	return 0
}

// TestCloneHostIntoMatchesCloneHost: cloning into a host that already served
// a different one — half-open flows, a per-destination counter, a pending
// reset, background clock, rate-limiter bucket and an armed wake-up — gives
// the host CloneHostInto makes of a new one: the same fields, and the same
// behaviour under an identical drive.
func TestCloneHostIntoMatchesCloneHost(t *testing.T) {
	n, client, vvp, tnode := threeASWorld(t)
	n.ArmFaults(faults.Profile{Name: "reset", ResetProb: 1, ResetMaxPackets: 6, RateLimitPPS: 2, RateLimitBurst: 3}, 11)
	vvp.IPID.SetSplit(4)
	vvp.BackgroundRate = 7
	vvp.BackgroundFn = func(t float64) float64 { return 7 + t }
	vvp.Handler = func(*Sim, Packet) bool { return false }
	other := NewHost(ip("10.3.0.77"), 3, ipid.PerDestination, 9, 22, 80)
	n.AddHost(other)

	// Dirty the target as a measurement on a different host would.
	var target Host
	n.CloneHostInto(&target, other, 41)
	s := NewSim(overlayOf(n, &target), 1)
	s.SendFrom(client, client.Addr, target.Addr, 40000, 22, tcpsim.SYN)
	s.SendFrom(client, tnode.Addr, target.Addr, 40001, 80, tcpsim.SYN)
	s.Run(0.05) // both SYNs answered, neither RST back yet
	if target.TCP.PendingCount() != 2 || target.tickTok == nil || !target.rlInit || target.lastBG == 0 {
		t.Fatalf("fixture: target not dirty (pending=%d armed=%v rl=%v lastBG=%v)",
			target.TCP.PendingCount(), target.tickTok != nil, target.rlInit, target.lastBG)
	}

	const seed = 77
	n.CloneHostInto(&target, vvp, seed)
	fresh := cloneHostOf(n, vvp, seed)

	if target.Addr != fresh.Addr || target.ASN != fresh.ASN || target.BackgroundRate != fresh.BackgroundRate ||
		funcPC(target.BackgroundFn) != funcPC(fresh.BackgroundFn) || funcPC(target.Handler) != funcPC(fresh.Handler) ||
		target.lastBG != fresh.lastBG || target.rlTokens != fresh.rlTokens || target.rlLast != fresh.rlLast ||
		target.rlInit != fresh.rlInit || target.tickTok != fresh.tickTok || target.tickGen != fresh.tickGen || target.tickAt != fresh.tickAt {
		t.Fatalf("clone-into host fields differ from a fresh clone:\n into  %+v\n fresh %+v", target, *fresh)
	}
	if target.TCP.PendingCount() != 0 || target.IPID.Policy() != fresh.IPID.Policy() ||
		target.IPID.SplitWays() != fresh.IPID.SplitWays() || target.IPID.Peek() != fresh.IPID.Peek() {
		t.Fatal("clone-into endpoint or counter state differs from a fresh clone")
	}

	// Same behaviour: transmissions (IP-IDs over split lanes and through the
	// planted reset), background draws, rate-limited responses, retransmits.
	drive := func(h *Host) simTranscript {
		view := overlayOf(n, h)
		s := NewSim(view, 3)
		var tr simTranscript
		s.Trace = func(ev TraceEvent) {
			if ev.Pkt.Src == h.Addr { // the shared client's own counter moves on between drives
				tr.Events = append(tr.Events, ev)
			}
		}
		h.Handler = nil
		for k := 0; k < 20; k++ {
			s.SendAt(float64(k)*0.3, client, client.Addr, h.Addr, uint16(47000+k), 443, tcpsim.SYNACK)
		}
		tr.Counts = append(tr.Counts, s.Run(30))
		return tr
	}
	got, want := drive(&target), drive(fresh)
	if len(want.Events) < 10 {
		t.Fatalf("fixture: the clone transmitted only %d packets", len(want.Events))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("clone-into host behaves differently from a fresh clone")
	}
}

// TestQueuePopsInKeyOrder: events fire in (at, seq) order whichever lane
// holds them. Randomized schedules mix sends offered to the lane — in time
// order, and out of it, which the heap must take — with events only the
// heap takes, from before the run and from inside firing events, on a
// coarse time grid so that ties are common and clamping to now happens;
// the firing order must equal a sort of every scheduled key on (at, seq).
func TestQueuePopsInKeyOrder(t *testing.T) {
	n, _, _, _ := threeASWorld(t)
	rng := rand.New(rand.NewSource(3))
	var s Sim
	laneUsed, heapOffered := 0, 0
	for trial := 0; trial < 300; trial++ {
		s.Reset(n, int64(trial))
		var scheduled, fired []eventKey
		var add func(t float64, ahead bool, depth int)
		add = func(at float64, ahead bool, depth int) {
			if at < s.Now() {
				at = s.Now()
			}
			lane := len(s.lane)
			e := s.schedule(at, evFunc, ahead)
			if len(s.lane) > lane {
				laneUsed++
			} else if ahead {
				heapOffered++
			}
			k := eventKey{at: at, seq: s.seq}
			scheduled = append(scheduled, k)
			e.fn = func() {
				fired = append(fired, k)
				if depth < 2 {
					for range rng.Intn(3) {
						add(s.Now()+float64(rng.Intn(4)-1)*0.25, rng.Intn(3) == 0, depth+1)
					}
				}
			}
		}
		at := 0.0
		for range 1 + rng.Intn(40) {
			if rng.Intn(4) == 0 {
				add(float64(rng.Intn(12))*0.25, false, 0) // a heap event anywhere
				continue
			}
			if rng.Intn(5) != 0 {
				at += float64(rng.Intn(3)) * 0.25 // in time order, ties included
			}
			add(at-float64(rng.Intn(2))*0.5, true, 0) // now and then behind the lane's tail
		}
		// Stop partway once, so keys scheduled while others wait mix in.
		s.Run(float64(rng.Intn(8)) * 0.25)
		s.Run(1e9)
		slices.SortFunc(scheduled, func(a, b eventKey) int {
			if a.before(b) {
				return -1
			}
			if b.before(a) {
				return 1
			}
			return 0
		})
		for i := range scheduled {
			if i >= len(fired) || fired[i].at != scheduled[i].at || fired[i].seq != scheduled[i].seq {
				t.Fatalf("trial %d: fired %v, want the sorted keys %v", trial, fired, scheduled)
			}
		}
		if len(fired) != len(scheduled) {
			t.Fatalf("trial %d: %d events fired, %d scheduled", trial, len(fired), len(scheduled))
		}
	}
	if laneUsed == 0 || heapOffered == 0 {
		t.Fatalf("fixture: %d events queued in the lane, %d offered to it went to the heap", laneUsed, heapOffered)
	}
}
