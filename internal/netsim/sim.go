package netsim

import (
	"math"
	"math/rand"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/seedmix"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// eventKind selects what a scheduled event does when it fires. The
// per-packet shapes — a host transmitting, a packet arriving, a TCP timer
// waking — carry their operands in the event's slot instead of in a closure:
// one round schedules hundreds of thousands of them.
type eventKind uint8

const (
	// evFunc runs an arbitrary callback (the public At API).
	evFunc eventKind = iota
	// evSend makes host transmit pkt (the SendAt API); the IP-ID is drawn
	// when the event fires, exactly as SendFrom draws it.
	evSend
	// evDeliver hands pkt to host (the tail of a routed transmission).
	evDeliver
	// evTick fires the host's due TCP retransmissions and re-arms.
	evTick
)

// eventKey is what the queue orders and moves: fire time, the sequence
// number that breaks ties (so execution order is fully deterministic), and
// the index of the event's operands in the slot slab. It holds no pointers,
// so sifting the heap costs neither write barriers nor bulk copies.
type eventKey struct {
	at  float64
	seq uint64
	idx int32
}

// before orders keys by (time, sequence).
func (k eventKey) before(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventSlot holds one queued event's operands. Slots never move while
// queued; a fired event's slot goes on the free list and is reused.
type eventSlot struct {
	fn   func() // evFunc
	host *Host  // evSend: the sender; evDeliver, evTick: the receiver
	pkt  Packet // evSend (IP-ID not yet drawn), evDeliver
	kind eventKind
	next int32 // free list: index+1 of the next free slot, 0 at the end
}

// enqueue adds k to one of the two lanes that hold the queued keys: to the
// lane when it may (ahead is set and k does not precede the lane's last
// key), to the heap otherwise. The lane takes SendAt's sends while they
// arrive in time order — a measurement's whole probe schedule, laid out
// before it runs — as an append-only sorted run consumed from the front, so
// the heap holds only the events a run creates as it goes (deliveries,
// wake-ups). next pops the earlier head of the two on (at, seq): events
// fire in (at, seq) order whichever lane holds them.
func (s *Sim) enqueue(k eventKey, ahead bool) {
	if n := len(s.lane); ahead && (n == 0 || !k.before(s.lane[n-1])) {
		s.lane = append(s.lane, k)
		return
	}
	s.push(k)
}

// next removes and returns the earliest queued key if it fires no later
// than until.
func (s *Sim) next(until float64) (eventKey, bool) {
	if s.head < len(s.lane) && (len(s.queue) == 0 || s.lane[s.head].before(s.queue[0])) {
		k := s.lane[s.head]
		if k.at > until {
			return eventKey{}, false
		}
		s.head++
		if s.head == len(s.lane) {
			s.lane, s.head = s.lane[:0], 0
		}
		return k, true
	}
	if len(s.queue) == 0 || s.queue[0].at > until {
		return eventKey{}, false
	}
	return s.pop(), true
}

// push adds k to the binary min-heap of keys. The heap is hand-rolled rather
// than built on container/heap because the standard interface boxes every
// pushed and popped element into an `any` — one allocation per packet.
func (s *Sim) push(k eventKey) {
	q := append(s.queue, k)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
	s.queue = q
}

// pop removes and returns the earliest key.
func (s *Sim) pop() eventKey {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	k := q[n]
	q = q[:n]
	s.queue = q
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(k) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = k
	}
	return top
}

// TraceEvent records one packet transmission attempt for debugging and the
// Figure-2 timeline rendering.
type TraceEvent struct {
	Time    float64
	Pkt     Packet
	Dropped DropReason
}

// flowSlots is the capacity of a simulation's flow table. One pair
// measurement has at most five flows (client→vVP, vVP→client, client→tNode
// with a spoofed source, tNode→vVP, vVP→tNode); one candidate's vVP scan has
// eight (each client→candidate, candidate→ClientA, candidate→ each of the five
// spoofed sources), a tNode scan four. The bound keeps a simulation that
// talks to many hosts from one Sim (a hand-driven experiment) linear: a miss
// on a full table resolves the flow again and stores nothing.
const flowSlots = 8

// flowEntry memoizes Network.resolve for one (source AS, destination).
type flowEntry struct {
	src inet.ASN
	dst netip.Addr
	fl  flow
}

// simToken identifies one Sim between two Resets. Hosts tag their armed
// wake-up with it, so a tag left by an earlier simulation (MeasurePair and
// the experiments may run successive Sims over the same live hosts; arena
// clones are re-cloned, which clears the tag) or by this Sim before its last
// Reset never matches. It is a separate small object so that a host's stale
// tag does not keep a finished simulation's queue alive.
type simToken struct{ gen uint64 }

// Sim is the discrete-event engine. It is not safe for concurrent use.
//
// While a Sim is in use the network's wiring — filters, host population,
// overlay — must not change: the flow table below resolves
// each flow once. Routing changes are the exception (the table is keyed on
// the graph's routing version); anything else takes a Reset.
type Sim struct {
	Net *Network
	// Trace, when set, receives every transmission attempt.
	Trace func(TraceEvent)

	now     float64
	queue   []eventKey  // binary min-heap over (at, seq)
	lane    []eventKey  // sends queued in time order; lane[head:] are pending
	head    int         // the lane's next key
	slots   []eventSlot // operands of queued events, indexed by eventKey.idx
	free    int32       // index+1 of the first free slot, 0 when none
	seq     uint64
	rng     *rand.Rand
	tickBuf []tcpsim.Segment // scratch for TCP timer fan-out
	tok     *simToken

	// flows memoizes the packet-independent half of routing for the few
	// flows a measurement has; entries are valid while the graph's routing
	// version is flowVer. A miss on a full table goes to Network.resolve
	// and answers from spare.
	flows   [flowSlots]flowEntry
	nflows  int
	flowVer uint64
	spare   flow

	// flapStart/flapEnd, when flapEnd > flapStart, blackhole the forwarding
	// plane for that window of this simulation's virtual time — a transient
	// BGP flap drawn once per Sim from the fault profile.
	flapStart, flapEnd float64
}

// Reset readies s, a new(Sim) or a used one, for a simulation over net with
// a deterministic seed; a used Sim keeps its queue, slab and scratch storage
// and otherwise ends in the state a new one does: virtual time and the
// sequence counter restart, queued events are discarded, the Trace hook is
// cleared, the flow table and every host's armed wake-up are forgotten, and
// the rng is re-seeded. Seeding is O(1) (splitmix64): simulators are reset
// per measurement pair, so reset cost is round cost. When the network's fault
// profile enables flaps, the flap window is drawn here — the draws are
// profile-gated so clean simulations consume an identical rng stream.
func (s *Sim) Reset(net *Network, seed int64) {
	s.Net = net
	s.Trace = nil
	s.now, s.seq = 0, 0
	for _, k := range s.queue {
		s.slots[k.idx].fn = nil // do not retain callbacks that never fired
	}
	s.queue = s.queue[:0]
	s.lane, s.head = s.lane[:0], 0 // sends only: no callbacks to drop
	s.slots = s.slots[:0]
	s.free = 0
	if s.rng == nil {
		s.rng = rand.New(seedmix.NewSource(seed))
		s.tok = new(simToken)
	} else {
		s.rng.Seed(seed)
	}
	s.tok.gen++
	s.nflows = 0
	s.flapStart, s.flapEnd = 0, 0
	if fp := &net.Faults; fp.FlapProb > 0 && s.rng.Float64() < fp.FlapProb {
		s.flapStart = s.rng.Float64() * fp.FlapSpan
		s.flapEnd = s.flapStart + fp.FlapDuration
	}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// schedule queues an event at absolute virtual time t (clamped to now) and
// returns its slot for the caller to fill. The pointer is valid until the
// next schedule call. ahead offers the event to the lane (enqueue).
func (s *Sim) schedule(t float64, kind eventKind, ahead bool) *eventSlot {
	if t < s.now {
		t = s.now
	}
	var idx int32
	if s.free != 0 {
		idx = s.free - 1
		s.free = s.slots[idx].next
	} else {
		idx = int32(len(s.slots))
		s.slots = append(s.slots, eventSlot{})
	}
	s.seq++
	s.enqueue(eventKey{at: t, seq: s.seq, idx: idx}, ahead)
	e := &s.slots[idx]
	e.kind = kind
	return e
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t float64, fn func()) { s.schedule(t, evFunc, false).fn = fn }

// SendAt schedules SendFrom(h, src, dst, srcPort, dstPort, kind) at absolute
// virtual time t (clamped to now) without a closure. Sends scheduled in time
// order queue in the lane, which costs no heap work.
func (s *Sim) SendAt(t float64, h *Host, src, dst netip.Addr, srcPort, dstPort uint16, kind tcpsim.Kind) {
	e := s.schedule(t, evSend, true)
	e.host = h
	e.pkt = Packet{Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort, Kind: kind}
}

// Run processes events until the queue drains or virtual time exceeds
// until. It returns the number of events processed.
func (s *Sim) Run(until float64) int {
	n := 0
	for {
		k, ok := s.next(until)
		if !ok {
			break
		}
		s.now = k.at
		// The slot is released before the event runs — what runs may
		// schedule, which reuses free slots and can move the slab — so its
		// operands are read out first, and only the ones this kind uses.
		e := &s.slots[k.idx]
		e.next, s.free = s.free, k.idx+1
		switch e.kind {
		case evFunc:
			fn := e.fn
			e.fn = nil
			fn()
		case evSend:
			s.SendFrom(e.host, e.pkt.Src, e.pkt.Dst, e.pkt.SrcPort, e.pkt.DstPort, e.pkt.Kind)
		case evDeliver:
			s.deliver(e.host, e.pkt)
		case evTick:
			s.tick(e.host)
		}
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// SendFrom transmits a packet from host h. src is the source address placed
// in the header — pass h.Addr for honest traffic or any other address to
// spoof. The IP-ID is drawn from h's counter after charging background
// traffic, which is exactly what a remote observer of h's counter sees.
func (s *Sim) SendFrom(h *Host, src, dst netip.Addr, srcPort, dstPort uint16, kind tcpsim.Kind) {
	h.advanceBackground(s.now, &s.Net.Faults)
	pkt := Packet{
		Src: src, Dst: dst,
		SrcPort: srcPort, DstPort: dstPort,
		Kind: kind,
		IPID: h.IPID.Next(dst),
	}
	s.transmit(h.ASN, pkt)
}

// resolve is Network.resolve through the flow table. The flow it points to
// is valid until the next resolve.
func (s *Sim) resolve(srcASN inet.ASN, dst netip.Addr) *flow {
	n := s.Net
	if n.DisablePathCache {
		s.spare = n.resolve(srcASN, dst)
		return &s.spare
	}
	if ver := n.Graph.Version(); ver != s.flowVer {
		s.flowVer, s.nflows = ver, 0
	}
	for i := 0; i < s.nflows; i++ {
		if e := &s.flows[i]; e.src == srcASN && e.dst == dst {
			return &e.fl
		}
	}
	if s.nflows == flowSlots {
		s.spare = n.resolve(srcASN, dst)
		return &s.spare
	}
	e := &s.flows[s.nflows]
	s.nflows++
	*e = flowEntry{src: srcASN, dst: dst, fl: n.resolve(srcASN, dst)}
	return &e.fl
}

// transmit routes pkt from srcASN and schedules delivery. Every fault draw
// is gated on its profile knob, so a clean network consumes exactly the
// pre-fault rng stream.
func (s *Sim) transmit(srcASN inet.ASN, pkt Packet) {
	fp := &s.Net.Faults
	// fl is read before the Trace hook runs: a hook that transmits
	// resolves again, which may reuse the entry fl points to.
	fl := s.resolve(srcASN, pkt.Dst)
	_, dstHost, reason := fl.apply(pkt)
	hops := len(fl.path)
	if reason == DropNone && s.flapEnd > s.flapStart && s.now >= s.flapStart && s.now < s.flapEnd {
		reason = DropFlap
	}
	if reason == DropNone && s.Net.LossRate > 0 && s.rng.Float64() < s.Net.LossRate {
		reason = DropLoss
	}
	// The per-hop fault model counts the traversed AS-path length.
	if reason == DropNone && fp.LinkLossPerHop > 0 && hops > 0 {
		if s.rng.Float64() > math.Pow(1-fp.LinkLossPerHop, float64(hops)) {
			reason = DropLoss
		}
	}
	if s.Trace != nil {
		s.Trace(TraceEvent{Time: s.now, Pkt: pkt, Dropped: reason})
	}
	if reason != DropNone {
		return
	}
	delay := s.Net.BaseDelay + s.Net.PerHopDelay*float64(hops)
	if s.Net.Jitter > 0 {
		delay += s.rng.Float64() * s.Net.Jitter
	}
	if fp.ReorderProb > 0 && s.rng.Float64() < fp.ReorderProb {
		// Extra latency large enough to overtake later packets.
		delay += s.rng.Float64() * fp.ReorderDelay
	}
	s.scheduleDelivery(s.now+delay, dstHost, pkt)
	if fp.DupProb > 0 && s.rng.Float64() < fp.DupProb {
		// A duplicate arrives shortly after the original (routers dedup
		// nothing at L3); the event sequence number breaks exact ties.
		s.scheduleDelivery(s.now+delay+s.rng.Float64()*0.5*fp.ReorderDelay, dstHost, pkt)
	}
}

func (s *Sim) scheduleDelivery(t float64, h *Host, pkt Packet) {
	e := s.schedule(t, evDeliver, false)
	e.host = h
	e.pkt = pkt
}

// deliver hands pkt to the destination host: the custom handler first, then
// the TCP automaton; any response segment is transmitted in turn.
func (s *Sim) deliver(h *Host, pkt Packet) {
	if h.Handler != nil && h.Handler(s, pkt) {
		return
	}
	seg := tcpsim.Segment{
		Peer:      pkt.Src,
		PeerPort:  pkt.SrcPort,
		LocalPort: pkt.DstPort,
		Kind:      pkt.Kind,
	}
	if o, ok := h.TCP.HandleSegment(s.now, seg); ok && s.allowResponse(h) {
		s.SendFrom(h, h.Addr, o.Peer, o.LocalPort, o.PeerPort, o.Kind)
	}
	s.armRetransmit(h)
}

// allowResponse gates automaton responses (SYN-ACKs, RSTs) through the
// host's token bucket when the fault profile rate-limits them. A suppressed
// response charges nothing against the IP-ID counter — the packet was never
// built, which is what makes rate limiting observable on the side channel.
func (s *Sim) allowResponse(h *Host) bool {
	fp := &s.Net.Faults
	if fp.RateLimitPPS <= 0 {
		return true
	}
	return h.allowResponse(s.now, fp.RateLimitPPS, fp.RateLimitBurst)
}

// tick fires the host's due TCP retransmissions and re-arms the timer.
// The segment buffer is owned by the Sim and reused across ticks; deliveries
// are scheduled, never run inline, so the loop cannot re-enter tick.
func (s *Sim) tick(h *Host) {
	if s.armed(h) && h.tickAt == s.now {
		h.tickTok = nil // this was the armed wake-up
	}
	s.tickBuf = h.TCP.Tick(s.now, s.tickBuf[:0])
	for _, o := range s.tickBuf {
		if s.allowResponse(h) {
			s.SendFrom(h, h.Addr, o.Peer, o.LocalPort, o.PeerPort, o.Kind)
		}
	}
	s.armRetransmit(h)
}

// armed reports whether h carries a wake-up armed by this simulation since
// its last Reset.
func (s *Sim) armed(h *Host) bool { return h.tickTok == s.tok && h.tickGen == s.tok.gen }

// armRetransmit makes sure a wake-up is queued for the host's next TCP
// deadline: it schedules one unless one is already armed at or before that
// deadline (the earlier wake-up re-arms when it fires). A wake-up armed for
// a later time stays queued when an earlier one supersedes it; it fires as
// a spurious tick, which is harmless — Tick only fires due flows.
func (s *Sim) armRetransmit(h *Host) {
	deadline, ok := h.TCP.NextDeadline()
	if !ok {
		return
	}
	if deadline < s.now {
		deadline = s.now // a deadline left over from an earlier virtual clock
	}
	if s.armed(h) && h.tickAt <= deadline {
		return
	}
	h.tickTok, h.tickGen, h.tickAt = s.tok, s.tok.gen, deadline
	s.schedule(deadline, evTick, false).host = h
}
