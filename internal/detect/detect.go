// Package detect implements RoVista's per-pair measurement round (§4.3 and
// Figure 3 of the paper): probe a vVP's IP-ID counter at a fixed cadence,
// inject spoofed SYNs toward a tNode mid-round, and classify the resulting
// IP-ID growth pattern as no filtering, inbound filtering, or outbound
// filtering. The classifier is the Appendix-A spike detector (detector.go):
// an ADF-gated AR(1)/AR(2)-or-trend fit to the pre-burst background and a
// one-tailed z-test at α = 0.05 against the 10-packet spike, on the
// unexported OLS and normal-distribution numerics in linalg.go.
package detect

import (
	"fmt"
	"net/netip"
	"sync"

	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/scan"
	"github.com/netsec-lab/rovista/internal/seedmix"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// Outcome classifies one (vVP, tNode) measurement.
type Outcome uint8

// Outcomes, mirroring Figure 2.
const (
	// Inconclusive: the observed pattern fits none of the three cases
	// (loss, noise, or a broken host).
	Inconclusive Outcome = iota
	// NoFiltering: the spoofed burst produced exactly one spike — the vVP's
	// RSTs reached the tNode and stopped the retransmissions.
	NoFiltering
	// InboundFiltering: no spike at all — the tNode's SYN-ACKs never
	// reached the vVP.
	InboundFiltering
	// OutboundFiltering: a spike followed by an RTO-delayed echo — the
	// vVP's RSTs were filtered on the way to the tNode (the ROV signal).
	OutboundFiltering
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case NoFiltering:
		return "no-filtering"
	case InboundFiltering:
		return "inbound-filtering"
	case OutboundFiltering:
		return "outbound-filtering"
	default:
		return "inconclusive"
	}
}

// The paper's per-pair round (§4.3, Appendix A). Every measurement runs this
// one schedule; a retry only shifts it later in virtual time (the offset
// argument of MeasurePair and MeasurePairIsolated).
const (
	probeInterval = 0.5  // seconds between IP-ID probes
	preProbes     = 10   // probes before the burst
	postProbes    = 14   // probes after the burst (≈ 7 s, covers the RTO echo)
	spoofCount    = 10   // spoofed SYNs in the burst
	rto           = 3.0  // expected tNode retransmission timeout, seconds
	alpha         = 0.05 // detector significance level
)

// PairResult is the outcome of one measurement round.
type PairResult struct {
	VVP     netip.Addr
	TNode   scan.TNode
	Outcome Outcome
	// Usable reflects the Appendix-A FP/FN gate: false when the vVP's
	// background noise precludes inference (such results are discarded).
	Usable bool
	// SimEvents counts the simulator events the measurement processed, summed
	// over its attempts: an exact, seed-repeatable measure of kernel work.
	SimEvents uint32
	FNRate    float64
	// Attempts counts measurement attempts for this pair (1 without retry;
	// the pipeline's bounded-retry wrapper sets higher values).
	Attempts int
	// IDs and Times are the raw observed IP-ID samples, nil where the caller
	// did not keep them (MeasurePairIsolated's samples argument).
	IDs   []uint16
	Times []float64
}

// String implements fmt.Stringer.
func (r PairResult) String() string {
	return fmt.Sprintf("%v -> %v:%d: %v (usable=%v)", r.VVP, r.TNode.Addr, r.TNode.Port, r.Outcome, r.Usable)
}

// arena is the memory one measurement works in, reused from pair to pair:
// the simulator, host clones and closed view of an isolated measurement
// (netsim.Arena, which the scans share), the sample buffers the client's
// handler appends to, and the detector's working set. Everything in it is
// reset at the start of the measurement that takes it, so nothing carries
// over between pairs; nothing in a returned PairResult points into it (IDs
// and Times, when kept, are copied out).
type arena struct {
	netsim.Arena

	// handler is the client's packet handler for the measurement in
	// progress — one closure per arena instead of one per pair. It records
	// the RSTs the vVP at vvpAddr sends back.
	handler netsim.PacketHandler
	vvpAddr netip.Addr
	ids     []uint16
	times   []float64

	// The classifier's working set: the growth series and the detector's
	// fits.
	growth []float64
	work   workspace
}

// arenas is the package's only mutable state: a free list of measurement
// arenas, so that MeasurePair and MeasurePairIsolated keep their signatures
// while every worker goroutine of every caller reuses the same few. An
// arena is owned by exactly one measurement between Get and Put.
var arenas = sync.Pool{New: func() any { return newArena() }}

// newArena returns an arena with its handler bound.
func newArena() *arena {
	a := new(arena)
	a.handler = func(sim *netsim.Sim, pkt netsim.Packet) bool {
		if pkt.Kind == tcpsim.RST && pkt.Src == a.vvpAddr {
			a.ids = append(a.ids, pkt.IPID)
			a.times = append(a.times, sim.Now())
		}
		return true
	}
	return a
}

// MeasurePair runs one Figure-3 round from the measurement client against
// the (vvp, tnode) pair, its whole probe schedule shifted offset seconds
// later in virtual time: a retry measured at a later offset sees a different
// slice of background traffic and, under fault injection, can fall outside a
// transient flap window. The client must be able to reach both hosts; its AS
// must allow source-address spoofing.
func MeasurePair(net *netsim.Network, client *netsim.Host, vvpAddr netip.Addr, tn scan.TNode, seed int64, offset float64) PairResult {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return a.measure(net, client, vvpAddr, tn, seed, offset, true)
}

// measure is MeasurePair inside arena a; the result carries a copy of the
// samples when samples is set.
func (a *arena) measure(net *netsim.Network, client *netsim.Host, vvpAddr netip.Addr, tn scan.TNode, seed int64, offset float64, samples bool) PairResult {
	s := &a.Sim
	s.Reset(net, seed)

	// Each round restarts virtual time, so absolute TCP deadlines from
	// earlier rounds must not leak in.
	if h, ok := net.HostAt(tn.Addr); ok {
		h.TCP.Reset()
	}
	if h, ok := net.HostAt(vvpAddr); ok {
		h.TCP.Reset()
	}

	a.vvpAddr, a.ids, a.times = vvpAddr, a.ids[:0], a.times[:0]
	prevHandler := client.Handler
	client.Handler = a.handler
	defer func() { client.Handler = prevHandler }()

	// The schedule is laid out in time order, so every send queues in the
	// simulator's lane (Sim.SendAt). The spoofed burst fires between the
	// pre and post windows, half an interval after the last pre probe (the
	// paper's 4.5+ε).
	const total = preProbes + postProbes
	probe := func(k int) {
		s.SendAt(offset+float64(k)*probeInterval, client, client.Addr, vvpAddr, uint16(47000+k), 443, tcpsim.SYNACK)
	}
	for k := 0; k < preProbes; k++ {
		probe(k)
	}
	burstAt := offset + (preProbes-1+0.5)*probeInterval
	for j := 0; j < spoofCount; j++ {
		s.SendAt(burstAt, client, vvpAddr, tn.Addr, uint16(48000+j), tn.Port, tcpsim.SYN)
	}
	for k := preProbes; k < total; k++ {
		probe(k)
	}
	events := s.Run(offset + total*probeInterval + rto + 5)

	res := PairResult{
		VVP:       vvpAddr,
		TNode:     tn,
		Attempts:  1,
		SimEvents: uint32(events),
	}
	if samples {
		res.IDs = append(make([]uint16, 0, len(a.ids)), a.ids...)
		res.Times = append(make([]float64, 0, len(a.times)), a.times...)
	}
	a.classify(&res)
	return res
}

// MeasurePairIsolated runs one Figure-3 round inside an isolated measurement
// context: the client, vVP and tNode hosts are replaced by fresh clones (via
// a network overlay) whose state derives only from seed, and the shared
// network is consulted read-only. The result is therefore a pure function of
// (network wiring, pair, seed) — independent of any earlier rounds and of
// the order or concurrency in which rounds execute. This is the primitive
// beneath the deterministic parallel pair-measurement executor. The result
// carries the raw samples only when samples is set: a round that keeps just
// the verdicts never copies them out of the arena. offset is MeasurePair's.
func MeasurePairIsolated(net *netsim.Network, client *netsim.Host, vvpAddr netip.Addr, tn scan.TNode, seed int64, offset float64, samples bool) PairResult {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return a.measureIsolated(net, client, vvpAddr, tn, seed, offset, samples)
}

// measureIsolated is MeasurePairIsolated inside arena a.
func (a *arena) measureIsolated(net *netsim.Network, client *netsim.Host, vvpAddr netip.Addr, tn scan.TNode, seed int64, offset float64, samples bool) PairResult {
	// Clone applies the network's armed per-measurement perturbations
	// (counter resets); on a clean network it is exactly Host.CloneInto.
	a.Isolate(net)
	client = a.Clone(client, seedmix.Mix(seed, 1))
	if h, ok := net.HostAt(vvpAddr); ok {
		a.Clone(h, seedmix.Mix(seed, 2))
	}
	// A tNode with a global counter can itself qualify as a vVP, so the two
	// roles may share one address; clone it once. A tNode that is only a
	// tNode sends no background traffic: its IP-ID counter is read by
	// nothing the pair records (its SYN-ACKs go to the vVP, whose automaton
	// ignores the field), and its rng draws that background and nothing
	// else, so simulating it would change no result.
	if h, ok := net.HostAt(tn.Addr); ok && tn.Addr != vvpAddr {
		c := a.Clone(h, seedmix.Mix(seed, 3))
		c.BackgroundRate, c.BackgroundFn = 0, nil
	}
	return a.measure(a.View(), client, vvpAddr, tn, seedmix.Mix(seed, 4), offset, samples)
}

// classify applies the Appendix-A detector and the Figure-2/3 decision
// rules to the IP-ID samples recorded in the arena.
func (a *arena) classify(r *PairResult) {
	if len(a.ids) != preProbes+postProbes {
		// Lost probes (path trouble toward the vVP itself): no inference.
		r.Outcome = Inconclusive
		r.Usable = false
		return
	}
	a.growth = appendGrowth(a.growth[:0], a.ids)
	pre := a.growth[:preProbes-1]
	post := a.growth[preProbes-1:]

	out := a.work.detect(pre, post)
	r.Usable = out.usable
	r.FNRate = out.fnRate
	if !out.usable {
		r.Outcome = Inconclusive
		return
	}

	// Post-growth index k spans samples (pre-1+k, pre+k); the burst falls
	// inside index 0, and the RTO echo arrives rto later.
	const rtoIdx = int(rto / probeInterval)
	injection, echo, stray := false, false, false
	for _, sp := range out.spikes {
		switch {
		case sp.index <= 1:
			injection = true
		case abs(sp.index-rtoIdx) <= 1 || abs(sp.index-rtoIdx-1) <= 1:
			echo = true
		default:
			stray = true
		}
	}
	switch {
	case injection && echo:
		r.Outcome = OutboundFiltering
	case injection && !stray:
		r.Outcome = NoFiltering
	case !injection && !echo && !stray:
		r.Outcome = InboundFiltering
	default:
		r.Outcome = Inconclusive
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
