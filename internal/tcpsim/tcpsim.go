// Package tcpsim implements the minimal TCP endpoint behaviour RoVista's
// side channel depends on, as a pure state machine driven by explicit
// timestamps (the discrete-event simulator in internal/netsim supplies the
// clock and the wire).
//
// The modelled behaviour, from §4.1 of the paper:
//
//   - a SYN to an open port elicits a SYN-ACK;
//   - an unacknowledged SYN-ACK is retransmitted after the RTO (RFC 6298,
//     typically 1–3 s initial, doubling per retry);
//   - an inbound RST (or ACK) for the pending connection cancels the
//     retransmissions;
//   - a SYN to a closed port, or an unexpected SYN-ACK, elicits a RST.
//
// tNode qualification requires exactly these three properties, and the
// package also models the broken variants the scan must reject: hosts that
// never retransmit, and hosts that keep retransmitting after a RST.
package tcpsim

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
)

// Kind is the TCP segment type (only the flag combinations the measurement
// uses are modelled).
type Kind uint8

// Segment kinds.
const (
	SYN Kind = iota
	SYNACK
	ACK
	RST
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SYN:
		return "SYN"
	case SYNACK:
		return "SYN-ACK"
	case ACK:
		return "ACK"
	case RST:
		return "RST"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Segment is one TCP segment as seen by an endpoint. Peer is the remote
// address from the endpoint's point of view.
type Segment struct {
	Peer      netip.Addr
	PeerPort  uint16
	LocalPort uint16
	Kind      Kind
}

// FlowKey identifies a half-open connection.
type FlowKey struct {
	Peer      netip.Addr
	PeerPort  uint16
	LocalPort uint16
}

func key(s Segment) FlowKey {
	return FlowKey{Peer: s.Peer, PeerPort: s.PeerPort, LocalPort: s.LocalPort}
}

// RTOBehavior selects how the endpoint handles retransmission, covering the
// qualification conditions (a)–(c) from §4.1.
type RTOBehavior uint8

// Behaviours.
const (
	// Compliant retransmits on timeout and stops on RST/ACK.
	Compliant RTOBehavior = iota
	// NoRetransmit never retransmits (fails qualification condition b).
	NoRetransmit
	// IgnoreRST keeps retransmitting even after a RST (fails condition c —
	// it makes "no filtering" and "outbound filtering" indistinguishable).
	IgnoreRST
)

// Config tunes an endpoint.
type Config struct {
	// OpenPorts lists listening ports.
	OpenPorts []uint16
	// InitialRTO is the first retransmission timeout in seconds; the paper
	// observes 1–3 s with 3 s typical (RFC 6298 uses 1 s minimum).
	InitialRTO float64
	// MaxRetries bounds SYN-ACK retransmissions.
	MaxRetries int
	// Behavior selects the retransmission variant.
	Behavior RTOBehavior
	// SilentOnUnexpected suppresses the RST normally sent in response to an
	// unexpected SYN-ACK (such hosts cannot serve as vVPs).
	SilentOnUnexpected bool
	// RespondOnClosed controls whether SYNs to closed ports get a RST.
	RespondOnClosed bool
}

// DefaultConfig returns a compliant endpoint listening on the given ports.
func DefaultConfig(ports ...uint16) Config {
	return Config{
		OpenPorts:       ports,
		InitialRTO:      3.0,
		MaxRetries:      2,
		Behavior:        Compliant,
		RespondOnClosed: true,
	}
}

type pending struct {
	flow     FlowKey
	deadline float64
	retries  int
}

// Endpoint is one TCP host side. It is not safe for concurrent use.
//
// Half-open flows live in a small unordered slice of values: a measurement
// holds at most the spoofed burst (ten flows) on one endpoint, so a linear
// scan beats a map on every operation, a SYN allocates nothing, and
// NextDeadline is a pass over a few cache lines. Slice order is never
// observable: lookups are by key, NextDeadline takes a minimum, and Tick
// sorts what it emits.
type Endpoint struct {
	cfg     Config
	open    map[uint16]bool
	pending []pending
	due     []int32 // Tick scratch: indexes of due flows, sorted before emission
}

// New creates an endpoint from cfg.
func New(cfg Config) *Endpoint {
	e := &Endpoint{cfg: cfg, open: make(map[uint16]bool)}
	for _, p := range cfg.OpenPorts {
		e.open[p] = true
	}
	if e.cfg.InitialRTO <= 0 {
		e.cfg.InitialRTO = 3.0
	}
	return e
}

// find returns the index of the half-open flow k, or -1.
func (e *Endpoint) find(k FlowKey) int {
	for i := range e.pending {
		if e.pending[i].flow == k {
			return i
		}
	}
	return -1
}

// drop removes the half-open flow at index i (order is not preserved).
func (e *Endpoint) drop(i int) {
	last := len(e.pending) - 1
	e.pending[i] = e.pending[last]
	e.pending = e.pending[:last]
}

// cancel removes the half-open flow k, if present.
func (e *Endpoint) cancel(k FlowKey) {
	if i := e.find(k); i >= 0 {
		e.drop(i)
	}
}

// HandleSegment processes an inbound segment at the given time and returns
// the segment to transmit in response, if any. Every modelled behaviour
// responds with at most one segment, so the single-value shape keeps the
// per-packet path allocation-free (a slice return was one heap allocation
// per delivered packet on the measurement hot path).
func (e *Endpoint) HandleSegment(now float64, seg Segment) (Segment, bool) {
	switch seg.Kind {
	case SYN:
		if !e.open[seg.LocalPort] {
			if e.cfg.RespondOnClosed {
				return reply(seg, RST), true
			}
			return Segment{}, false
		}
		if e.cfg.Behavior != NoRetransmit {
			// A repeated SYN restarts the flow's retransmission schedule.
			p := pending{flow: key(seg), deadline: now + e.cfg.InitialRTO}
			if i := e.find(p.flow); i >= 0 {
				e.pending[i] = p
			} else {
				e.pending = append(e.pending, p)
			}
		}
		return reply(seg, SYNACK), true
	case SYNACK:
		// No modelled endpoint initiates connections, so every SYN-ACK is
		// unexpected: answer with RST unless configured silent.
		if e.cfg.SilentOnUnexpected {
			return Segment{}, false
		}
		return reply(seg, RST), true
	case RST:
		if e.cfg.Behavior != IgnoreRST {
			e.cancel(key(seg))
		}
		return Segment{}, false
	case ACK:
		e.cancel(key(seg))
		return Segment{}, false
	}
	return Segment{}, false
}

// NextDeadline returns the earliest retransmission deadline, if any.
func (e *Endpoint) NextDeadline() (float64, bool) {
	if len(e.pending) == 0 {
		return 0, false
	}
	best := e.pending[0].deadline
	for i := 1; i < len(e.pending); i++ {
		if d := e.pending[i].deadline; d < best {
			best = d
		}
	}
	return best, true
}

// Tick fires retransmissions due at or before now, appends the segments to
// transmit onto out, and returns the extended slice. Exhausted flows are
// dropped. Callers on hot paths pass a reused scratch buffer (truncated to
// length zero) so steady-state ticking never allocates.
func (e *Endpoint) Tick(now float64, out []Segment) []Segment {
	e.due = e.due[:0]
	for i := 0; i < len(e.pending); {
		switch p := &e.pending[i]; {
		case p.deadline > now:
			i++
		case p.retries >= e.cfg.MaxRetries:
			e.drop(i) // moves the last flow into slot i: examine it next
		default:
			e.due = append(e.due, int32(i))
			i++
		}
	}
	// Each retransmission draws the host's next IP-ID as it leaves — the
	// side channel the measurement observes — so same-tick flows must emit
	// in an order that depends on the flows alone, not on slice position.
	slices.SortFunc(e.due, func(i, j int32) int {
		a, b := e.pending[i].flow, e.pending[j].flow
		if c := a.Peer.Compare(b.Peer); c != 0 {
			return c
		}
		if c := cmp.Compare(a.PeerPort, b.PeerPort); c != 0 {
			return c
		}
		return cmp.Compare(a.LocalPort, b.LocalPort)
	})
	for _, i := range e.due {
		p := &e.pending[i]
		p.retries++
		// Exponential backoff per RFC 6298 §5.5.
		p.deadline = now + e.cfg.InitialRTO*float64(uint(1)<<uint(p.retries))
		out = append(out, Segment{Peer: p.flow.Peer, PeerPort: p.flow.PeerPort, LocalPort: p.flow.LocalPort, Kind: SYNACK})
	}
	return out
}

// PendingCount reports how many half-open connections are awaiting ACK.
func (e *Endpoint) PendingCount() int { return len(e.pending) }

// Reset drops all half-open connection state. Measurement harnesses call it
// between rounds that restart virtual time, since deadlines are absolute.
func (e *Endpoint) Reset() { e.pending = e.pending[:0] }

// Clone returns a fresh endpoint with the same configuration (open ports,
// RTO behaviour) and no connection state.
func (e *Endpoint) Clone() *Endpoint {
	c := new(Endpoint)
	e.CloneInto(c)
	return c
}

// CloneInto makes dst a clone of e: same configuration, no connection state.
// Whatever dst held before is discarded; its flow storage is reused. Pair
// measurements clone the endpoints of the hosts they touch so concurrent
// rounds cannot observe each other's half-open flows. The open-port set is
// written only during New, so clones share it; only the flows are per-clone.
func (e *Endpoint) CloneInto(dst *Endpoint) {
	dst.cfg = e.cfg
	dst.open = e.open
	dst.pending = dst.pending[:0]
}

// Listening reports whether the port is open.
func (e *Endpoint) Listening(port uint16) bool { return e.open[port] }

// reply builds the response segment mirroring the flow.
func reply(seg Segment, kind Kind) Segment {
	return Segment{Peer: seg.Peer, PeerPort: seg.PeerPort, LocalPort: seg.LocalPort, Kind: kind}
}
