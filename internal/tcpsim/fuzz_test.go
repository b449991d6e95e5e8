package tcpsim

import (
	"net/netip"
	"slices"
	"sort"
	"testing"
)

// automaton is what a script drives: the Endpoint, or its reference model.
type automaton interface {
	HandleSegment(now float64, seg Segment) (Segment, bool)
	Tick(now float64, out []Segment) []Segment
	NextDeadline() (float64, bool)
	PendingCount() int
	Reset()
}

// refEndpoint is the map-of-pointers endpoint the slice-backed Endpoint
// replaced, kept as the reference model the fuzzer compares it against.
type refEndpoint struct {
	cfg     Config
	open    map[uint16]bool
	pending map[FlowKey]*pending
}

func newRefEndpoint(cfg Config) *refEndpoint {
	e := &refEndpoint{cfg: cfg, open: make(map[uint16]bool), pending: make(map[FlowKey]*pending)}
	for _, p := range cfg.OpenPorts {
		e.open[p] = true
	}
	if e.cfg.InitialRTO <= 0 {
		e.cfg.InitialRTO = 3.0
	}
	return e
}

func (e *refEndpoint) HandleSegment(now float64, seg Segment) (Segment, bool) {
	switch seg.Kind {
	case SYN:
		if !e.open[seg.LocalPort] {
			if e.cfg.RespondOnClosed {
				return reply(seg, RST), true
			}
			return Segment{}, false
		}
		k := key(seg)
		if e.cfg.Behavior != NoRetransmit {
			e.pending[k] = &pending{flow: k, deadline: now + e.cfg.InitialRTO}
		}
		return reply(seg, SYNACK), true
	case SYNACK:
		if e.cfg.SilentOnUnexpected {
			return Segment{}, false
		}
		return reply(seg, RST), true
	case RST:
		if e.cfg.Behavior != IgnoreRST {
			delete(e.pending, key(seg))
		}
	case ACK:
		delete(e.pending, key(seg))
	}
	return Segment{}, false
}

func (e *refEndpoint) NextDeadline() (float64, bool) {
	best, found := 0.0, false
	for _, p := range e.pending {
		if !found || p.deadline < best {
			best, found = p.deadline, true
		}
	}
	return best, found
}

func (e *refEndpoint) Tick(now float64, out []Segment) []Segment {
	var due []*pending
	for k, p := range e.pending {
		if p.deadline > now {
			continue
		}
		if p.retries >= e.cfg.MaxRetries {
			delete(e.pending, k)
			continue
		}
		due = append(due, p)
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i].flow, due[j].flow
		if c := a.Peer.Compare(b.Peer); c != 0 {
			return c < 0
		}
		if a.PeerPort != b.PeerPort {
			return a.PeerPort < b.PeerPort
		}
		return a.LocalPort < b.LocalPort
	})
	for _, p := range due {
		p.retries++
		p.deadline = now + e.cfg.InitialRTO*float64(uint(1)<<uint(p.retries))
		out = append(out, Segment{Peer: p.flow.Peer, PeerPort: p.flow.PeerPort, LocalPort: p.flow.LocalPort, Kind: SYNACK})
	}
	return out
}

func (e *refEndpoint) PendingCount() int { return len(e.pending) }
func (e *refEndpoint) Reset()            { e.pending = make(map[FlowKey]*pending) }

// flowState is the automaton's externally visible bookkeeping after one op.
type flowState struct {
	pending  int
	deadline float64
	armed    bool
}

// driveScript interprets fuzz bytes as a segment/tick script against an
// automaton and returns a trace of every emitted segment (retransmissions
// in the order Tick emitted them) and the bookkeeping after every op. Two
// bytes per op: the first selects the action and flow, the second perturbs
// ports/time.
func driveScript(e automaton, data []byte) ([]Segment, []flowState) {
	var trace []Segment
	var states []flowState
	now := 0.0
	var out []Segment
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		seg := Segment{
			Peer:      netip.AddrFrom4([4]byte{10, 0, arg & 3, op & 7}),
			PeerPort:  40000 + uint16(arg&15),
			LocalPort: []uint16{443, 80, 7, 40000}[op>>6],
			Kind:      Kind(op & 3),
		}
		switch (op >> 3) & 3 {
		case 0, 1: // deliver a segment
			if reply, ok := e.HandleSegment(now, seg); ok {
				trace = append(trace, reply)
			}
		case 2: // advance time and collect retransmissions
			now += float64(arg&7) + 0.5
			out = e.Tick(now, out[:0])
			trace = append(trace, out...)
		case 3: // reset mid-script
			if arg == 0xff {
				e.Reset()
			} else if reply, ok := e.HandleSegment(now, seg); ok {
				trace = append(trace, reply)
			}
		}
		if e.PendingCount() < 0 {
			panic("negative pending count")
		}
		d, ok := e.NextDeadline()
		states = append(states, flowState{e.PendingCount(), d, ok})
	}
	return trace, states
}

// FuzzHandleSegment throws arbitrary segment/tick scripts at endpoints of
// every behaviour variant and checks structural invariants: no panics, the
// pending-set bookkeeping stays consistent with NextDeadline, the
// slice-backed flow table agrees with the map-backed reference model op for
// op (replies, Tick's emission order, pending count, next deadline), and
// replaying the identical script on a fresh endpoint, or on one cloned into
// used storage, reproduces the identical trace (the determinism the
// measurement pipeline's seeding contract rests on).
func FuzzHandleSegment(f *testing.F) {
	f.Add([]byte{0x00, 0x01}, uint8(0), false, false)
	f.Add([]byte{0x01, 0x02, 0x10, 0x03, 0x01, 0x04}, uint8(1), true, false)
	f.Add([]byte{0x41, 0xaa, 0x18, 0xff, 0x02, 0x00, 0x13, 0x07}, uint8(2), false, true)
	f.Add([]byte{0xc1, 0x01, 0x81, 0x02, 0x11, 0x06, 0x19, 0xff}, uint8(0), true, true)
	f.Fuzz(func(t *testing.T, data []byte, behavior uint8, silent, respondClosed bool) {
		cfg := DefaultConfig(443, 80)
		cfg.Behavior = RTOBehavior(behavior % 3)
		cfg.SilentOnUnexpected = silent
		cfg.RespondOnClosed = respondClosed
		cfg.MaxRetries = int(behavior % 4)

		e := New(cfg)
		trace, states := driveScript(e, data)

		refTrace, refStates := driveScript(newRefEndpoint(cfg), data)
		if !slices.Equal(trace, refTrace) {
			t.Fatalf("emitted segments differ from the reference model:\n got %+v\n ref %+v", trace, refTrace)
		}
		if !slices.Equal(states, refStates) {
			t.Fatalf("pending count / next deadline differ from the reference model:\n got %+v\n ref %+v", states, refStates)
		}

		if _, ok := e.NextDeadline(); ok && e.PendingCount() == 0 {
			t.Fatal("NextDeadline reports a deadline with no pending flows")
		}
		if e.PendingCount() > 0 {
			if _, ok := e.NextDeadline(); !ok {
				t.Fatal("pending flows but no deadline")
			}
		}

		// Determinism: a fresh endpoint fed the same script must emit the
		// same trace, and a clone taken up front must behave like the
		// original without sharing state.
		if replay, _ := driveScript(New(cfg), data); !slices.Equal(replay, trace) {
			t.Fatalf("replay diverged:\n got  %+v\n want %+v", replay, trace)
		}
		// e now holds whatever the script left; cloning into it must give a
		// clean endpoint all the same.
		New(cfg).CloneInto(e)
		if e.PendingCount() != 0 {
			t.Fatal("CloneInto kept half-open flows of the target")
		}
		if reused, _ := driveScript(e, data); !slices.Equal(reused, trace) {
			t.Fatalf("endpoint cloned into used storage diverged:\n got  %+v\n want %+v", reused, trace)
		}

		clone := New(cfg)
		cl := clone.Clone()
		driveScript(cl, data)
		if clone.PendingCount() != 0 {
			t.Fatal("driving a clone mutated its source endpoint")
		}
	})
}
