package stream

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

// ScoreDelta is one AS's score movement between two measurement rounds.
type ScoreDelta struct {
	ASN inet.ASN `json:"asn"`
	Old float64  `json:"old"`
	New float64  `json:"new"`
	// Appeared: the AS was not scorable in the previous round (Old is 0 by
	// convention). Vanished: it dropped out of this round (New is 0).
	Appeared bool `json:"appeared,omitempty"`
	Vanished bool `json:"vanished,omitempty"`
}

// Update is one round's worth of score changes, fanned out to subscribers.
type Update struct {
	Round  uint32       `json:"round"`
	Day    int          `json:"day"`
	Deltas []ScoreDelta `json:"deltas"`
	// At stamps publication, for delivery-latency measurement. Not
	// serialized.
	At time.Time `json:"-"`
}

// DiffScores renders the movement between two score maps as deltas sorted
// by ASN. Unchanged scores produce nothing.
func DiffScores(prev, cur map[inet.ASN]float64) []ScoreDelta {
	var out []ScoreDelta
	for asn, s := range cur {
		old, had := prev[asn]
		switch {
		case !had:
			out = append(out, ScoreDelta{ASN: asn, New: s, Appeared: true})
		case old != s:
			out = append(out, ScoreDelta{ASN: asn, Old: old, New: s})
		}
	}
	for asn, s := range prev {
		if _, have := cur[asn]; !have {
			out = append(out, ScoreDelta{ASN: asn, Old: s, Vanished: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// SubFilter narrows what a subscriber receives. It is the hub's grouping
// key: subscriptions with equal filters form one view and share its frames.
type SubFilter struct {
	// ASN, when nonzero, selects a single AS.
	ASN inet.ASN
	// MinDelta suppresses deltas whose |New-Old| is below the threshold
	// (appear/vanish transitions always pass: they are state changes, not
	// noise). Zero, negative and NaN all mean no threshold; Subscribe stores
	// them as zero.
	MinDelta float64
}

func (f SubFilter) match(d ScoreDelta) bool {
	if f.ASN != 0 && d.ASN != f.ASN {
		return false
	}
	if f.MinDelta > 0 && !d.Appeared && !d.Vanished {
		diff := d.New - d.Old
		if diff < 0 {
			diff = -diff
		}
		if diff < f.MinDelta {
			return false
		}
	}
	return true
}

// filter returns the deltas f lets through, in a slice of their own.
func (f SubFilter) filter(deltas []ScoreDelta) []ScoreDelta {
	var kept []ScoreDelta
	for _, d := range deltas {
		if f.match(d) {
			kept = append(kept, d)
		}
	}
	return kept
}

// Frame is one published round as one view sees it: the update with the
// view's filter applied, and its Server-Sent Events encoding. Every
// subscriber of the view receives the same *Frame, so it is read-only from
// the moment Publish builds it — Deltas may alias the publisher's slice —
// and lives until its last receiver drops it.
type Frame struct {
	Update

	once    sync.Once
	sse     []byte
	err     error
	encoded *atomic.Uint64
}

// SSE returns the frame as it goes on the wire,
//
//	id: <Round>\nevent: scores\ndata: <Update JSON>\n\n
//
// encoded by the first caller and shared, read-only, by every later one:
// the receivers pay for the JSON, not Publish, which runs inside the round.
func (f *Frame) SSE() ([]byte, error) {
	f.once.Do(f.encode)
	return f.sse, f.err
}

func (f *Frame) encode() {
	data, err := json.Marshal(f.Update)
	if err != nil {
		f.err = err
		return
	}
	b := make([]byte, 0, len("id: 4294967295\nevent: scores\ndata: \n\n")+len(data))
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, uint64(f.Round), 10)
	b = append(b, "\nevent: scores\ndata: "...)
	b = append(b, data...)
	f.sse = append(b, "\n\n"...)
	f.encoded.Add(1)
}

// Subscriber is one push-subscription: read frames from C until it closes
// (Close called on it or on the hub, or the hub evicted the subscriber for
// falling behind — Evicted tells which).
type Subscriber struct {
	C <-chan *Frame

	c       chan *Frame
	f       SubFilter
	hub     *Hub
	slot    int // index in its view
	closed  bool
	evicted bool
}

// Evicted reports whether the hub closed this subscription for falling
// behind (valid after C closes).
func (s *Subscriber) Evicted() bool {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.evicted
}

// Close detaches the subscriber; C closes. Idempotent.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if !s.closed {
		h.detach(s)
	}
}

// Hub fans score updates out to push subscribers, grouped into views by
// filter: a round is filtered once per view and every subscriber of the view
// is handed the same Frame, so a Publish costs views × deltas + subscribers.
// Publish never blocks on a subscriber: each subscription has a bounded
// buffer, and a subscriber whose buffer is full when a frame arrives is
// evicted (its channel closes) rather than allowed to stall the round loop —
// the same slow-consumer policy every production fan-out uses.
type Hub struct {
	mu sync.Mutex
	// views holds the live subscriptions by filter; a view that loses its
	// last subscriber is deleted.
	views map[SubFilter]*view

	// Published counts Publish calls; Delivered counts per-subscriber
	// enqueues and Encoded the frames that were encoded for them (Delivered
	// / Encoded is the fan-out each encoding served); Evictions counts
	// slow-subscriber evictions; Subscribers is the live-subscription gauge.
	Published   atomic.Uint64
	Delivered   atomic.Uint64
	Encoded     atomic.Uint64
	Evictions   atomic.Uint64
	Subscribers atomic.Int64
}

// view is the subscriptions that share one filter, each at subs[s.slot].
type view struct {
	subs []*Subscriber
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{views: make(map[SubFilter]*view)}
}

// Subscribe attaches a subscription with the given filter and buffer
// capacity (<=0 selects 16).
func (h *Hub) Subscribe(f SubFilter, buf int) *Subscriber {
	if buf <= 0 {
		buf = 16
	}
	if !(f.MinDelta > 0) {
		f.MinDelta = 0 // one key per meaning; a NaN key could never be found again
	}
	s := &Subscriber{f: f, hub: h, c: make(chan *Frame, buf)}
	s.C = s.c
	h.mu.Lock()
	v := h.views[f]
	if v == nil {
		v = &view{}
		h.views[f] = v
	}
	s.slot = len(v.subs)
	v.subs = append(v.subs, s)
	h.mu.Unlock()
	h.Subscribers.Add(1)
	return s
}

// detach removes s from its view and closes its channel. The caller holds
// h.mu, which also orders the close after every send (all sends happen in
// Publish, under the lock).
func (h *Hub) detach(s *Subscriber) {
	s.closed = true
	v := h.views[s.f]
	last := len(v.subs) - 1
	v.subs[s.slot] = v.subs[last] // the last subscriber takes the freed slot
	v.subs[s.slot].slot = s.slot
	v.subs[last] = nil
	v.subs = v.subs[:last]
	if last == 0 {
		delete(h.views, s.f)
	}
	close(s.c)
	h.Subscribers.Add(-1)
}

// Publish delivers u to every view whose filter matches at least one delta
// (the unfiltered view takes every update), evicting subscribers whose
// buffers are full.
func (h *Hub) Publish(u Update) {
	h.Published.Add(1)
	if u.At.IsZero() {
		u.At = time.Now()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for f, v := range h.views {
		deltas := u.Deltas
		if f != (SubFilter{}) {
			if deltas = f.filter(deltas); len(deltas) == 0 {
				continue
			}
		}
		frame := &Frame{Update: u, encoded: &h.Encoded}
		frame.Deltas = deltas
		// Downwards: an eviction refills slot i with a subscriber already served.
		for i := len(v.subs) - 1; i >= 0; i-- {
			s := v.subs[i]
			select {
			case s.c <- frame:
				h.Delivered.Add(1)
			default: // buffer full: a slow subscriber is evicted, not waited for
				s.evicted = true
				h.detach(s)
				h.Evictions.Add(1)
			}
		}
	}
}

// Close detaches every subscriber (their channels close, none marked
// evicted). Idempotent; the hub can keep accepting Subscribe/Publish
// afterwards, so it doubles as a "disconnect everyone" control.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, v := range h.views {
		for len(v.subs) > 0 {
			h.detach(v.subs[len(v.subs)-1])
		}
	}
}

// WriteMetrics reports the hub counters (/metrics' stream_hub section).
func (h *Hub) WriteMetrics(w *telemetry.Writer) {
	w.Uint("published", h.Published.Load())
	w.Uint("delivered", h.Delivered.Load())
	w.Uint("encoded", h.Encoded.Load())
	w.Uint("evictions", h.Evictions.Load())
	w.Int("subscribers", h.Subscribers.Load())
}
