// Package stream is the streaming-ingest subsystem: a bgpipe-style stage
// pipeline that feeds the incremental convergence and scoring engines a
// continuous stream of routing and RPKI changes instead of batch snapshots.
//
// The unit of flow is a Msg carrying a batch of bgp.RouteEvents, a
// replacement VRP snapshot (an RTR delta sync), or a day advance of the
// world's own schedule. Stages — sources that produce Msgs (MRT replay, RTR
// polling, a deterministic synthetic churn generator, the day clock), a
// transform that coalesces them, and sinks that apply them to a live
// world — implement one interface and are composed by a Pipeline
// that wires them with bounded channels, per-edge counters, and clean
// cancellation semantics.
//
// The design mirrors bgpipe's taxonomy (read-mrt/ris-live sources,
// grep/limit transforms, websocket sinks) scaled down to this repository's
// vocabulary: the sink's output is not a byte stream but an incremental
// measurement round plus a fan-out of score deltas to push subscribers.
package stream

import (
	"context"
	"net/netip"
	"sort"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// Msg is the unit flowing between stages: a batch of route events pinned to
// a position on the stream's virtual clock, (for RPKI delta sources) a
// replacement VRP snapshot plus the roa-change events that re-validate the
// affected prefixes, or (from a DaySource) a day advance.
type Msg struct {
	// Seq is the message's sequence number within its producing stage.
	Seq uint64
	// Time is the message's position on the stream's virtual clock, in
	// seconds since stream start. The coalescer batches on this clock, not
	// the wall clock, so a replay is deterministic at any speed.
	Time float64
	// Events is the route-event batch (may be empty on pure VRP messages).
	Events []bgp.RouteEvent
	// VRPs, when non-nil, is a full replacement VRP snapshot from an RPKI
	// delta source. The sink installs it via World.RefreshVRPViews before
	// applying Events (which then carry the EvROAChange dirty scope).
	VRPs *rpki.VRPSet
	// Serial is the RTR serial accompanying VRPs.
	Serial uint32
	// Advance marks a day message: the sink moves the world to Day with
	// World.AdvanceTo and always measures — a day on which nothing was
	// scheduled is still a round of the longitudinal series.
	Advance bool
	Day     int
}

// Stage is one pipeline element. Sources receive a nil in channel; sinks a
// nil out channel. A stage must return when its input closes (after
// processing what it read) or when ctx is cancelled, and every send on out
// must select on ctx.Done() so a cancelled pipeline can never deadlock on a
// full channel. Returning ctx.Err() after cancellation is the clean exit;
// any other non-nil error aborts the whole pipeline.
type Stage interface {
	Name() string
	Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error
}

// send delivers m on out unless ctx is cancelled first.
func send(ctx context.Context, out chan<- Msg, m Msg) error {
	select {
	case out <- m:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleep waits d on the wall clock unless ctx is cancelled first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Origin is one (AS, prefix) origination candidate for synthetic churn.
type Origin struct {
	ASN    inet.ASN
	Prefix netip.Prefix
}

// WorldOrigins lists every (AS, prefix) origination in the world's
// topology in a deterministic order, for seeding a SynthSource.
func WorldOrigins(w *core.World) []Origin {
	var out []Origin
	for _, asn := range w.Topo.ASNs {
		for _, p := range w.Topo.Info[asn].Prefixes {
			out = append(out, Origin{ASN: asn, Prefix: p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		return out[i].Prefix.String() < out[j].Prefix.String()
	})
	return out
}
