package stream

import (
	"context"
	"fmt"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// SynthSource is the deterministic live-churn generator: a seeded stream
// of announce/withdraw flaps over a fixed origination candidate set. Event
// i toggles candidate mix(seed, i) mod len(Origins) — an active origination
// withdraws, an inactive one re-announces — so the event sequence, and
// therefore every score timeline downstream, is a pure function of (Seed,
// Origins, Rate). Wall pacing (Interval) only stretches delivery time; the
// virtual clock the coalescer batches on is i/Rate regardless.
type SynthSource struct {
	Seed    int64
	Origins []Origin
	// Rate positions events on the virtual clock at Rate events per virtual
	// second (default 100).
	Rate float64
	// Count bounds the stream (0 = unbounded; the pipeline then runs until
	// cancelled).
	Count int
	// Interval is the wall-clock pacing between events (0 = flat out).
	Interval time.Duration
}

func (s *SynthSource) Name() string { return "synth" }

func (s *SynthSource) rate() float64 {
	if s.Rate <= 0 {
		return 100
	}
	return s.Rate
}

// msg builds message i, mutating the active-state vector (all origins
// start active: they exist in the topology). Plan and Run both call it, so
// the reference cannot drift from the stream.
func (s *SynthSource) msg(i int, withdrawn []bool) Msg {
	j := int(uint64(seedmix.Mix(s.Seed, int64(i))) % uint64(len(s.Origins)))
	o := s.Origins[j]
	kind := bgp.EvWithdraw
	if withdrawn[j] {
		kind = bgp.EvAnnounce
	}
	withdrawn[j] = !withdrawn[j]
	return Msg{
		Seq:    uint64(i),
		Time:   float64(i) / s.rate(),
		Events: []bgp.RouteEvent{{Kind: kind, AS: o.ASN, Prefix: o.Prefix}},
	}
}

// Plan returns the first n messages of the stream — the same sequence Run
// emits — for tests and for the direct-apply reference path.
func (s *SynthSource) Plan(n int) []Msg {
	withdrawn := make([]bool, len(s.Origins))
	out := make([]Msg, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.msg(i, withdrawn))
	}
	return out
}

func (s *SynthSource) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	if len(s.Origins) == 0 {
		return fmt.Errorf("stream: synth source has no origins")
	}
	withdrawn := make([]bool, len(s.Origins))
	for i := 0; s.Count == 0 || i < s.Count; i++ {
		if s.Interval > 0 && i > 0 {
			if err := sleep(ctx, s.Interval); err != nil {
				return err
			}
		}
		if err := send(ctx, out, s.msg(i, withdrawn)); err != nil {
			return err
		}
	}
	return nil
}
