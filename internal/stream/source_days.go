package stream

import (
	"context"
	"time"
)

// DaySource is the day clock: it emits one day message per measurement
// round, so the world's own schedule (ROA issuance, ROV deployment,
// misconfigured announcements) drives rounds through the same sink a live
// event stream does. Round r advances to day r×Interval, clamped at LastDay
// — the world is static past the end of its timeline, so later rounds
// re-measure its final state. It feeds the sink directly: the transforms
// batch and filter route events and know nothing of day messages.
type DaySource struct {
	// Start is the first round's index; Count the number of rounds.
	Start, Count int
	// Interval is the number of simulated days between rounds (0 measures
	// the same day again: a zero-churn round).
	Interval int
	// LastDay is the end of the world's timeline (WorldConfig.Days).
	LastDay int
	// Period is the wall-clock pause before each round (0 = continuous).
	Period time.Duration
}

func (s *DaySource) Name() string { return "days" }

func (s *DaySource) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	for r := s.Start; r < s.Start+s.Count; r++ {
		if s.Period > 0 {
			if err := sleep(ctx, s.Period); err != nil {
				return err
			}
		}
		if err := send(ctx, out, Msg{Seq: uint64(r), Advance: true, Day: min(r*s.Interval, s.LastDay)}); err != nil {
			return err
		}
	}
	return nil
}
