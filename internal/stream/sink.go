package stream

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

// LiveSink terminates the pipeline at the live world and is the one place a
// measurement round happens: each incoming message — a (coalesced) event
// batch, a VRP replacement or a day advance — is installed with World.Apply,
// an incremental measurement round re-scores what it moved, the snapshot is
// persisted, and the score movement fans out to push subscribers. All of it
// happens under Mu, so a round never interleaves with the daemon's other
// user of the world (a /v1/whatif overlay fork). Batch programs drive the
// same round without a pipeline: RunDays for a day series, Apply and Round
// for anything else (a campaign applies several messages per round).
type LiveSink struct {
	W      *core.World
	Runner *core.Runner
	// Mu, when set, serializes rounds against the daemon's other world
	// users (rovistad passes its worldMu).
	Mu *sync.Mutex
	// Append, when set, persists each round's snapshot (rovistad appends
	// to the store, which publishes a new read view).
	Append func(*core.Snapshot) error
	// Hub, when set, receives the score deltas of each round.
	Hub *Hub
	// OnRound, when set, observes each round's snapshot (after Append).
	OnRound func(*core.Snapshot)
	// FullEvery, when positive, forces a from-scratch round at every round
	// index divisible by it, so a stale reused result (which the
	// equivalence tests say cannot exist) could never persist in the
	// archive for more than FullEvery-1 rounds.
	FullEvery int
	// Archived, when set, returns how many rounds the archive holds; the
	// round monitor then also checks that each Append archived exactly one.
	Archived func() int

	// Batches/EventsApplied/Rounds/DeltasPublished are the sink's live
	// counters, readable while the pipeline runs. InvariantViolations
	// counts the rounds that failed the round monitor (checkRound).
	Batches             atomic.Uint64
	EventsApplied       atomic.Uint64
	Rounds              atomic.Uint64
	DeltasPublished     atomic.Uint64
	InvariantViolations atomic.Uint64

	prev  map[inet.ASN]float64
	round uint32
}

// SeedScores primes the sink with the archive it continues — round rounds
// archived, the latest one's scores — so the next round publishes movement
// rather than an "every AS appeared" flood and an update's Round (the SSE
// id) is the 1-based index of the archived round it describes, across
// restarts. Call before the pipeline starts; not safe concurrently with Run.
func (s *LiveSink) SeedScores(round uint32, scores map[inet.ASN]float64) {
	s.round = round
	s.prev = scores
}

func (s *LiveSink) Name() string { return "live-sink" }

func (s *LiveSink) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	for {
		select {
		case m, ok := <-in:
			if !ok {
				return nil
			}
			if _, err := s.step(m); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// step installs one message and runs one measurement round, both under Mu;
// a day message always measures, even when nothing was scheduled that day.
// It returns nil for a message that carries nothing.
func (s *LiveSink) step(m Msg) (*core.Snapshot, error) {
	if len(m.Events) == 0 && m.VRPs == nil && !m.Advance {
		return nil, nil // nothing to do
	}
	if s.Mu != nil {
		s.Mu.Lock()
		defer s.Mu.Unlock()
	}
	if err := s.Apply(m); err != nil {
		return nil, err
	}
	return s.Round()
}

// Apply installs one message with World.Apply and counts it. It does not
// take Mu: Run holds it across Apply and Round, and a caller that shares the
// world with another goroutine must too.
func (s *LiveSink) Apply(m Msg) error {
	if err := s.W.Apply(m); err != nil {
		return err
	}
	s.Batches.Add(1)
	s.EventsApplied.Add(uint64(len(m.Events)))
	return nil
}

// Round runs one measurement round on the world as the messages applied so
// far left it: the FullEvery force, Measure, Append, the score diff and its
// publication, OnRound and the round monitor, in that order. It returns the
// round's snapshot. A round that fails the monitor is counted (Healthy), not
// returned as an error, so a live pipeline keeps measuring. Like Apply, it
// does not take Mu.
func (s *LiveSink) Round() (*core.Snapshot, error) {
	if s.FullEvery > 0 && s.round > 0 && int(s.round)%s.FullEvery == 0 {
		s.Runner.ForceFullRound()
	}
	snap := s.Runner.Measure()
	s.Rounds.Add(1)
	s.round++
	archived := s.archived()
	if s.Append != nil {
		if err := s.Append(snap); err != nil {
			return nil, err
		}
	}
	cur := snap.Scores()
	deltas := DiffScores(s.prev, cur)
	s.prev = cur
	if s.Hub != nil && len(deltas) > 0 {
		s.Hub.Publish(Update{Round: s.round, Day: snap.Day, Deltas: deltas})
		s.DeltasPublished.Add(uint64(len(deltas)))
	}
	if s.OnRound != nil {
		s.OnRound(snap)
	}
	if err := checkRound(snap, archived, s.archived()); err != nil && s.InvariantViolations.Add(1) == 1 {
		log.Printf("stream: round %d failed the round monitor: %v", s.round, err)
	}
	return snap, nil
}

// RunDays is the batch day loop: n rounds, round i a day message for day
// start+i×interval, clamped at the end of the world's timeline (later
// rounds re-measure the final day, which the world holds static). It is a
// DaySource feeding the sink, without the goroutines and from any start
// day. ctx is checked between rounds: a round, once started, runs to
// completion, so on cancellation the completed rounds come back with a nil
// error — valid results a caller flushes, not collateral of the interrupt.
func (s *LiveSink) RunDays(ctx context.Context, start, interval, n int) (*core.Timeline, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("stream: non-positive day interval %d", interval)
	}
	tl := &core.Timeline{}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		day := min(start+i*interval, s.W.Cfg.Days)
		snap, err := s.step(Msg{Advance: true, Day: day})
		if err != nil {
			return nil, err
		}
		tl.Days = append(tl.Days, day)
		tl.Snapshots = append(tl.Snapshots, snap)
	}
	return tl, nil
}

// checkRound is the live-round monitor: the O(1) accounting sums the
// round tests pin, checked on every round the sink runs, as published.
// before and after are the archive's round counts around Append, -1 when
// the sink has no Archived hook.
func checkRound(snap *core.Snapshot, before, after int) error {
	m := snap.Metrics
	if m.PairsUsable+m.PairsDiscarded != m.PairsMeasured {
		return fmt.Errorf("pairs usable %d + discarded %d != measured %d", m.PairsUsable, m.PairsDiscarded, m.PairsMeasured)
	}
	if m.PairsReused+m.PairsRemeasured != m.PairsMeasured {
		return fmt.Errorf("pairs reused %d + re-measured %d != measured %d", m.PairsReused, m.PairsRemeasured, m.PairsMeasured)
	}
	if before >= 0 && after != before+1 {
		return fmt.Errorf("the archive went from %d to %d rounds on one append", before, after)
	}
	return nil
}

// archived returns the archive's round count, -1 without an Archived hook.
func (s *LiveSink) archived() int {
	if s.Archived == nil {
		return -1
	}
	return s.Archived()
}

// Healthy reports an error once any round has failed the round monitor.
func (s *LiveSink) Healthy() error {
	if n := s.InvariantViolations.Load(); n > 0 {
		return fmt.Errorf("%d rounds failed the round monitor", n)
	}
	return nil
}

// WriteMetrics reports the sink counters (/metrics' stream_sink section).
func (s *LiveSink) WriteMetrics(w *telemetry.Writer) {
	w.Uint("batches", s.Batches.Load())
	w.Uint("events_applied", s.EventsApplied.Load())
	w.Uint("rounds", s.Rounds.Load())
	w.Uint("deltas_published", s.DeltasPublished.Load())
	w.Uint("invariant_violations", s.InvariantViolations.Load())
}
