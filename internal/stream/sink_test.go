package stream

import (
	"context"
	"testing"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// TestCheckRound: each of the round monitor's checks fails on its own.
func TestCheckRound(t *testing.T) {
	good := pipeline.Metrics{PairsMeasured: 10, PairsUsable: 7, PairsDiscarded: 3, PairsReused: 6, PairsRemeasured: 4}
	for _, c := range []struct {
		name          string
		edit          func(*pipeline.Metrics)
		before, after int
		fails         bool
	}{
		{"sound", func(*pipeline.Metrics) {}, 4, 5, false},
		{"no archive hook", func(*pipeline.Metrics) {}, -1, -1, false},
		{"usable+discarded", func(m *pipeline.Metrics) { m.PairsDiscarded++ }, 4, 5, true},
		{"reused+remeasured", func(m *pipeline.Metrics) { m.PairsReused-- }, 4, 5, true},
		{"nothing archived", func(*pipeline.Metrics) {}, 5, 5, true},
		{"two archived", func(*pipeline.Metrics) {}, 5, 7, true},
	} {
		m := good
		c.edit(&m)
		if err := checkRound(&core.Snapshot{Metrics: &m}, c.before, c.after); (err != nil) != c.fails {
			t.Errorf("%s: checkRound = %v, want failure %v", c.name, err, c.fails)
		}
	}
}

// TestLiveSinkRoundMonitor: a sink whose Append archives each round stays
// healthy; one whose Append archives nothing counts every round as a
// violation and reports itself unhealthy.
func TestLiveSinkRoundMonitor(t *testing.T) {
	w, runner := buildStreamWorld(t, 11, 1)
	for _, archives := range []bool{true, false} {
		n := 0
		sink := &LiveSink{W: w, Runner: runner, Archived: func() int { return n }}
		sink.Append = func(*core.Snapshot) error {
			if archives {
				n++
			}
			return nil
		}
		src := &SynthSource{Seed: 11, Origins: WorldOrigins(w), Rate: 10, Count: 10}
		if err := NewPipeline(8, src, &CoalesceStage{Window: 2}, sink).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		rounds, violations := sink.Rounds.Load(), sink.InvariantViolations.Load()
		switch {
		case rounds == 0:
			t.Fatal("sink measured no rounds")
		case archives && (violations != 0 || sink.Healthy() != nil):
			t.Errorf("archiving sink: %d violations over %d rounds (%v)", violations, rounds, sink.Healthy())
		case !archives && (violations != rounds || sink.Healthy() == nil):
			t.Errorf("non-archiving sink: %d violations over %d rounds (%v)", violations, rounds, sink.Healthy())
		}
	}
}
