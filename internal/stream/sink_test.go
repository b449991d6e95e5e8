package stream

import (
	"context"
	"slices"
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

// TestRunDays: the batch day loop measures day start+i×interval, clamps at
// the end of the timeline instead of failing, and fails on a negative start
// day. The Timeline it returns and the zero-interval rejection are pinned
// in core's TestRunTimeline and TestRunTimelineBadInterval.
func TestRunDays(t *testing.T) {
	cfg := core.SmallWorldConfig(11)
	cfg.Days = 40
	w, err := core.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &LiveSink{W: w, Runner: core.NewRunner(w, core.DefaultRunnerConfig(11))}
	if _, err := sink.RunDays(context.Background(), -1, 10, 2); err == nil {
		t.Error("RunDays from day -1 did not fail")
	}
	tl, err := sink.RunDays(context.Background(), 0, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tl.Days, []int{0, 20, 40}) || len(tl.Snapshots) != 3 {
		t.Fatalf("days %v, %d snapshots", tl.Days, len(tl.Snapshots))
	}
	for i, snap := range tl.Snapshots {
		if snap.Day != tl.Days[i] || len(snap.Reports) == 0 {
			t.Fatalf("round %d: day %d, %d reports", i, snap.Day, len(snap.Reports))
		}
	}
	if tl, err = sink.RunDays(context.Background(), 30, 7, 3); err != nil || !slices.Equal(tl.Days, []int{30, 37, 40}) {
		t.Fatalf("clamped days = %v (%v)", tl.Days, err)
	}
	if sink.Rounds.Load() != 6 || sink.Healthy() != nil {
		t.Fatalf("%d rounds through the sink, health %v", sink.Rounds.Load(), sink.Healthy())
	}
}

// TestRunDaysContext pins the cooperative-cancellation contract the CLI's
// -rounds mode relies on: a cancelled context stops the loop between
// rounds, the completed rounds come back with a nil error, no round is left
// half measured, and a pre-cancelled context yields an empty (not nil)
// timeline.
func TestRunDaysContext(t *testing.T) {
	cfg := core.SmallWorldConfig(11)
	cfg.Days = 30
	w, err := core.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner(w, core.DefaultRunnerConfig(11))
	sink := &LiveSink{W: w, Runner: runner}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	tl, err := sink.RunDays(pre, 0, 10, 4)
	if err != nil || tl == nil || len(tl.Snapshots) != 0 {
		t.Fatalf("pre-cancelled context: %v, %v", tl, err)
	}

	// Cancel inside the second round, as it finishes scoring.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	scored := 0
	runner.Cfg.Progress = func(stage string, done, total int) {
		if stage == core.StageScore && done == total {
			if scored++; scored == 2 {
				cancel2()
			}
		}
	}
	tl, err = sink.RunDays(ctx, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tl.Days, []int{0, 10}) || len(tl.Snapshots) != 2 || sink.Rounds.Load() != 2 {
		t.Fatalf("cancelled run kept days %v and ran %d rounds, want exactly the 2 completed", tl.Days, sink.Rounds.Load())
	}
	for i, snap := range tl.Snapshots {
		if snap.Metrics == nil || len(snap.Reports) == 0 || snap.Day != tl.Days[i] {
			t.Fatalf("round %d is incomplete", i)
		}
	}
}

// TestRunDaysReportsAFailedRound: the round monitor runs on every batch
// round too. An Archived hook that miscounts, as in
// TestLiveSinkRoundMonitor, leaves the loop's results in place and the sink
// unhealthy, which is what a batch program checks before it reports.
func TestRunDaysReportsAFailedRound(t *testing.T) {
	w, runner := buildStreamWorld(t, 11, 1)
	sink := &LiveSink{W: w, Runner: runner, Archived: func() int { return 0 }}
	tl, err := sink.RunDays(context.Background(), 0, 5, 2)
	if err != nil || len(tl.Snapshots) != 2 {
		t.Fatalf("RunDays: %d rounds, %v", len(tl.Snapshots), err)
	}
	if n := sink.InvariantViolations.Load(); n != 2 || sink.Healthy() == nil {
		t.Fatalf("%d violations over 2 rounds, health %v", n, sink.Healthy())
	}
}
