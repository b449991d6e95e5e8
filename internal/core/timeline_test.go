package core_test

import (
	"context"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/stream"
)

// runTimeline runs the batch day loop a program uses for a timeline: n
// rounds every interval days from day 0, through the live sink.
func runTimeline(t *testing.T, w *core.World, seed int64, interval, n int) (*core.Timeline, error) {
	t.Helper()
	sink := &stream.LiveSink{W: w, Runner: core.NewRunner(w, core.DefaultRunnerConfig(seed))}
	return sink.RunDays(context.Background(), 0, interval, n)
}

// TestRunTimeline: a 40-day world measured every 20 days gives a Timeline
// of three rounds on days 0, 20 and 40 whose full-protection series is a
// percentage.
func TestRunTimeline(t *testing.T) {
	cfg := core.SmallWorldConfig(11)
	cfg.Days = 40
	w, err := core.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := runTimeline(t, w, 11, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tl.Days, []int{0, 20, 40}) || len(tl.Snapshots) != 3 {
		t.Fatalf("days %v, %d snapshots", tl.Days, len(tl.Snapshots))
	}
	days, pct := tl.FullProtectionSeries()
	if len(days) == 0 {
		t.Fatal("no full-protection series")
	}
	for _, p := range pct {
		if p < 0 || p > 100 {
			t.Fatalf("pct = %v", p)
		}
	}
}

// TestRunTimelineBadInterval: a zero day interval is an error, not an
// endless loop over one day.
func TestRunTimelineBadInterval(t *testing.T) {
	w, err := core.BuildWorld(core.SmallWorldConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runTimeline(t, w, 12, 0, 2); err == nil {
		t.Fatal("expected error for zero interval")
	}
}
