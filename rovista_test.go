package rovista

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The public API must support the full documented workflow without touching
// internal packages.
func TestPublicAPIWorkflow(t *testing.T) {
	w, err := BuildWorld(SmallWorldConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(w, DefaultRunnerConfig(1))
	snap := runner.Measure()
	scores := snap.Scores()
	if len(scores) == 0 {
		t.Fatal("no scores via public API")
	}
	for asn, s := range scores {
		if s < 0 || s > 100 {
			t.Fatalf("%v score %v out of range", asn, s)
		}
	}
	cdf := ScoreCDF(scores)
	if len(cdf) != 101 || cdf[len(cdf)-1].Frac < 0.999 {
		t.Fatalf("CDF malformed: %d points", len(cdf))
	}
	// Ground truth and analysis surfaces are reachable.
	for asn := range scores {
		if w.Truth[asn] == nil {
			t.Fatalf("no ground truth for %v", asn)
		}
	}
	_ = DetectCollateralDamage(w, snap, 90)
}

func TestPublicAPITimeline(t *testing.T) {
	cfg := SmallWorldConfig(2)
	cfg.Days = 40
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &LiveSink{W: w, Runner: NewRunner(w, DefaultRunnerConfig(2))}
	tl, err := sink.RunDays(context.Background(), 0, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Snapshots) != 3 || sink.Healthy() != nil {
		t.Fatalf("snapshots = %d, health %v", len(tl.Snapshots), sink.Healthy())
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	var buf bytes.Buffer
	if !RunExperiment("fig3", 1, &buf) {
		t.Fatal("fig3 not dispatched")
	}
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatalf("output = %q", buf.String())
	}
	if RunExperiment("not-an-experiment", 1, &buf) {
		t.Fatal("unknown experiment dispatched")
	}
}
