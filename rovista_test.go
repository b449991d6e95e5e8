package rovista

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/netsec-lab/rovista/internal/experiments"
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
	sink := &LiveSink{W: w, Runner: NewRunner(w, DefaultRunnerConfig(1))}
	snap, err := sink.Round()
	if err != nil || sink.Healthy() != nil {
		t.Fatalf("round: %v, health %v", err, sink.Healthy())
	}
	scores := snap.Scores()
	if len(scores) == 0 {
		t.Fatal("no scores via public API")
	}
	for asn, s := range scores {
		if s < 0 || s > 100 {
			t.Fatalf("%v score %v out of range", asn, s)
		}
	}
	// Ground truth is reachable.
	for asn := range scores {
		if w.Truth[asn] == nil {
			t.Fatalf("no ground truth for %v", asn)
		}
	}
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

// TestRunExperimentDispatch: cmd/experiments runs from experiments.All, so
// a name there must run its experiment, an unknown name must be rejected,
// and no name may appear twice.
func TestRunExperimentDispatch(t *testing.T) {
	e, ok := experiments.Lookup("fig3")
	if !ok {
		t.Fatal("fig3 not in the registry")
	}
	var buf bytes.Buffer
	e.Run(1, &buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatalf("output = %q", buf.String())
	}
	if _, ok := experiments.Lookup("not-an-experiment"); ok {
		t.Fatal("unknown experiment found")
	}
	seen := make(map[string]bool)
	for _, e := range experiments.All {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
	}
}
