package core

import (
	"context"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/scan"
)

func TestScoreSeriesAndJumpEvents(t *testing.T) {
	cfg := SmallWorldConfig(33)
	cfg.Days = 60
	cfg.CoveredInvalidAnnouncements = 0 // clean 0 -> 100 jumps
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Script one deterministic deployment mid-timeline on a never-filtering
	// AS that currently reaches the invalid prefixes, and make sure it is
	// observable.
	var subject inet.ASN
	for _, asn := range w.Topo.ASNs {
		if w.Clean[asn] && asn != w.ClientA.ASN && asn != w.ClientB.ASN {
			isOrigin := false
			for _, inv := range w.Invalids {
				if inv.Origin == asn {
					isOrigin = true
				}
			}
			if !isOrigin {
				subject = asn
				break
			}
		}
	}
	if subject == 0 {
		t.Skip("no clean subject at this seed")
	}
	w.Truth[subject].Policy = rov.Full()
	w.Truth[subject].Kind = "full"
	w.Truth[subject].DeployDay = 30
	w.Truth[subject].RollbackDay = 0
	w.AddCandidateHosts(subject, 3)

	r := NewRunner(w, DefaultRunnerConfig(33))
	tl, err := r.RunTimeline(15) // days 0, 15, 30, 45, 60
	if err != nil {
		t.Fatal(err)
	}
	days, scores := tl.ScoreSeries(subject)
	if len(days) == 0 {
		t.Fatal("subject never scored")
	}
	// Low before day 30, high at/after.
	for i, d := range days {
		if d < 30 && scores[i] > 50 {
			t.Fatalf("day %d: score %v before deployment", d, scores[i])
		}
		if d >= 30 && scores[i] < 90 {
			t.Fatalf("day %d: score %v after deployment", d, scores[i])
		}
	}
	// JumpEvents finds the subject's jump at day 30.
	jumps := tl.JumpEvents(50, 90)
	found := false
	for _, members := range jumps {
		for _, m := range members {
			if m == subject {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("jump not detected; jumps = %v", jumps)
	}
}

func TestFilterFalseTNodes(t *testing.T) {
	w := buildSmall(t, 34)
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(34))

	// A genuine tNode from an exclusive invalid survives.
	var genuine, shared scan.TNode
	for _, inv := range w.Invalids {
		addr := inet.NthAddr(inv.Prefix, 20)
		if inv.Shared {
			shared = scan.TNode{Addr: addr, ASN: inv.Origin, Port: 443, Prefix: inv.Prefix}
		} else if !inv.Covered {
			genuine = scan.TNode{Addr: addr, ASN: inv.Origin, Port: 443, Prefix: inv.Prefix}
		}
	}
	if genuine.ASN == 0 || shared.ASN == 0 {
		t.Skip("seed lacks both kinds")
	}
	rov, clean := r.referenceProbes(nil, nil)
	if r.falseTNode(rov, clean, genuine.Addr) {
		t.Fatal("genuine tNode was filtered out")
	}
	if !r.falseTNode(rov, clean, shared.Addr) {
		t.Fatal("shared-prefix false tNode survived the probe check")
	}
}

// TestRunRoundsContext pins the cooperative-cancellation contract the
// daemon and the CLI's -rounds mode rely on: a cancelled context stops
// between rounds, returns the completed prefix with a nil error, and a
// pre-cancelled context yields an empty (not nil) timeline.
func TestRunRoundsContext(t *testing.T) {
	cfg := SmallWorldConfig(11)
	cfg.Days = 30
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(11))

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	tl, err := r.RunRounds(pre, 0, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Snapshots) != 0 {
		t.Fatalf("pre-cancelled context ran %d rounds", len(tl.Snapshots))
	}

	// Cancel after the second round via the progress callback.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	rounds := 0
	r.Cfg.Progress = func(stage string, done, total int) {
		if stage == StageScore && done == total {
			rounds++
			if rounds == 2 {
				cancel2()
			}
		}
	}
	tl, err = r.RunRounds(ctx, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Snapshots) != 2 || len(tl.Days) != 2 {
		t.Fatalf("cancelled run kept %d rounds, want exactly the 2 completed", len(tl.Snapshots))
	}
	if tl.Days[0] != 0 || tl.Days[1] != 10 {
		t.Fatalf("days = %v", tl.Days)
	}

	// Uncancelled runs clamp at the timeline end instead of erroring.
	r.Cfg.Progress = nil
	tl, err = r.RunRounds(context.Background(), 20, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Days) != 3 || tl.Days[2] != 30 {
		t.Fatalf("clamped days = %v", tl.Days)
	}
}
