package core

import (
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

	tl := dayTimeline(t, NewRunner(w, DefaultRunnerConfig(33)), 15) // days 0, 15, 30, 45, 60
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

// dayTimeline measures every interval-th day of r's world, the series
// stream.LiveSink.RunDays runs (which core's tests cannot import).
func dayTimeline(t *testing.T, r *Runner, interval int) *Timeline {
	t.Helper()
	tl := &Timeline{}
	for day := 0; day <= r.W.Cfg.Days; day += interval {
		if err := r.W.Apply(Msg{Advance: true, Day: day}); err != nil {
			t.Fatal(err)
		}
		tl.Days = append(tl.Days, day)
		tl.Snapshots = append(tl.Snapshots, r.Measure())
	}
	return tl
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
