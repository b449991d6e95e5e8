package netsim_test

import (
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/scan"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// TestScansArePure: vVP discovery, tNode qualification and a whole round
// with vVP re-qualification on leave every live host exactly as it was —
// IP-ID counter, TCP flows, background clock and rng, rate limiter, armed
// wake-up, handler — and a scan run again returns the same answer. The
// scanned world is compared with a twin built from the same configuration
// that no scan ever touched (the digest reads each host's rng position by
// drawing from it, so it cannot be taken before and after on one world).
func TestScansArePure(t *testing.T) {
	const seed = 7
	prof := faults.Paper()
	build := func() *core.World {
		w, err := core.BuildWorld(core.SmallWorldConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AdvanceTo(0); err != nil {
			t.Fatal(err)
		}
		// The profile is part of the network's wiring.
		w.Net.ArmFaults(prof, seedmix.Mix(seed, faults.StreamArm))
		return w
	}
	w, twin := build(), build()

	cfg := core.DefaultRunnerConfig(seed)
	cfg.Workers = 2
	r := core.NewRunner(w, cfg)

	vvps := r.DiscoverVVPs()
	first := r.Measure()
	if len(vvps) == 0 || len(first.TNodes) == 0 || first.Metrics.Faults.VVPsUnstable == 0 {
		t.Fatalf("%d vVPs, %d tNodes, %d vVPs re-qualified: the property is vacuous",
			len(vvps), len(first.TNodes), first.Metrics.Faults.VVPsUnstable)
	}
	r = core.NewRunner(w, cfg) // everything is scanned again
	if again := r.DiscoverVVPs(); !reflect.DeepEqual(again, vvps) {
		t.Error("vVP discovery run twice returned different vVPs")
	}
	second := r.Measure()
	if second.Metrics.TNodesRequalified != first.Metrics.TNodesRequalified || !reflect.DeepEqual(second.TNodes, first.TNodes) {
		t.Error("tNode qualification run twice returned different tNodes")
	}
	if second.Metrics.Faults != first.Metrics.Faults || !reflect.DeepEqual(second.Reports, first.Reports) {
		t.Error("a round with vVP re-qualification run twice returned different results")
	}
	sc := scan.NewScanner(w.Net, w.ClientA, w.ClientB, 443, 80)
	for _, tn := range first.TNodes {
		if a, b := sc.QualifyTNode(tn.Addr), sc.QualifyTNode(tn.Addr); a != b || !a.Qualified {
			t.Errorf("tNode %v: scanned twice, answers %+v and %+v", tn.Addr, a, b)
		}
	}

	for _, addr := range w.Net.AllAddrs() {
		h, _ := w.Net.HostAt(addr)
		pristine, ok := twin.Net.HostAt(addr)
		if !ok {
			t.Fatalf("host %v is missing from the twin world", addr)
		}
		if got, want := h.StateDigest(), pristine.StateDigest(); got != want {
			t.Errorf("host %v changed under the scans:\n got %s\nwant %s", addr, got, want)
		}
	}
}
