package core

import (
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/scan"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// TestScanWorkerDeterminism: the discovery and qualification sweeps return
// the same answers however many workers they are split across, on a clean
// network and under both fault profiles — each candidate's scan runs on its
// own clones with a seed derived from its address, so neither the order nor
// the concurrency of the sweep can reach it.
func TestScanWorkerDeterminism(t *testing.T) {
	type sweep struct {
		vvps    []scan.VVP
		tnodes  []scan.TNode
		scanned int
	}
	for _, name := range faults.Names() {
		prof, err := faults.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := BuildWorld(SmallWorldConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AdvanceTo(0); err != nil {
			t.Fatal(err)
		}
		if prof.Enabled() {
			w.Net.ArmFaults(prof, seedmix.Mix(7, faults.StreamArm))
		}
		var want sweep
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultRunnerConfig(7)
			cfg.Workers = workers
			r := NewRunner(w, cfg)
			prefixes, _ := r.testPrefixes()
			got := sweep{vvps: r.DiscoverVVPs()}
			got.tnodes, got.scanned = r.qualifyTNodes(prefixes, &pipeline.Executor{Workers: workers})
			if len(got.vvps) == 0 || len(got.tnodes) == 0 {
				t.Fatalf("%s workers=%d: %d vVPs, %d tNodes", name, workers, len(got.vvps), len(got.tnodes))
			}
			if workers == 1 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: sweep at %d workers differs from the serial sweep", name, workers)
			}
		}
		t.Logf("%s: %d vVPs, %d tNodes of %d candidates", name, len(want.vvps), len(want.tnodes), want.scanned)
	}
}
