package core

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// TestRunnerReportsTheArmedProfile: the network's armed profile is the
// round's. A default Runner on a world built with the paper profile measures
// over the paper-armed wire, takes the countermeasures against it and says
// so in its Metrics — profile, retries and churned vVPs — which is what the
// store archives as the round's fault exposure.
func TestRunnerReportsTheArmedProfile(t *testing.T) {
	cfg := SmallWorldConfig(5)
	cfg.Faults = faults.Paper()
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	f := NewRunner(w, DefaultRunnerConfig(5)).Measure().Metrics.Faults
	if f.Profile != "paper" || f.PairRetries == 0 || f.VVPsChurned == 0 || f.VVPsUnstable == 0 {
		t.Fatalf("round on a paper-armed world reported %+v; want profile paper with retries, churn and re-qualification", f)
	}
}

// TestRearmingFollowsTheLastProfile: every arm sets each host's counter
// split to what the new profile draws and nothing an earlier profile drew.
// After paper then none, a round's pair results equal those of a twin that
// was never armed; after paper then harsh, every host's split equals a
// fresh harsh arm's.
func TestRearmingFollowsTheLastProfile(t *testing.T) {
	const seed = 5
	build := func(arms ...faults.Profile) *World {
		t.Helper()
		w := buildSmall(t, seed)
		if err := w.AdvanceTo(0); err != nil {
			t.Fatal(err)
		}
		for _, p := range arms {
			w.Net.ArmFaults(p, seedmix.Mix(seed, faults.StreamArm))
		}
		return w
	}
	splits := func(w *World) map[string]int {
		out := make(map[string]int)
		for _, a := range w.Net.AllAddrs() {
			h, _ := w.Net.HostAt(a)
			out[a.String()] = h.IPID.SplitWays()
		}
		return out
	}

	disarmed, twin := build(faults.Paper(), faults.None()), build()
	for a, ways := range splits(disarmed) {
		if ways != 0 {
			t.Fatalf("host %s kept a %d-way split after the network was re-armed clean", a, ways)
		}
	}
	cfg := DefaultRunnerConfig(seed)
	cfg.RecordPairs = true
	got, want := NewRunner(disarmed, cfg).Measure(), NewRunner(twin, cfg).Measure()
	if len(want.PairResults) == 0 || !reflect.DeepEqual(got.PairResults, want.PairResults) {
		t.Fatalf("paper → none: %d pair results, a never-armed twin's %d, not equal", len(got.PairResults), len(want.PairResults))
	}

	if got, want := splits(build(faults.Paper(), faults.Harsh())), splits(build(faults.Harsh())); !reflect.DeepEqual(got, want) {
		t.Fatal("paper → harsh: the hosts' counter splits differ from a fresh harsh arm's")
	}
}

// TestAddCandidateHostsSkipsAttached: a candidate address whose host is
// already attached is taken, not attached a second time.
func TestAddCandidateHostsSkipsAttached(t *testing.T) {
	w := buildSmall(t, 5)
	asn := w.Topo.ASNs[0]
	w.AddCandidateHosts(asn, 1)
	n := w.Net.Hosts()
	w.AddCandidateHosts(asn, 2) // AddHost panics on a duplicate
	if w.Net.Hosts() != n+1 {
		t.Fatalf("adding 2 candidates over 1 attached one attached %d hosts, want 1", w.Net.Hosts()-n)
	}
}

// TestMeasureUnderPacketLoss: with a small random loss rate the pipeline
// must stay sound — verdicts that survive the usability and unanimity gates
// still agree with the data-plane oracle — even if coverage shrinks
// (lossy rounds are discarded, not mis-scored).
func TestMeasureUnderPacketLoss(t *testing.T) {
	w := buildSmall(t, 25)
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	w.Net.LossRate = 0.01
	r := NewRunner(w, DefaultRunnerConfig(25))
	snap := r.Measure()
	if len(snap.Reports) == 0 {
		t.Skip("loss removed all reports at this seed")
	}
	agree, total := 0, 0
	for asn, rep := range snap.Reports {
		for addr, filtered := range rep.Verdicts {
			total++
			if filtered == !w.Graph.Reachable(asn, addr) {
				agree++
			}
		}
	}
	if total == 0 {
		t.Skip("no verdicts under loss")
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Fatalf("verdict accuracy %.1f%% under 1%% loss (%d/%d)", 100*frac, agree, total)
	}
}

// TestMeasureUnderHeavyLossDegradesGracefully: at punitive loss rates the
// pipeline must not fabricate results — coverage collapses instead.
func TestMeasureUnderHeavyLossDegradesGracefully(t *testing.T) {
	clean := buildSmall(t, 26)
	if err := clean.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	cleanReports := len(NewRunner(clean, DefaultRunnerConfig(26)).Measure().Reports)

	lossy := buildSmall(t, 26)
	if err := lossy.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	lossy.Net.LossRate = 0.25
	snap := NewRunner(lossy, DefaultRunnerConfig(26)).Measure()

	if len(snap.Reports) >= cleanReports {
		t.Fatalf("25%% loss did not reduce coverage: %d vs %d clean", len(snap.Reports), cleanReports)
	}
	for asn, rep := range snap.Reports {
		if math.IsNaN(rep.Score) || rep.Score < 0 || rep.Score > 100 {
			t.Fatalf("AS %v score %v under heavy loss", asn, rep.Score)
		}
	}
}

// TestSLURMExceptionCapsScore: an AS with a SLURM whitelist for one invalid
// prefix must reach that prefix (and only gain, never lose, reachability).
func TestSLURMExceptionCapsScore(t *testing.T) {
	cfg := SmallWorldConfig(27)
	cfg.SLURMExceptionFrac = 0.5 // force plenty of exceptions
	cfg.DefaultRouteLeakFrac = 0
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	found := false
	for asn, tr := range w.Truth {
		if !tr.SLURMException.IsValid() || !tr.DeployedAt(0) || tr.Kind != "full" {
			continue
		}
		found = true
		// The whitelisted prefix must be in this AS's RIB (not filtered).
		if _, ok := w.Graph.AS(asn).BestRoute(tr.SLURMException); !ok {
			// Possible only when routing never offered it (e.g. the AS
			// cannot hear it at all); verify it is not a filtering artifact
			// by checking the VRP view really whitelists it.
			if w.Graph.AS(asn).VRPs.Validate(tr.SLURMException, w.Truth[asn].ASN) == rpki.Invalid {
				t.Fatalf("AS %v: SLURM prefix still validates invalid", asn)
			}
		}
	}
	if !found {
		t.Skip("no applicable SLURM exception at this seed")
	}
}

// TestEquipmentPartialLeaksThroughBadNeighbor: an equipment-partial AS
// accepts invalid routes only over the unsupporting session.
func TestEquipmentPartialLeaksThroughBadNeighbor(t *testing.T) {
	cfg := SmallWorldConfig(28)
	cfg.EquipmentIssueFrac = 0.6
	cfg.CustomerExemptFrac = 0
	cfg.PreferValidFrac = 0
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	checked := false
	for asn, tr := range w.Truth {
		if tr.Kind != "equipment-partial" || !tr.DeployedAt(0) {
			continue
		}
		for _, r := range w.Graph.AS(asn).Routes() {
			if r.Validity == rpki.Invalid && r.LearnedFrom != tr.PartialNeighbor {
				t.Fatalf("AS %v installed invalid route from %v, not the broken session %v",
					asn, r.LearnedFrom, tr.PartialNeighbor)
			}
			if r.Validity == rpki.Invalid {
				checked = true
			}
		}
	}
	if !checked {
		t.Skip("no invalid routes leaked at this seed")
	}
}

// worldState is what a round could write to the world it measures, read
// back: the routing version and event-batch count, the host generation, the
// armed profile and fault seed, and for every attached address its
// forwarding epoch, whether HostAt answers for it, and the route id of the
// client's flow toward it.
type worldState struct {
	version, batches, generation uint64
	profile                      faults.Profile
	faultSeed                    int64
	epochs                       [][2]uint64
	hidden                       []netip.Addr
	routes                       []uint32
}

func readWorld(w *World) worldState {
	s := worldState{
		version:    w.Graph.Version(),
		batches:    w.Graph.Stats().Batches.Load(),
		generation: w.Net.Generation(),
		profile:    w.Net.Faults,
		faultSeed:  w.Net.FaultSeed,
	}
	for _, a := range w.Net.AllAddrs() {
		id, epoch := w.Net.PathEpoch(a)
		s.epochs = append(s.epochs, [2]uint64{uint64(id), epoch})
		if _, ok := w.Net.HostAt(a); !ok {
			s.hidden = append(s.hidden, a)
		}
		s.routes = append(s.routes, w.Net.RouteID(w.ClientA.ASN, a))
	}
	return s
}

// diff names the first part of the world that differs from before, or "".
func (s worldState) diff(before worldState) string {
	switch {
	case s.version != before.version || s.batches != before.batches:
		return fmt.Sprintf("routing moved: version %d → %d, event batches %d → %d", before.version, s.version, before.batches, s.batches)
	case s.generation != before.generation:
		return fmt.Sprintf("host generation %d → %d", before.generation, s.generation)
	case s.profile != before.profile || s.faultSeed != before.faultSeed:
		return fmt.Sprintf("armed profile %q/%d → %q/%d", before.profile.Name, before.faultSeed, s.profile.Name, s.faultSeed)
	case len(s.hidden) > 0:
		return fmt.Sprintf("%d attached hosts unreachable through HostAt, first %v", len(s.hidden), s.hidden[0])
	case !slices.Equal(s.epochs, before.epochs):
		return "a forwarding epoch moved"
	case !slices.Equal(s.routes, before.routes):
		return "a route id of the client's flows changed"
	}
	return ""
}

// TestRoundLeavesTheWorldAlone: a round measures the world and writes
// nothing to it. On a clean and on a paper-armed world, over a cold and a
// warm round of one Runner, the routing state, host population, armed
// profile, forwarding epochs, attached hosts and the route ids of the
// client's flows read the same before the round, while its pairs are
// measured and after it; only new route ids may appear. Under the paper
// profile the round churns vVPs away, and it must do so on its own view.
func TestRoundLeavesTheWorldAlone(t *testing.T) {
	for _, p := range []faults.Profile{faults.None(), faults.Paper()} {
		t.Run(p.Name, func(t *testing.T) {
			wcfg := SmallWorldConfig(5)
			wcfg.Faults = p
			w, err := BuildWorld(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AdvanceTo(0); err != nil {
				t.Fatal(err)
			}
			var (
				mu     sync.Mutex
				during string
				seen   bool
				before worldState
			)
			cfg := DefaultRunnerConfig(5)
			cfg.Workers = 2
			cfg.Progress = func(stage string, _, _ int) {
				mu.Lock()
				defer mu.Unlock()
				if stage == StageMeasurePairs && !seen {
					seen, during = true, readWorld(w).diff(before)
				}
			}
			r := NewRunner(w, cfg)
			for _, name := range []string{"cold", "warm"} {
				before, seen = readWorld(w), false
				if len(before.hidden) > 0 {
					t.Fatalf("%s: %d attached hosts unreachable before the round", name, len(before.hidden))
				}
				snap := r.Measure()
				if !seen || len(snap.Reports) == 0 {
					t.Fatalf("%s round: measure-pairs progress reported %v, %d ASes scored", name, seen, len(snap.Reports))
				}
				if during != "" {
					t.Fatalf("%s round, measuring pairs: %s", name, during)
				}
				if d := readWorld(w).diff(before); d != "" {
					t.Fatalf("%s round, after: %s", name, d)
				}
				if churned := snap.Metrics.Faults.VVPsChurned; (p.ChurnProb > 0) != (churned > 0) {
					t.Fatalf("%s round churned %d vVPs under profile %q", name, churned, p.Name)
				}
			}
		})
	}
}
