package core

import (
	"github.com/netsec-lab/rovista/internal/bgp"
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// measureWith builds a fresh world for (wcfg, seed), advances it to day 0,
// and runs one full round with the given worker count, recording raw pair
// results. Fresh worlds per run isolate the comparison from the host-state
// evolution the discovery scans cause.
func measureWith(t *testing.T, wcfg WorldConfig, seed int64, workers int) *Snapshot {
	t.Helper()
	w, err := BuildWorld(wcfg)
	if err != nil {
		t.Fatalf("BuildWorld: %v", err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	cfg := DefaultRunnerConfig(seed)
	cfg.Workers = workers
	cfg.RecordPairs = true
	snap := NewRunner(w, cfg).Measure()
	// Timings legitimately differ between runs; null them for comparison.
	snap.Metrics = nil
	return snap
}

// TestMeasureParallelDeterminism is the pipeline's core contract: because
// every pair measures inside an isolated context whose state derives only
// from (seed, AS, tNode address, vVP address), the full snapshot — reports,
// consistency fraction, and every raw pair sample — must be bit-for-bit
// identical for any worker count.
func TestMeasureParallelDeterminism(t *testing.T) {
	tiny := SmallWorldConfig(0) // second world size: ~half the ASes
	tiny.Topology.NumTier3 = 15
	tiny.Topology.NumStub = 40

	cases := []struct {
		name string
		cfg  func(seed int64) WorldConfig
		seed int64
	}{
		{"small/seed5", SmallWorldConfig, 5},
		{"small/seed11", SmallWorldConfig, 11},
		{"tiny/seed5", func(seed int64) WorldConfig {
			c := tiny
			c.Seed = seed
			c.Topology.Seed = seed
			return c
		}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := measureWith(t, tc.cfg(tc.seed), tc.seed, 1)
			if len(want.PairResults) == 0 {
				t.Fatal("round measured no pairs; determinism check is vacuous")
			}
			for _, workers := range []int{2, 8} {
				got := measureWith(t, tc.cfg(tc.seed), tc.seed, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d produced a different snapshot than serial", workers)
				}
			}
		})
	}
}

// TestVVPCacheAutoInvalidation covers the generation-keyed cache: adding
// hosts used to require an explicit invalidation call, and forgetting it
// served stale discoveries.
func TestVVPCacheAutoInvalidation(t *testing.T) {
	w, err := BuildWorld(SmallWorldConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(9))
	before := len(r.DiscoverVVPs())
	w.AddCandidateHosts(w.Topo.ASNs[0], 4)
	after := len(r.DiscoverVVPs())
	if after <= before {
		t.Fatalf("cache not refreshed after host additions: %d then %d vVPs", before, after)
	}
}

// measuredRound builds SmallWorldConfig(seed) at day 0 and runs one round
// on a fresh Runner with cfg, recording every progress report.
func measuredRound(t *testing.T, seed int64, cfg RunnerConfig) (*Snapshot, map[string][][2]int) {
	t.Helper()
	w, err := BuildWorld(SmallWorldConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	reports := make(map[string][][2]int)
	cfg.Progress = func(stage string, done, total int) {
		reports[stage] = append(reports[stage], [2]int{done, total})
	}
	return NewRunner(w, cfg).Measure(), reports
}

// TestMeasureProgressCallback checks every stage of a round on a real world
// is timed and reports progress, and the pair stage counts every pair.
func TestMeasureProgressCallback(t *testing.T) {
	snap, reports := measuredRound(t, 7, DefaultRunnerConfig(7))
	for _, stage := range []string{StageTestPrefixes, StageQualifyTNodes, StageDiscoverVVPs, StageMeasurePairs, StageScore} {
		if _, ok := snap.Metrics.StageDuration(stage); !ok {
			t.Errorf("stage %q not timed", stage)
		}
		if len(reports[stage]) == 0 {
			t.Errorf("no progress reported for %q", stage)
		}
	}
	n := snap.Metrics.PairsMeasured
	if pairs := reports[StageMeasurePairs]; n == 0 || len(pairs) != n || pairs[n-1] != [2]int{n, n} {
		t.Fatalf("a cold round of %d pairs made %d measure-pairs reports", n, len(pairs))
	}
}

// TestMeasureRoundInvariants checks what a round's outputs owe each other:
// the pair counters add up and cover exactly the grid of the scored units,
// each unit's report and the consistent-pair fraction are the §6.2 rule over
// its recorded cells, every scored AS has enough vVPs under the §6.1
// background cutoff, and an AS the cutoff leaves short of them is discovered
// but not scored.
func TestMeasureRoundInvariants(t *testing.T) {
	cfg := DefaultRunnerConfig(7)
	cfg.RecordPairs = true
	snap, _ := measuredRound(t, 7, cfg)
	m := snap.Metrics
	if m.PairsUsable+m.PairsDiscarded != m.PairsMeasured {
		t.Errorf("usable %d + discarded %d != measured %d", m.PairsUsable, m.PairsDiscarded, m.PairsMeasured)
	}
	// Units are the ASes with enough vVPs, ascending, each capped.
	grid, consistent, total := 0, 0, 0
	for _, asn := range slices.Sorted(maps.Keys(snap.VVPsByAS)) {
		nv := min(len(snap.VVPsByAS[asn]), maxVVPsPerAS)
		if nv < cfg.MinVVPsPerAS {
			continue
		}
		n := len(snap.TNodes) * nv
		if grid+n > len(snap.PairResults) {
			t.Fatalf("%d recorded pairs end inside AS %v's cells", len(snap.PairResults), asn)
		}
		out := pipeline.ScoreAS(snap.TNodes, nv, snap.PairResults[grid:grid+n])
		grid, consistent, total = grid+n, consistent+out.ConsistentCells, total+out.TotalCells
		rep := snap.Reports[asn]
		if out.TNodesMeasured == 0 {
			if rep != nil {
				t.Errorf("AS %v scored without a measured tNode", asn)
			}
			continue
		}
		if rep == nil || rep.Score != out.Score || rep.VVPs != nv || rep.TNodesMeasured != out.TNodesMeasured ||
			rep.TNodesFiltered != out.TNodesFiltered || rep.Unanimous != out.Unanimous || !maps.Equal(rep.Verdicts, out.Verdicts) {
			t.Errorf("AS %v report %+v, its cells score %+v", asn, rep, out)
		}
	}
	if grid == 0 || m.PairsMeasured != grid || len(snap.PairResults) != grid {
		t.Errorf("measured %d pairs (%d recorded), the grid of %d tNodes × the units' vVPs holds %d",
			m.PairsMeasured, len(snap.PairResults), len(snap.TNodes), grid)
	}
	if want := float64(consistent) / float64(total); snap.ConsistentPairFraction != want {
		t.Errorf("consistent-pair fraction %v, the units' cells give %v", snap.ConsistentPairFraction, want)
	}
	if len(snap.Reports) == 0 {
		t.Fatal("no AS scored")
	}
	under := func(asn inet.ASN) (n int) {
		for _, rate := range snap.VVPBackgroundRates[asn] {
			if rate <= cfg.BackgroundCutoff {
				n++
			}
		}
		return n
	}
	for asn, rep := range snap.Reports {
		if n := under(asn); n < cfg.MinVVPsPerAS || rep.VVPs < cfg.MinVVPsPerAS {
			t.Errorf("AS %v scored on %d vVPs, %d under the cutoff", asn, rep.VVPs, n)
		}
	}
	cut := 0
	for asn, rates := range snap.VVPBackgroundRates {
		if len(rates) < cfg.MinVVPsPerAS || under(asn) >= cfg.MinVVPsPerAS {
			continue
		}
		cut++
		if snap.Reports[asn] != nil {
			t.Errorf("AS %v has %d of %d vVPs under the cutoff but was scored", asn, under(asn), len(rates))
		}
	}
	if cut == 0 {
		t.Fatal("the cutoff left no discovered AS short of vVPs; the check is vacuous")
	}
}

// TestWarmRoundPairProgress: the pair stage's reports cover the whole grid on
// every round, not just the cells a round re-measures — they ascend and end
// exactly once at (PairsMeasured, PairsMeasured) on a cold round, a round
// that reuses everything, a round after churn, a round whose churn came back
// (every moved cell restored, none measured), and a round with no pairs.
func TestWarmRoundPairProgress(t *testing.T) {
	w, err := BuildWorld(SmallWorldConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = 2
	cfg.Progress = func(stage string, done, total int) {
		if stage == StageMeasurePairs {
			pairs = append(pairs, [2]int{done, total})
		}
	}
	r := NewRunner(w, cfg)
	round := func(name string) *Snapshot {
		t.Helper()
		pairs = pairs[:0]
		snap := r.Measure()
		m := snap.Metrics
		n := m.PairsMeasured
		for k, p := range pairs {
			if p[1] != n || (k > 0 && p[0] <= pairs[k-1][0]) || (p[0] == n) != (k == len(pairs)-1) {
				t.Fatalf("%s round of %d pairs (%d re-measured) reported %v", name, n, m.PairsRemeasured, pairs)
			}
		}
		if len(pairs) == 0 {
			t.Fatalf("%s round of %d pairs (%d re-measured) made no measure-pairs report", name, n, m.PairsRemeasured)
		}
		return snap
	}
	cold := round("cold")
	if m := round("warm").Metrics; m.PairsRemeasured != 0 || m.PairsMeasured == 0 {
		t.Fatalf("warm round re-measured %d of %d pairs", m.PairsRemeasured, m.PairsMeasured)
	}
	// Withdraw the prefix of one scored AS: its cells are re-measured, most
	// are not.
	asns, prefixes := routedOrigins(w)
	pick := slices.IndexFunc(asns, func(asn inet.ASN) bool { return cold.Reports[asn] != nil })
	if pick < 0 {
		t.Fatal("no scored AS originates a prefix")
	}
	origin := bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: asns[pick], Prefix: prefixes[pick]}
	if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{origin}); err != nil {
		t.Fatal(err)
	}
	if m := round("churned").Metrics; m.PairsReused == 0 || m.PairsRemeasured == 0 {
		t.Fatalf("churned round reused %d, re-measured %d pairs", m.PairsReused, m.PairsRemeasured)
	}
	// Re-announce it: the routes are the cold round's again, and every cell
	// the withdrawal moved gets that round's result back.
	origin.Kind = bgp.EvAnnounce
	if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{origin}); err != nil {
		t.Fatal(err)
	}
	if m := round("restored").Metrics; m.PairsRemeasured != 0 || m.PairsRestored == 0 {
		t.Fatalf("restored round re-measured %d pairs, restored %d", m.PairsRemeasured, m.PairsRestored)
	}
	r.Cfg.MinVVPsPerAS = 1 << 20
	if m := round("empty").Metrics; m.PairsMeasured != 0 {
		t.Fatalf("no AS has %d vVPs, yet %d pairs were measured", r.Cfg.MinVVPsPerAS, m.PairsMeasured)
	}
}

// TestPathCacheRoundEquivalence: a full measurement round with the
// forwarding-path cache enabled must be bit-for-bit identical to one with
// the cache disabled — the cache is an invisible optimization, never a
// behaviour change.
func TestPathCacheRoundEquivalence(t *testing.T) {
	run := func(disable bool) *Snapshot {
		w, err := BuildWorld(SmallWorldConfig(5))
		if err != nil {
			t.Fatalf("BuildWorld: %v", err)
		}
		if err := w.AdvanceTo(0); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		w.Net.DisablePathCache = disable
		cfg := DefaultRunnerConfig(5)
		cfg.Workers = 4
		cfg.RecordPairs = true
		snap := NewRunner(w, cfg).Measure()
		snap.Metrics = nil // timings legitimately differ
		return snap
	}
	want := run(true)
	if len(want.PairResults) == 0 {
		t.Fatal("round measured no pairs; equivalence check is vacuous")
	}
	if got := run(false); !reflect.DeepEqual(got, want) {
		t.Fatal("cached round produced a different snapshot than uncached")
	}
}
