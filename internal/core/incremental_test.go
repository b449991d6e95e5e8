package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/scan"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// worldPair builds two worlds from the same config so one can run the
// incremental runner and the other the from-scratch reference; any
// evolution applied to one must be applied to the other.
func worldPair(t *testing.T, seed int64) (*World, *World) {
	t.Helper()
	build := func() *World {
		w, err := BuildWorld(SmallWorldConfig(seed))
		if err != nil {
			t.Fatalf("BuildWorld: %v", err)
		}
		if err := w.AdvanceTo(0); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		return w
	}
	return build(), build()
}

// routedOrigins lists (AS, prefix) pairs suitable for withdraw/announce
// event batches, deterministically ordered.
func routedOrigins(w *World) (asns []inet.ASN, prefixes []netip.Prefix) {
	for _, asn := range w.Topo.ASNs {
		if ps := w.Topo.Info[asn].Prefixes; len(ps) > 0 {
			asns = append(asns, asn)
			prefixes = append(prefixes, ps[0])
		}
	}
	return
}

// flapOrigins withdraws then re-announces origin k as two separate event
// batches, so the withdrawal converges (and moves forwarding epochs) before
// the route comes back — real churn, unlike the coalesced fault-injection
// flaps.
func flapOrigins(t *testing.T, w *World, asns []inet.ASN, prefixes []netip.Prefix, picks []int) {
	t.Helper()
	var wd, ann []bgp.RouteEvent
	for _, k := range picks {
		wd = append(wd, bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: asns[k], Prefix: prefixes[k]})
		ann = append(ann, bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: asns[k], Prefix: prefixes[k]})
	}
	if _, err := w.Graph.ApplyEvents(wd); err != nil {
		t.Fatalf("withdraw batch: %v", err)
	}
	if _, err := w.Graph.ApplyEvents(ann); err != nil {
		t.Fatalf("announce batch: %v", err)
	}
}

// snapshotDiff names the first Snapshot field on which an incremental round
// diverged from the from-scratch reference ("" when bit-identical), so a
// failure says which stage's memo went stale.
func snapshotDiff(got, want *Snapshot) string {
	switch {
	case got.TestPrefixes != want.TestPrefixes:
		return "TestPrefixes"
	case !reflect.DeepEqual(got.TNodes, want.TNodes):
		return "TNodes"
	case !reflect.DeepEqual(got.VVPsByAS, want.VVPsByAS) || got.AllVVPs != want.AllVVPs:
		return "VVPsByAS"
	case !reflect.DeepEqual(got.VVPBackgroundRates, want.VVPBackgroundRates):
		return "VVPBackgroundRates"
	case !reflect.DeepEqual(got.PairResults, want.PairResults):
		return "PairResults"
	case len(got.Reports) != len(want.Reports):
		return "Reports (count)"
	}
	for asn, rep := range want.Reports {
		if !reflect.DeepEqual(got.Reports[asn], rep) {
			return "Reports[" + asn.String() + "]"
		}
	}
	gm, wm := got.Metrics, want.Metrics
	got.Metrics, want.Metrics = nil, nil
	defer func() { got.Metrics, want.Metrics = gm, wm }()
	switch {
	case got.ConsistentPairFraction != want.ConsistentPairFraction:
		return "ConsistentPairFraction"
	case got.Status != want.Status:
		return "Status"
	case !reflect.DeepEqual(got, want):
		return "Snapshot"
	}
	// The counters a carried-over unit contributes from its memo.
	switch {
	case gm.PairsMeasured != wm.PairsMeasured || gm.PairsUsable != wm.PairsUsable || gm.PairsDiscarded != wm.PairsDiscarded:
		return "Metrics pair counters"
	case gm.Faults != wm.Faults:
		return "Metrics.Faults"
	}
	return ""
}

// TestIncrementalRoundEquivalence is the tentpole's contract: across a
// sequence of rounds interleaved with every kind of change a memoized stage
// keys on, an incremental runner's Snapshot — test prefixes, tNodes, vVP
// groups, raw pair results, every ASReport, the consistent-pair fraction —
// must be bit-identical to a from-scratch runner's at every round and
// worker count; the memos may only change how much work a round does, never
// what it produces. The reference runner forces a full round every time, and
// a brand-new Runner on the reference world — no state at all — is compared
// too, at the end of the scripted prefix and of the random tail. A scripted
// prefix walks the layout and invalidation cases one by one (a test prefix
// withdrawn and restored so the tNode list shrinks, shifts indices and
// regrows; the VRP set swapped so a prefix leaves and re-enters the
// exclusively-invalid set; a host added — after rounds whose scans were all
// skipped — so vVP columns shift and discovery re-runs; ForceFullRound
// mid-sequence; each client's prefix withdrawn and restored, a host
// attached under a test prefix, so the tNode memo's stamps and candidate
// list each decide a round), then a randomized tail mixes route churn,
// client-prefix flaps, timeline advances, host additions and fault-profile
// flips with the retry and re-qualification countermeasures on. The two
// runners drive separate, identically-built and identically-evolved worlds.
func TestIncrementalRoundEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { incrementalRoundEquivalence(t, workers) })
	}
}

func incrementalRoundEquivalence(t *testing.T, workers int) {
	const seed, randomRounds = 21, 12
	wInc, wRef := worldPair(t, seed)
	worlds := []*World{wInc, wRef}
	asns, prefixes := routedOrigins(wInc)
	if len(asns) == 0 {
		t.Fatal("no routed origins to churn; property is vacuous")
	}

	cfgInc := DefaultRunnerConfig(seed)
	cfgInc.Workers = workers
	cfgInc.RecordPairs = true
	cfgRef := cfgInc
	cfgRef.Workers = 1
	rInc := NewRunner(wInc, cfgInc)
	rRef := NewRunner(wRef, cfgRef)

	// round measures both worlds and checks the contract; forced says
	// whether the incremental runner was told to run a full round.
	reused := 0
	round := func(name string, forced bool) (got *Snapshot) {
		t.Helper()
		got = rInc.Measure()
		rRef.ForceFullRound()
		want := rRef.Measure()
		reused += got.Metrics.PairsReused
		if got.Metrics.FullRound != forced {
			t.Fatalf("%s: incremental runner reported FullRound=%v, want %v", name, got.Metrics.FullRound, forced)
		}
		if want.Metrics.PairsRemeasured != want.Metrics.PairsMeasured {
			t.Fatalf("%s: reference runner reused results", name)
		}
		if d := snapshotDiff(got, want); d != "" {
			t.Fatalf("%s: incremental snapshot diverged from scratch in %s", name, d)
		}
		if view := wRef.Collector.Snapshot(wRef.Graph).ExclusivelyInvalid(wRef.VRPs); want.TestPrefixes != len(view) {
			t.Fatalf("%s: %d test prefixes, the collector view holds %d", name, want.TestPrefixes, len(view))
		}
		return got
	}
	// fresh compares the incremental runner's last Snapshot with a brand-new
	// Runner's round on the reference world: the stateless oracle.
	fresh := func(name string, got *Snapshot) {
		t.Helper()
		if d := snapshotDiff(got, NewRunner(wRef, rRef.Cfg).Measure()); d != "" {
			t.Fatalf("%s: incremental snapshot diverged from a fresh runner's in %s", name, d)
		}
	}
	apply := func(evs ...bgp.RouteEvent) {
		t.Helper()
		for _, w := range worlds {
			if _, err := w.Graph.ApplyEvents(evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	// swapVRPs replaces both worlds' VRP sets the way a live RTR refresh
	// does: new views first, then a roa-change batch over the space whose
	// validity may have moved.
	swapVRPs := func(vrps []rpki.VRP, changed netip.Prefix) {
		t.Helper()
		for _, w := range worlds {
			w.RefreshVRPViews(rpki.NewVRPSet(vrps))
		}
		apply(bgp.RouteEvent{Kind: bgp.EvROAChange, Prefixes: []netip.Prefix{changed}})
	}

	base := round("baseline", false)
	if len(base.TNodes) < 4 {
		t.Fatalf("baseline has %d tNodes; the layout cases need a few", len(base.TNodes))
	}

	// (i) Withdraw the first tNode's test prefix: the list shrinks and every
	// later tNode moves to a lower index (a new pair identity: the index
	// feeds the seed). Hold the layout one round, then restore it: the
	// original rows must come back out of the parked set.
	first := base.TNodes[0]
	apply(bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: first.ASN, Prefix: first.Prefix})
	shrunk := round("test prefix withdrawn", false)
	if len(shrunk.TNodes) >= len(base.TNodes) || shrunk.TNodes[0] == first || shrunk.TestPrefixes >= base.TestPrefixes {
		t.Fatalf("withdrawing %v did not shrink the tNode list (%d → %d tNodes, %d → %d test prefixes)",
			first.Prefix, len(base.TNodes), len(shrunk.TNodes), base.TestPrefixes, shrunk.TestPrefixes)
	}
	held := round("shrunk layout held", false)
	if m := held.Metrics; m.PairsRemeasured != 0 || m.ASesRescored != 0 || m.TestPrefixesReevaluated != 0 {
		t.Fatalf("a round with nothing changed did work: %d pairs, %d ASes, %d prefixes", m.PairsRemeasured, m.ASesRescored, m.TestPrefixesReevaluated)
	}
	apply(bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: first.ASN, Prefix: first.Prefix})
	regrown := round("test prefix restored", false)
	if !reflect.DeepEqual(regrown.TNodes, base.TNodes) {
		t.Fatal("restoring the test prefix did not restore the tNode list")
	}
	if m := regrown.Metrics; m.PairsReused == 0 {
		t.Fatal("the returning layout reused nothing: parked rows were lost")
	}

	// (ii) Swap the VRP set so the last tNode's prefix is no longer covered
	// (NotFound, not Invalid): it leaves the exclusively-invalid set without
	// any origination changing. Then swap it back.
	last := base.TNodes[len(base.TNodes)-1]
	all := wInc.VRPs.All()
	var uncovered []rpki.VRP
	for _, v := range all {
		if !v.Prefix.Overlaps(last.Prefix) {
			uncovered = append(uncovered, v)
		}
	}
	if len(uncovered) == len(all) {
		t.Fatalf("no VRP covers test prefix %v", last.Prefix)
	}
	swapVRPs(uncovered, last.Prefix)
	left := round("covering ROA removed", false)
	if left.TestPrefixes >= base.TestPrefixes || left.Metrics.TestPrefixesReevaluated == 0 {
		t.Fatalf("removing the ROA over %v left %d test prefixes (baseline %d), %d re-evaluated",
			last.Prefix, left.TestPrefixes, base.TestPrefixes, left.Metrics.TestPrefixesReevaluated)
	}
	swapVRPs(all, last.Prefix)
	if back := round("covering ROA restored", false); back.TestPrefixes != base.TestPrefixes {
		t.Fatalf("restoring the ROA gave %d test prefixes, baseline %d", back.TestPrefixes, base.TestPrefixes)
	}

	// (iii) A host joins a scored AS: discovery re-runs after rounds that
	// skipped their scans (the case a tNode memo over live-host scans got
	// wrong: the skipped scans had not advanced the hosts discovery reads),
	// and that AS's vVP columns shift.
	var scored inet.ASN
	for asn := range base.Reports {
		if scored == 0 || asn < scored {
			scored = asn
		}
	}
	for _, w := range worlds {
		w.AddCandidateHosts(scored, 2)
	}
	if grown := round("host added", false); grown.AllVVPs <= base.AllVVPs {
		t.Fatalf("adding hosts to %v discovered no new vVP (%d → %d)", scored, base.AllVVPs, grown.AllVVPs)
	}

	// (iv) A forced full round, then a round that reuses all it rebuilt.
	rInc.ForceFullRound()
	if m := round("forced full round", true).Metrics; m.PairsReused != 0 || m.TestPrefixesReevaluated == 0 || m.ASesRescored == 0 {
		t.Fatalf("forced full round reused state: %+v", m)
	}
	if m := round("after forced full round", false).Metrics; m.PairsRemeasured != 0 || m.ASesRescored != 0 {
		t.Fatalf("round after a forced full round re-measured %d pairs, rescored %d ASes", m.PairsRemeasured, m.ASesRescored)
	}

	// (v) Each client's own prefix goes away for a round. A qualification
	// sends packets toward the candidate, ClientA (the port sweep's answers)
	// and ClientB (the experiments' SYN-ACKs); with either unreachable no
	// candidate can qualify, and the memo must notice although no stamp of
	// any candidate moved.
	for _, client := range []*netsim.Host{wInc.ClientA, wInc.ClientB} {
		origin := bgp.RouteEvent{AS: client.ASN, Prefix: wInc.Topo.Info[client.ASN].Prefixes[0]}
		if !origin.Prefix.Contains(client.Addr) {
			t.Fatalf("client %v is not under its AS's first prefix %v", client.Addr, origin.Prefix)
		}
		origin.Kind = bgp.EvWithdraw
		apply(origin)
		cut := round(fmt.Sprintf("client %v unreachable", client.Addr), false)
		if len(cut.TNodes) != 0 || cut.Metrics.TNodesRequalified == 0 {
			t.Fatalf("with %v unreachable %d tNodes qualified, %d candidates scanned", client.Addr, len(cut.TNodes), cut.Metrics.TNodesRequalified)
		}
		origin.Kind = bgp.EvAnnounce
		apply(origin)
		if back := round(fmt.Sprintf("client %v restored", client.Addr), false); !reflect.DeepEqual(back.TNodes, regrown.TNodes) {
			t.Fatalf("restoring %v did not restore the tNode list", client.Addr)
		}
	}

	// (vi) A listening host is attached under a test prefix: a candidate no
	// round has seen, found only by enumerating the prefix again.
	under := base.TNodes[1]
	joined := inet.NthAddr(under.Prefix, 60)
	for _, w := range worlds {
		w.Net.AddHost(netsim.NewHost(joined, under.ASN, ipid.Global, 99, 443))
	}
	grown := round("tNode host added", false)
	if !slices.ContainsFunc(grown.TNodes, func(tn scan.TNode) bool { return tn.Addr == joined }) {
		t.Fatalf("host %v attached under test prefix %v did not become a tNode", joined, under.Prefix)
	}
	fresh("end of the scripted rounds", grown)

	// (vii) Routes that go away and come back, under the exact pair key:
	// the prefix over a tNode, over a vVP of a scored AS and over ClientA
	// are each withdrawn for a round and re-announced. Every round is
	// checked against the full-round reference, and every round whose
	// routes are all up against a fresh Runner too: vVP discovery runs once
	// per host generation (the paper's daily scan), so while a prefix over
	// some vVP is withdrawn a fresh Runner would not find that vVP, where
	// the incremental runner and the reference measure its dead column. A
	// returning tNode row comes out of the parked set with a moved stamp and
	// must be revalidated; a vVP column the withdrawal re-measured must get
	// its old results back.
	revalidated, restored := 0, 0
	checked := func(name string, routed bool) {
		t.Helper()
		got := round(name, false)
		if routed {
			fresh(name, got)
		}
		revalidated += got.Metrics.PairsRevalidated
		restored += got.Metrics.PairsRestored
	}
	var vvp scan.VVP
	for _, v := range grown.VVPsByAS[scored] {
		if vvp.ASN == 0 || v.Addr.Less(vvp.Addr) {
			vvp = v
		}
	}
	covering := func(asn inet.ASN, a netip.Addr) bgp.RouteEvent {
		t.Helper()
		for _, p := range wInc.Topo.Info[asn].Prefixes {
			if p.Contains(a) {
				return bgp.RouteEvent{AS: asn, Prefix: p}
			}
		}
		t.Fatalf("AS %v originates no prefix over %v", asn, a)
		return bgp.RouteEvent{}
	}
	for _, origin := range []bgp.RouteEvent{
		{AS: first.ASN, Prefix: first.Prefix},
		covering(vvp.ASN, vvp.Addr),
		covering(wInc.ClientA.ASN, wInc.ClientA.Addr),
	} {
		origin.Kind = bgp.EvWithdraw
		apply(origin)
		checked(fmt.Sprintf("%v withdrawn", origin.Prefix), false)
		origin.Kind = bgp.EvAnnounce
		apply(origin)
		checked(fmt.Sprintf("%v re-announced", origin.Prefix), true)
	}
	if revalidated == 0 || restored == 0 {
		t.Fatalf("routes that came back revalidated %d pairs and restored %d; want both", revalidated, restored)
	}

	profiles := []faults.Profile{faults.None(), faults.Paper(), faults.Harsh()}
	rng := rand.New(rand.NewSource(seed)) // drives the schedule, not the measurement
	day := 0
	var tail *Snapshot
	for i := 0; i < randomRounds; i++ {
		// Evolve both worlds identically.
		switch rng.Intn(5) {
		case 0: // route churn: flap a few random origins
			picks := make([]int, 1+rng.Intn(3))
			for i := range picks {
				picks[i] = rng.Intn(len(asns))
			}
			flapOrigins(t, wInc, asns, prefixes, picks)
			flapOrigins(t, wRef, asns, prefixes, picks)
		case 4: // the same, on a measurement client's own prefix
			client := []*netsim.Host{wInc.ClientA, wInc.ClientB}[rng.Intn(2)]
			picks := []int{slices.Index(asns, client.ASN)}
			flapOrigins(t, wInc, asns, prefixes, picks)
			flapOrigins(t, wRef, asns, prefixes, picks)
		case 1: // timeline advance: ROA/ROV churn via the convergence engine
			day += 1 + rng.Intn(5)
			for _, w := range worlds {
				if err := w.AdvanceTo(day); err != nil {
					t.Fatalf("AdvanceTo(%d): %v", day, err)
				}
			}
		case 2: // host-population churn
			asn := asns[rng.Intn(len(asns))]
			for _, w := range worlds {
				w.AddCandidateHosts(asn, 2)
			}
		case 3: // no evolution: the max-reuse round
		}
		// Occasionally re-arm both networks with another fault profile
		// (flushes via the fingerprint); the countermeasures follow it.
		if rng.Intn(3) == 0 {
			p := profiles[rng.Intn(len(profiles))]
			for _, w := range worlds {
				w.Net.ArmFaults(p, seedmix.Mix(seed, faults.StreamArm))
			}
		}
		tail = round(fmt.Sprintf("random round %d", i), false)
	}
	fresh("end of the random rounds", tail)

	if reused == 0 {
		t.Fatal("incremental runner never reused a pair; property is vacuous")
	}
}

// TestRequalifiedUnitsCarry: under faults with vVP re-qualification on, a
// unit whose cells were not re-measured keeps its score, its discarded
// columns and its share of the re-qualification counters — the pass is a
// pure function of the unit's cells and of scans on clones, so it is not
// repeated — and the Snapshot, discards included, stays bit-identical to a
// from-scratch round's, on a quiet round, after a withdrawal that dirties
// only some units, and after the re-announcement that restores their cells.
func TestRequalifiedUnitsCarry(t *testing.T) {
	wInc, wRef := worldPair(t, 7)
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = 2
	cfg.RecordPairs = true
	for _, w := range []*World{wInc, wRef} {
		w.Net.ArmFaults(faults.Paper(), seedmix.Mix(7, faults.StreamArm))
	}
	rInc, rRef := NewRunner(wInc, cfg), NewRunner(wRef, cfg)
	round := func(name string) *Snapshot {
		t.Helper()
		rRef.ForceFullRound()
		got, want := rInc.Measure(), rRef.Measure()
		if d := snapshotDiff(got, want); d != "" {
			t.Fatalf("%s: incremental snapshot diverged from scratch in %s", name, d)
		}
		return got
	}
	first := round("cold")
	cold := first.Metrics
	if cold.Faults.VVPsDropped == 0 {
		t.Fatal("no vVP failed re-qualification; the property is vacuous")
	}
	if m := round("quiet").Metrics; m.ASesRescored != 0 || m.Faults != cold.Faults {
		t.Fatalf("quiet round rescored %d ASes, fault counters %+v (cold round %+v)", m.ASesRescored, m.Faults, cold.Faults)
	}
	// Withdraw the prefix the vVPs of one scored AS live under: its cells
	// are re-measured, most other units' are not.
	asns, prefixes := routedOrigins(wInc)
	pick := slices.IndexFunc(asns, func(asn inet.ASN) bool { return first.Reports[asn] != nil })
	if pick < 0 {
		t.Fatal("no scored AS originates a prefix")
	}
	origin := bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: asns[pick], Prefix: prefixes[pick]}
	apply := func() {
		t.Helper()
		for _, w := range []*World{wInc, wRef} {
			if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{origin}); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply()
	if m := round("after a withdrawal").Metrics; m.ASesRescored == 0 || m.ASesRescored == cold.ASesRescored {
		t.Fatalf("withdrawal round rescored %d of %d ASes; want some, not all", m.ASesRescored, cold.ASesRescored)
	}
	// The re-announcement restores the moved cells: their units are
	// rescored from restored results, without a measurement.
	origin.Kind = bgp.EvAnnounce
	apply()
	if m := round("after the re-announcement").Metrics; m.ASesRescored == 0 || m.PairsRemeasured != 0 || m.PairsRestored == 0 {
		t.Fatalf("re-announcement round rescored %d ASes, re-measured %d pairs, restored %d", m.ASesRescored, m.PairsRemeasured, m.PairsRestored)
	}
}

// TestIncrementalZeroChurnReusesEverything: with no evolution between two
// clean rounds, the second round must reuse the entire grid.
func TestIncrementalZeroChurnReusesEverything(t *testing.T) {
	w, err := BuildWorld(SmallWorldConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = 1
	r := NewRunner(w, cfg)

	first := r.Measure().Metrics
	if first.PairsRemeasured != first.PairsMeasured || first.PairsReused != 0 {
		t.Fatalf("cold round: %+v", first)
	}
	// The round driver re-advances to the day it is on before every round;
	// re-validating unchanged repositories must not look like a VRP swap.
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	second := r.Measure().Metrics
	if second.TestPrefixesReevaluated != 0 || second.ASesRescored != 0 {
		t.Fatalf("zero-churn round re-evaluated %d test prefixes, rescored %d ASes",
			second.TestPrefixesReevaluated, second.ASesRescored)
	}
	if second.PairsMeasured == 0 {
		t.Fatal("no pairs measured; check is vacuous")
	}
	if second.PairsReused != second.PairsMeasured || second.PairsRemeasured != 0 {
		t.Fatalf("zero-churn round re-measured pairs: reused=%d remeasured=%d of %d",
			second.PairsReused, second.PairsRemeasured, second.PairsMeasured)
	}
}

// TestForceFullRoundBypassesCache: ForceFullRound must make exactly the next
// round measure everything, then re-arm the cache.
func TestForceFullRoundBypassesCache(t *testing.T) {
	w, err := BuildWorld(SmallWorldConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w, DefaultRunnerConfig(7))
	r.Measure()
	r.ForceFullRound()
	m := r.Measure().Metrics
	if !m.FullRound || m.PairsReused != 0 || m.PairsRemeasured != m.PairsMeasured {
		t.Fatalf("forced round still reused: %+v", m)
	}
	m = r.Measure().Metrics
	if m.FullRound || m.PairsReused != m.PairsMeasured {
		t.Fatalf("round after forced full did not reuse: %+v", m)
	}
}

// TestRecordPairsFlushesTheGrid: RecordPairs is part of the round
// fingerprint. A Runner that measured without keeping samples and then
// starts recording must not serve a reused or restored result that lacks
// them: its next round re-measures the grid, and its PairResults, samples
// included, equal those of a fresh Runner that records.
func TestRecordPairsFlushesTheGrid(t *testing.T) {
	r := smallWorldRunner(t)
	cold := r.Measure()
	if cold.PairResults != nil || cold.Metrics.PairsMeasured == 0 {
		t.Fatalf("cold round without RecordPairs: %d pair results of %d measured", len(cold.PairResults), cold.Metrics.PairsMeasured)
	}
	r.Cfg.RecordPairs = true
	got := r.Measure()
	if m := got.Metrics; m.PairsReused != 0 || m.PairsRemeasured != m.PairsMeasured {
		t.Fatalf("the round after RecordPairs flipped reused %d of %d pairs", m.PairsReused, m.PairsMeasured)
	}
	want := NewRunner(r.W, r.Cfg).Measure()
	samples := 0
	for _, pr := range want.PairResults {
		samples += len(pr.IDs)
	}
	if samples == 0 {
		t.Fatal("the recording reference kept no samples; check is vacuous")
	}
	if d := snapshotDiff(got, want); d != "" {
		t.Fatalf("after RecordPairs flipped the snapshot diverged from a fresh recording runner's in %s", d)
	}
}

// smallWorldRunner builds the SmallWorldConfig(7) world at day 0 with a
// serial incremental runner — the legacy round benchmarks' set-up.
func smallWorldRunner(t *testing.T) *Runner {
	t.Helper()
	w, err := BuildWorld(SmallWorldConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = 1
	return NewRunner(w, cfg)
}

// TestResultCacheBoundedUnderLayoutChurn: walking the test prefixes down a
// staircase (withdraw one more each round, every remaining tNode shifts to a
// new index) and back up, for more than fifty rounds, must not grow the
// cache past a fixed multiple of the live grid, must retain the withdrawn
// rows beyond each round's own live grid, and must leave nothing but the
// live grid behind once the churn stops, while a row that returns within
// the retention window still gets its results back. Rows follow their tNode,
// so on this world the cache peaks at the base grid of 1,120 cells and
// retains up to 880 beyond a round's live grid; when a row's index was part
// of its identity it peaked at 4,000.
func TestResultCacheBoundedUnderLayoutChurn(t *testing.T) {
	r := smallWorldRunner(t)
	w := r.W
	base := r.Measure()
	grid := base.Metrics.PairsMeasured
	if r.pairCache.Len() != grid {
		t.Fatalf("cold round cached %d of %d pairs", r.pairCache.Len(), grid)
	}
	// Distinct test prefixes in tNode order, with how many tNode rows each
	// carries; keep enough of them routed for every round to reach the grid.
	type testPrefix struct {
		origin inet.ASN
		p      netip.Prefix
		rows   int
	}
	var tps []testPrefix
	for _, tn := range base.TNodes {
		if n := len(tps); n > 0 && tps[n-1].p == tn.Prefix {
			tps[n-1].rows++
			continue
		}
		tps = append(tps, testPrefix{tn.ASN, tn.Prefix, 1})
	}
	for left := 0; left < r.Cfg.MinTNodes; tps = tps[:len(tps)-1] {
		left += tps[len(tps)-1].rows
	}
	if len(tps) < 4 {
		t.Fatalf("only %d withdrawable test prefixes; the staircase needs a few", len(tps))
	}
	flip := func(kind bgp.EventKind, tp testPrefix) *Snapshot {
		t.Helper()
		if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{{Kind: kind, AS: tp.origin, Prefix: tp.p}}); err != nil {
			t.Fatal(err)
		}
		snap := r.Measure()
		if snap.Status != pipeline.RoundOK {
			t.Fatalf("round after %v %v: %v", kind, tp.p, snap.Status)
		}
		return snap
	}

	// A → B → A: withdraw the first test prefix (every row shifts), restore
	// it. The keep-everything map this cache replaced re-measured 902 pairs
	// going down and 279 coming back on this world (the restored prefix's
	// own rows, whose routing epoch the flap moved, plus a few columns under
	// it); rows coming back from the parked set must do no worse. Rows that
	// follow their tNode re-measure 33 going down, cells whose routes the
	// withdrawal moved, and none coming back.
	down := flip(bgp.EvWithdraw, tps[0]).Metrics.PairsRemeasured
	if down > 902 {
		t.Fatalf("shifted layout re-measured %d pairs, the unbounded cache 902", down)
	}
	back := flip(bgp.EvAnnounce, tps[0])
	if !reflect.DeepEqual(back.TNodes, base.TNodes) {
		t.Fatal("restoring the test prefix did not restore the tNode list")
	}
	if got := back.Metrics.PairsRemeasured; got > 279 {
		t.Fatalf("returning layout re-measured %d pairs, the unbounded cache 279", got)
	}

	// retained is what the cache holds beyond the round's own live grid.
	rounds, peak, retained := 0, 0, 0
	step := func(kind bgp.EventKind, tp testPrefix) {
		live := flip(kind, tp).Metrics.PairsMeasured
		rounds++
		peak = max(peak, r.pairCache.Len())
		retained = max(retained, r.pairCache.Len()-live)
	}
	for rounds < 50 {
		for _, tp := range tps {
			step(bgp.EvWithdraw, tp)
		}
		for i := len(tps) - 1; i >= 0; i-- {
			step(bgp.EvAnnounce, tps[i])
		}
	}
	t.Logf("down %d back %d peak %d retained %d grid %d rounds %d", down, back.Metrics.PairsRemeasured, peak, retained, grid, rounds)
	if most := pipeline.ResultCacheMaxGrids * grid; peak > most {
		t.Fatalf("cache peaked at %d results over %d rounds of layout churn: live grid %d, bound %d×",
			peak, rounds, grid, pipeline.ResultCacheMaxGrids)
	}
	if retained == 0 {
		t.Fatalf("cache never held more than the round's live grid: nothing was retained across layouts (peak %d)", peak)
	}
	// Once the layout holds still the parked rows age out: what stays is the
	// live grid, not every layout the churn walked through.
	for r.pairCache.Len() != grid && rounds < 1000 {
		r.Measure()
		rounds++
	}
	if got := r.pairCache.Len(); got != grid {
		t.Fatalf("cache holds %d results after the churn stopped, live grid %d (peak %d)", got, grid, peak)
	}
}

// pairID names a pair by the hosts it measures.
type pairID struct {
	tn  scan.TNode
	vvp netip.Addr
}

// pairCell is one cell of a round's grid: its index, its PairKey and its
// result.
type pairCell struct {
	i   int
	key pipeline.PairKey
	res detect.PairResult
}

// gridCells returns every cell of r's last round by the pair's identity,
// with the PairKey of the world's current routing.
func gridCells(r *Runner, snap *Snapshot) map[pairID]pairCell {
	r.resetRoutes(len(snap.TNodes), len(r.groups.addrs))
	out := make(map[pairID]pairCell)
	i, col := 0, 0
	for _, u := range r.groups.units {
		for ti, tn := range snap.TNodes {
			for vi, v := range u.VVPs {
				out[pairID{tn, v.Addr}] = pairCell{i, r.pairKey(tn, ti, v, col+vi), snap.PairResults[i]}
				i++
			}
		}
		col += len(u.VVPs)
	}
	return out
}

// TestPairIdentityFollowsTheHosts: a pair is named by the hosts it measures,
// not by where its tNode sits in the round's list. Withdrawing, then
// re-announcing through World.Apply, a test prefix whose tNodes sort ahead
// of every other row shifts every other row twice. Fresh runners on either
// side must measure every pair whose PairKey did not move bit-identically,
// and a persistent runner must re-measure no cell just because its row
// moved: going down only cells whose key moved, coming back only the
// returning prefix's own rows.
func TestPairIdentityFollowsTheHosts(t *testing.T) {
	r := smallWorldRunner(t)
	r.Cfg.RecordPairs = true
	w := r.W
	base := r.Measure()
	first := base.TNodes[0]
	rest := 0
	for _, tn := range base.TNodes {
		if tn.Prefix != first.Prefix {
			rest++
		}
	}
	if rest < r.Cfg.MinTNodes {
		t.Fatalf("only %d of %d tNodes lie outside the first test prefix; withdrawing it leaves no round", rest, len(base.TNodes))
	}
	// flip applies the change, then measures on the persistent runner and
	// on a fresh one; keys are resolved under the routing they measured.
	flip := func(kind bgp.EventKind) (snap *Snapshot, cells, fresh map[pairID]pairCell) {
		t.Helper()
		if err := w.Apply(Msg{Events: []bgp.RouteEvent{{Kind: kind, AS: first.ASN, Prefix: first.Prefix}}}); err != nil {
			t.Fatal(err)
		}
		snap = r.Measure()
		if snap.Status != pipeline.RoundOK {
			t.Fatalf("round after %v %v: %v", kind, first.Prefix, snap.Status)
		}
		rFresh := NewRunner(w, r.Cfg)
		return snap, gridCells(r, snap), gridCells(rFresh, rFresh.Measure())
	}
	prev := gridCells(r, base)

	// Down: every row shifts one prefix's worth of rows up; a cell is
	// re-measured only where its routes moved.
	down, downCells, before := flip(bgp.EvWithdraw)
	wasted := 0
	for id, c := range downCells {
		if was, ok := prev[id]; ok && was.key == c.key && slices.Contains(r.miss, c.i) {
			wasted++
		}
	}
	if wasted > 0 {
		t.Errorf("going down, %d cells were re-measured though their keys held", wasted)
	}

	// Back: the returning rows are the only cells worth measuring.
	back, backCells, after := flip(bgp.EvAnnounce)
	if !reflect.DeepEqual(back.TNodes, base.TNodes) {
		t.Fatal("re-announcing the test prefix did not restore the tNode list")
	}
	wasted = 0
	for id, c := range backCells {
		if id.tn.Prefix != first.Prefix && slices.Contains(r.miss, c.i) {
			wasted++
		}
	}
	if wasted > 0 {
		t.Errorf("coming back, %d cells outside the returning rows were re-measured", wasted)
	}

	// Fresh runners on either side of the re-announce agree on every pair
	// whose key held, the shifted rows included.
	shifted := 0
	for id, a := range after {
		b, ok := before[id]
		if !ok || a.key != b.key {
			continue
		}
		if !reflect.DeepEqual(a.res, b.res) {
			t.Fatalf("%v × %v: fresh rounds before and after the re-announce disagree under one key", id.tn.Addr, id.vvp)
		}
		if a.i != b.i {
			shifted++
		}
	}
	if shifted == 0 {
		t.Fatal("no pair with an unchanged key moved in the grid; the pin is vacuous")
	}
	t.Logf("%d pairs shifted under an unchanged key; re-measured %d going down, %d coming back", shifted, down.Metrics.PairsRemeasured, back.Metrics.PairsRemeasured)
}

// TestZeroChurnRoundAllocs guards the steady state: a round in which nothing
// changed recorded 4,830 allocs before the stages around pair measurement
// kept their output, and 826 while the tNode scans still ran on the live
// hosts every round (BENCH_round.json,
// BenchmarkMeasureRoundIncrementalChurn0). Now every stage keeps its output
// — test prefixes, tNode qualifications, vVP grouping, pair grid, scoring —
// and what is left is the round's own bookkeeping.
func TestZeroChurnRoundAllocs(t *testing.T) {
	r := smallWorldRunner(t)
	if snap := r.Measure(); len(snap.Reports) == 0 || snap.Metrics.TNodesRequalified == 0 {
		t.Fatalf("cold round: %d reports, %d tNode candidates scanned", len(snap.Reports), snap.Metrics.TNodesRequalified)
	}
	round := func() {
		if m := r.Measure().Metrics; m.PairsRemeasured != 0 || m.ASesRescored != 0 || m.TestPrefixesReevaluated != 0 || m.TNodesRequalified != 0 {
			t.Fatalf("zero-churn round did work: %+v", m)
		}
	}
	if got := testing.AllocsPerRun(20, round); got > 64 {
		t.Errorf("zero-churn round: %.0f allocs, ceiling 64 (826 with the tNode scans, 4,830 before)", got)
	}
}

// TestPairKeyFollowsEveryFlow is the pin behind each route of the pair key:
// routing changes that move some flows of a pair and not others, every
// round bit-identical to the full-round reference. Where a cell's stamp
// moved but only one route of its key changed, that route alone keeps the
// cell from being revalidated with the result of the old routing; the
// mutation table in DESIGN.md ("Incremental rounds") names which steps below
// catch the loss of which route. The steps: the AS a flow leaves from
// originates the prefix over the flow's destination (a hijack it prefers
// over the real route) and withdraws it again; an AS starts leaking and
// stops (the route stays delivered, through the leaker); the client's AS
// gains a peering link to each tNode's AS.
func TestPairKeyFollowsEveryFlow(t *testing.T) {
	const seed = 21
	wInc, wRef := worldPair(t, seed)
	worlds := []*World{wInc, wRef}
	cfg := DefaultRunnerConfig(seed)
	cfg.Workers = 2
	cfg.RecordPairs = true
	rInc, rRef := NewRunner(wInc, cfg), NewRunner(wRef, cfg)
	revalidated := 0
	round := func(name string) *Snapshot {
		t.Helper()
		rRef.ForceFullRound()
		got, want := rInc.Measure(), rRef.Measure()
		if d := snapshotDiff(got, want); d != "" {
			t.Fatalf("%s: incremental snapshot diverged from scratch in %s", name, d)
		}
		revalidated += got.Metrics.PairsRevalidated
		return got
	}
	step := func(ev bgp.RouteEvent) {
		t.Helper()
		for _, w := range worlds {
			if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{ev}); err != nil {
				t.Fatal(err)
			}
		}
		round(fmt.Sprintf("%v %v", ev.Kind, ev))
	}
	base := round("baseline")
	covering := func(h netip.Addr) netip.Prefix {
		t.Helper()
		for _, asn := range wInc.Topo.ASNs {
			for _, p := range wInc.Topo.Info[asn].Prefixes {
				if p.Contains(h) {
					return p
				}
			}
		}
		t.Fatalf("no prefix covers %v", h)
		return netip.Prefix{}
	}
	// Two vVPs of scored ASes and two tNodes, so some cell of each flow sees
	// only its own route move.
	var vvps []scan.VVP
	for _, asn := range slices.Sorted(maps.Keys(base.Reports)) {
		if vs := base.VVPsByAS[asn]; len(vvps) < 2 && len(vs) > 0 {
			vvps = append(vvps, vs[0])
		}
	}
	tnodes := []scan.TNode{base.TNodes[0], base.TNodes[len(base.TNodes)-1]}
	client := wInc.ClientA
	type hijack struct {
		from inet.ASN
		over netip.Prefix
	}
	var hijacks []hijack
	clientPrefix := covering(client.Addr)
	for _, v := range vvps {
		vvpPrefix := covering(v.Addr)
		hijacks = append(hijacks, hijack{client.ASN, vvpPrefix}, hijack{v.ASN, clientPrefix})
		for _, tn := range tnodes {
			hijacks = append(hijacks, hijack{tn.ASN, vvpPrefix}, hijack{v.ASN, tn.Prefix})
		}
	}
	for _, h := range hijacks {
		if slices.Contains(wInc.Graph.AS(h.from).Originated, h.over) {
			continue // the real origin: withdrawing would not restore
		}
		step(bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: h.from, Prefix: h.over})
		step(bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: h.from, Prefix: h.over})
	}
	for _, asn := range wInc.Topo.ASNs[:20] {
		step(bgp.RouteEvent{Kind: bgp.EvLeakChange, AS: asn, Leak: true})
		step(bgp.RouteEvent{Kind: bgp.EvLeakChange, AS: asn, Leak: false})
	}
	linked := map[inet.ASN]bool{client.ASN: true}
	for _, tn := range base.TNodes {
		if !linked[tn.ASN] {
			linked[tn.ASN] = true
			step(bgp.RouteEvent{Kind: bgp.EvLinkChange, AS: client.ASN, Peer: tn.ASN, Rel: bgp.Peer})
		}
	}
	if revalidated == 0 {
		t.Fatal("no cell was revalidated; the steps moved every route of every key they touched")
	}
}

// TestPairKeyFollowsTNodePresence is the pin behind the key's tNode
// vanished bit. A tNode whose host also qualified as a vVP is churned away
// with the vVPs, after qualification, so its row is measured against an
// absent host; moving the background cutoff below that vVP's rate takes it
// out of the churn and brings the host back, with no route and no round
// fingerprint changed. Every cell of the row, in every other column, must
// then be re-measured, each round bit-identical to the full-round
// reference.
func TestPairKeyFollowsTNodePresence(t *testing.T) {
	const seed = 21
	wInc, wRef := worldPair(t, seed)
	cfg := DefaultRunnerConfig(seed)
	cfg.Workers = 2
	cfg.RecordPairs = true
	churn := faults.Profile{Name: "churn", ChurnProb: 0.5}
	for _, w := range []*World{wInc, wRef} {
		w.Net.ArmFaults(churn, seedmix.Mix(seed, faults.StreamArm))
	}
	rInc, rRef := NewRunner(wInc, cfg), NewRunner(wRef, cfg)
	round := func(name string) *Snapshot {
		t.Helper()
		rRef.ForceFullRound()
		got, want := rInc.Measure(), rRef.Measure()
		if d := snapshotDiff(got, want); d != "" {
			t.Fatalf("%s: incremental snapshot diverged from scratch in %s", name, d)
		}
		return got
	}
	base := round("baseline")
	// The churned tNode host that is also a vVP with the highest background
	// rate: the cutoff drops below it, and below as few others as can be.
	var shared *scan.VVP
	for _, vs := range base.VVPsByAS {
		for i, v := range vs {
			churned := faults.Bernoulli(churn.ChurnProb, wInc.Net.FaultSeed, faults.StreamChurn, int64(inet.V4Int(v.Addr)))
			isTNode := slices.ContainsFunc(base.TNodes, func(tn scan.TNode) bool { return tn.Addr == v.Addr })
			if churned && isTNode && (shared == nil || v.BackgroundRate > shared.BackgroundRate) {
				shared = &vs[i]
			}
		}
	}
	if shared == nil {
		t.Fatal("no churned vVP is also a tNode; the pin is vacuous")
	}
	cutoff := cfg.BackgroundCutoff
	for _, c := range []float64{math.Nextafter(shared.BackgroundRate, 0), cutoff} {
		rInc.Cfg.BackgroundCutoff, rRef.Cfg.BackgroundCutoff = c, c
		if m := round(fmt.Sprintf("cutoff %v", c)).Metrics; m.PairsRemeasured == 0 {
			t.Fatalf("cutoff %v: the tNode host %v came and went without a re-measurement", c, shared.Addr)
		}
	}
}

// TestRoundFingerprintFlush: Measure compares the round fingerprint once. An
// unchanged one keeps the pair cache and the tNode memo, so a quiet round
// re-measures and re-scans nothing; a changed one (here the seed) empties
// both and drops the vVP discovery, which the seed drives too, so the next
// round re-measures every pair and re-scans every tNode candidate, and its
// snapshot equals a fresh runner's under the new seed.
func TestRoundFingerprintFlush(t *testing.T) {
	r := smallWorldRunner(t)
	cold := r.Measure().Metrics
	if m := r.Measure().Metrics; m.PairsRemeasured != 0 || m.TNodesRequalified != 0 {
		t.Fatalf("unchanged fingerprint: %d pairs re-measured, %d tNode candidates re-scanned", m.PairsRemeasured, m.TNodesRequalified)
	}
	r.Cfg.Seed++
	got := r.Measure()
	if m := got.Metrics; m.PairsReused != 0 || m.PairsRemeasured != m.PairsMeasured || m.TNodesRequalified != cold.TNodesRequalified {
		t.Fatalf("changed fingerprint: reused %d of %d pairs, re-scanned %d of %d tNode candidates",
			m.PairsReused, m.PairsMeasured, m.TNodesRequalified, cold.TNodesRequalified)
	}
	if d := snapshotDiff(got, NewRunner(r.W, r.Cfg).Measure()); d != "" {
		t.Fatalf("after the seed changed the snapshot diverged from a fresh runner's in %s", d)
	}
}
