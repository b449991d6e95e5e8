// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus the ablations DESIGN.md calls out. Each iteration performs the full
// experiment (world build, convergence, measurement, analysis); ns/op is
// therefore end-to-end regeneration cost. Run:
//
//	go test -bench=. -benchmem
package rovista

import (
	"io"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/experiments"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/stream"
)

// benchmarkMeasureRound times one full measurement round (all five pipeline
// stages) against a prebuilt small world; the world build and convergence
// sit outside the timer, and a warm-up round outside the timer fills the
// vVP cache so iterations compare the measurement itself. Every iteration is
// a forced full round — the from-scratch round cost that the incremental
// benchmarks below are measured against.
func benchmarkMeasureRound(b *testing.B, workers int) {
	w, err := BuildWorld(SmallWorldConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = workers
	r := NewRunner(w, cfg)
	if snap := r.Measure(); len(snap.Reports) == 0 {
		b.Fatal("no reports")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ForceFullRound()
		r.Measure()
	}
}

// BenchmarkMeasureRoundSerial and BenchmarkMeasureRoundParallel compare the
// executor (scan sweeps and pair measurement) at 1 worker vs one per P.
// Results are bit-for-bit identical either way
// (TestMeasureParallelDeterminism); only wall-clock differs, proportional to
// available cores. The parallel pool is pinned to GOMAXPROCS — what -cpu
// sets — rather than left at the executor's NumCPU default: at -cpu 1 on a
// two-core box two workers share one P, and whether the warm-up round made
// the second one allocate its arenas changes allocs/op between runs
// (scripts/benchdiff.sh compares them at -cpu 1).
func BenchmarkMeasureRoundSerial(b *testing.B) { benchmarkMeasureRound(b, 1) }
func BenchmarkMeasureRoundParallel(b *testing.B) {
	benchmarkMeasureRound(b, runtime.GOMAXPROCS(0))
}

// benchmarkMeasureRoundIncremental times an incremental round after churning
// the given fraction of routed prefixes: each iteration withdraws then
// re-announces ceil(churn·origins) prefixes as two separate converged event
// batches (so forwarding epochs genuinely move, unlike the coalesced
// fault-injection flaps) and then runs one round, so ns/op is the steady-state
// cost of a round at that churn rate. The cold cache-filling round sits
// outside the timer. Compare against BenchmarkMeasureRoundSerial for the
// speedup: zero churn re-measures nothing, and the 1%/10% variants re-measure
// only the pairs whose three destinations route through the flapped origins.
func benchmarkMeasureRoundIncremental(b *testing.B, churn float64) {
	w, err := BuildWorld(SmallWorldConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = 1
	r := NewRunner(w, cfg)
	if snap := r.Measure(); len(snap.Reports) == 0 {
		b.Fatal("no reports")
	}
	type origin struct {
		asn inet.ASN
		p   netip.Prefix
	}
	var origins []origin
	for _, asn := range w.Topo.ASNs {
		if ps := w.Topo.Info[asn].Prefixes; len(ps) > 0 {
			origins = append(origins, origin{asn, ps[0]})
		}
	}
	k := 0
	if churn > 0 {
		if k = int(churn * float64(len(origins))); k < 1 {
			k = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			o := origins[(i*k+j)%len(origins)]
			if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{{Kind: bgp.EvWithdraw, AS: o.asn, Prefix: o.p}}); err != nil {
				b.Fatal(err)
			}
			if _, err := w.Graph.ApplyEvents([]bgp.RouteEvent{{Kind: bgp.EvAnnounce, AS: o.asn, Prefix: o.p}}); err != nil {
				b.Fatal(err)
			}
		}
		snap := r.Measure()
		if m := snap.Metrics; churn == 0 && m.PairsRemeasured != 0 {
			b.Fatalf("zero-churn round re-measured %d pairs", m.PairsRemeasured)
		} else if churn > 0 && i == 0 && m.PairsReused == 0 {
			b.Fatal("churn round reused nothing; cache is not engaging")
		}
	}
}

func BenchmarkMeasureRoundIncrementalChurn0(b *testing.B) {
	benchmarkMeasureRoundIncremental(b, 0)
}
func BenchmarkMeasureRoundIncrementalChurn1pct(b *testing.B) {
	benchmarkMeasureRoundIncremental(b, 0.01)
}
func BenchmarkMeasureRoundIncrementalChurn10pct(b *testing.B) {
	benchmarkMeasureRoundIncremental(b, 0.10)
}

// BenchmarkMeasureRoundFlap times a live-saturate-shaped round on the
// medium (400-AS) world: one persistent Runner, and each op applies one
// converged batch that withdraws ten originations (even ops) or
// re-announces the ten the previous op withdrew (odd ops), then measures.
// A round re-measures a handful of pairs, so ns/op is mostly the round's
// bookkeeping over the pair grid; stale/op counts the cells whose stamp
// moved (revalidated + restored + re-measured).
func BenchmarkMeasureRoundFlap(b *testing.B) {
	wcfg, err := core.WorldConfigByName("medium", 7)
	if err != nil {
		b.Fatal(err)
	}
	w, err := BuildWorld(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = 1
	r := NewRunner(w, cfg)
	if snap := r.Measure(); len(snap.Reports) == 0 {
		b.Fatal("no reports")
	}
	origins := stream.WorldOrigins(w)
	order := rand.New(rand.NewSource(7)).Perm(len(origins))
	const perBatch = 10
	batch := make([]bgp.RouteEvent, perBatch)
	stale := 0
	// Two collections empty every sync.Pool, so the first op refills them
	// whatever the set-up's collections left: without this, allocs/op at
	// -benchtime 1x moves by 2 between runs.
	runtime.GC()
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := bgp.EvWithdraw
		if i%2 == 1 {
			kind = bgp.EvAnnounce
		}
		for j := range batch {
			o := origins[order[(i/2*perBatch+j)%len(order)]]
			batch[j] = bgp.RouteEvent{Kind: kind, AS: o.ASN, Prefix: o.Prefix}
		}
		if _, err := w.Graph.ApplyEvents(batch); err != nil {
			b.Fatal(err)
		}
		m := r.Measure().Metrics
		stale += m.PairsRevalidated + m.PairsRestored + m.PairsRemeasured
	}
	b.ReportMetric(float64(stale)/float64(b.N), "stale/op")
}

// BenchmarkMeasureRoundWarmPaper times one warm round on a persistent
// Runner over the default (~1,200-AS) world armed with faults.Paper() at day
// 50: the round a live `rovistad -faults paper` pays when nothing changed.
// The world build, convergence and the cold round sit outside the timer, and
// every timed round must re-measure nothing while still churning its vVPs
// on its own view of the network.
func BenchmarkMeasureRoundWarmPaper(b *testing.B) {
	wcfg := core.DefaultWorldConfig(7)
	wcfg.Faults = faults.Paper()
	w, err := BuildWorld(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AdvanceTo(50); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultRunnerConfig(7)
	cfg.Workers = runtime.GOMAXPROCS(0)
	r := NewRunner(w, cfg)
	if snap := r.Measure(); len(snap.Reports) == 0 {
		b.Fatal("no reports")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := r.Measure().Metrics; m.PairsRemeasured != 0 || m.Faults.VVPsChurned == 0 {
			b.Fatalf("warm round re-measured %d pairs and churned %d vVPs", m.PairsRemeasured, m.Faults.VVPsChurned)
		}
	}
}

func BenchmarkFig1ROACoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1(1, io.Discard)
	}
}

func BenchmarkFig2Timelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(1, io.Discard)
	}
}

func BenchmarkFig3IPIDPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(1, io.Discard)
	}
}

func BenchmarkFig4VVPDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(1, io.Discard)
	}
}

func BenchmarkFig5ScoreCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(1, io.Discard)
	}
}

func BenchmarkFig6FullProtectionTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(1, io.Discard)
	}
}

func BenchmarkFig7ScoreVsRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(1, io.Discard)
	}
}

func BenchmarkFig8CollateralBenefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(1, io.Discard)
	}
}

func BenchmarkFig9CollateralDamage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(1, io.Discard)
	}
}

func BenchmarkFig10SinglePrefixFPFN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(1, io.Discard)
	}
}

func BenchmarkFig11CrowdsourcedList(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(1, io.Discard)
	}
}

func BenchmarkTable1Tier1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(1, io.Discard)
	}
}

func BenchmarkTable2Announcements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Tables2And3(1, io.Discard)
	}
}

// BenchmarkTable3NonROV shares the Tables-2-and-3 pipeline; the negative
// claims are a slice of the same generated comparison.
func BenchmarkTable3NonROV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Tables2And3(2, io.Discard)
		if res.NegTotal == 0 {
			b.Fatal("no negative claims generated")
		}
	}
}

func BenchmarkXValTraceroute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.XVal(1, io.Discard)
	}
}

func BenchmarkCoverageCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Coverage(1, io.Discard)
	}
}

func BenchmarkBGPStreamAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.BGPStream(1, io.Discard)
	}
}

func BenchmarkChallengesDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Challenges(1, io.Discard)
	}
}

func BenchmarkSurveyValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Survey(1, io.Discard)
	}
}

func BenchmarkAblationDetector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationDetector(1, io.Discard)
	}
}

func BenchmarkAblationUnanimity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationUnanimity(1, io.Discard)
	}
}

func BenchmarkAblationTrafficCutoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationTrafficCutoff(1, io.Discard)
	}
}

func BenchmarkAblationExclusivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationExclusivity(1, io.Discard)
	}
}

// BenchmarkAblationMinVVPs measures the MinVVPs=1 variant directly (the
// unanimity ablation covers 2-vs-1; this isolates the relaxed pipeline).
func BenchmarkAblationMinVVPs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := BuildWorld(SmallWorldConfig(3))
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AdvanceTo(0); err != nil {
			b.Fatal(err)
		}
		cfg := DefaultRunnerConfig(3)
		cfg.MinVVPsPerAS = 1
		if snap := NewRunner(w, cfg).Measure(); len(snap.Reports) == 0 {
			b.Fatal("no reports")
		}
	}
}
