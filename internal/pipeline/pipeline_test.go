package pipeline

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/scan"
)

func addr(last byte) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, 0, last})
}

func tnodes(n int) []scan.TNode {
	out := make([]scan.TNode, n)
	for i := range out {
		out[i] = scan.TNode{Addr: addr(byte(i + 1)), Port: 443}
	}
	return out
}

// grid builds a results grid from per-cell outcomes; 'f' = usable outbound
// filtering, 'r' = usable no-filtering, 'i' = usable inbound filtering,
// 'x' = unusable.
func grid(cells string) []detect.PairResult {
	out := make([]detect.PairResult, len(cells))
	for i, c := range cells {
		switch c {
		case 'f':
			out[i] = detect.PairResult{Usable: true, Outcome: detect.OutboundFiltering}
		case 'r':
			out[i] = detect.PairResult{Usable: true, Outcome: detect.NoFiltering}
		case 'i':
			out[i] = detect.PairResult{Usable: true, Outcome: detect.InboundFiltering}
		case 'x':
			out[i] = detect.PairResult{Usable: false, Outcome: detect.Inconclusive}
		}
	}
	return out
}

func TestScoreASAllFiltered(t *testing.T) {
	// 2 tNodes x 2 vVPs, all unanimous outbound filtering: score 100.
	out := ScoreAS(tnodes(2), 2, grid("ffff"))
	if out.Score != 100 || out.TNodesMeasured != 2 || out.TNodesFiltered != 2 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
	if !out.Unanimous || out.ConsistentCells != 2 || out.TotalCells != 2 {
		t.Fatalf("unexpected consistency: %+v", out)
	}
	for i := 0; i < 2; i++ {
		if v, ok := out.Verdicts[addr(byte(i+1))]; !ok || !v {
			t.Fatalf("tNode %d missing filtered verdict: %+v", i, out.Verdicts)
		}
	}
}

func TestScoreASMixedTNodes(t *testing.T) {
	// tNode0 unanimous filtered, tNode1 unanimous reachable: score 50.
	out := ScoreAS(tnodes(2), 2, grid("ffrr"))
	if out.Score != 50 || out.TNodesMeasured != 2 || out.TNodesFiltered != 1 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
	if v := out.Verdicts[addr(1)]; !v {
		t.Fatal("tNode0 should be judged filtered")
	}
	if v := out.Verdicts[addr(2)]; v {
		t.Fatal("tNode1 should be judged reachable")
	}
}

func TestScoreASDisagreementDiscards(t *testing.T) {
	// tNode0's vVPs disagree: the tNode is discarded and unanimity breaks,
	// but tNode1 still counts.
	out := ScoreAS(tnodes(2), 2, grid("frff"))
	if out.Unanimous {
		t.Fatal("disagreement must clear Unanimous")
	}
	if out.TNodesMeasured != 1 || out.TNodesFiltered != 1 || out.Score != 100 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
	if out.ConsistentCells != 1 || out.TotalCells != 2 {
		t.Fatalf("unexpected consistency: %+v", out)
	}
	if _, ok := out.Verdicts[addr(1)]; ok {
		t.Fatal("discarded tNode must not get a verdict")
	}
}

func TestScoreASIgnoresUninformativeOutcomes(t *testing.T) {
	// Inbound filtering and unusable results carry no vote: a tNode with
	// only those contributes nothing, and one informative vote decides.
	out := ScoreAS(tnodes(2), 2, grid("ixxf"))
	if out.TotalCells != 1 || out.TNodesMeasured != 1 || out.TNodesFiltered != 1 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
	if out.Score != 100 || !out.Unanimous {
		t.Fatalf("unexpected outcome: %+v", out)
	}
}

func TestScoreASNothingUsable(t *testing.T) {
	out := ScoreAS(tnodes(1), 2, grid("xx"))
	if out.TNodesMeasured != 0 || out.Score != 0 || out.TotalCells != 0 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
}

func TestExecutorCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		counts := make([]int32, n)
		var mu sync.Mutex
		(&Executor{Workers: workers}).ForEach(n, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestExecutorDeterministicResults(t *testing.T) {
	// Pure per-slot work must yield identical result slices for any pool
	// size — the property the parallel measurement round is built on.
	const n = 200
	run := func(workers int) []int {
		out := make([]int, n)
		(&Executor{Workers: workers}).ForEach(n, func(i int) { out[i] = i*i + 7 })
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8, 0} { // 0 = NumCPU
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d produced different results", workers)
		}
	}
}

func TestExecutorProgressReachesTotal(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls []int
		e := &Executor{Workers: workers, Progress: func(done, total int) {
			if total != 50 {
				t.Fatalf("total = %d", total)
			}
			calls = append(calls, done)
		}}
		e.ForEach(50, func(int) {})
		if len(calls) == 0 || calls[len(calls)-1] != 50 {
			t.Fatalf("workers=%d: progress never reported completion: %v", workers, calls)
		}
		for i := 1; i < len(calls); i++ {
			if calls[i] <= calls[i-1] {
				t.Fatalf("workers=%d: progress not monotonic: %v", workers, calls)
			}
		}
	}
}

func TestExecutorZeroItems(t *testing.T) {
	(&Executor{Workers: 4}).ForEach(0, func(int) { t.Fatal("fn must not run") })
}

// TestExecutorSingleWorkerZeroAlloc pins the Workers=1 fast path: without a
// Progress callback a one-worker ForEach must cost exactly what a plain loop
// costs — no goroutine, no WaitGroup, no allocations.
func TestExecutorSingleWorkerZeroAlloc(t *testing.T) {
	e := &Executor{Workers: 1}
	sink := 0
	fn := func(i int) { sink += i }
	if allocs := testing.AllocsPerRun(100, func() { e.ForEach(64, fn) }); allocs != 0 {
		t.Fatalf("single-worker ForEach allocated %.0f times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("fn never ran")
	}
}

// TestExecutorNilReceiver: a nil *Executor resolves to the default pool and
// must still run every item (the progress hoist must not dereference it).
func TestExecutorNilReceiver(t *testing.T) {
	var e *Executor
	n := 100
	out := make([]int, n)
	e.ForEach(n, func(i int) { out[i] = 1 })
	for i, v := range out {
		if v != 1 {
			t.Fatalf("item %d not run by nil executor", i)
		}
	}
}

func TestMetricsStageTimings(t *testing.T) {
	m := &Metrics{}
	stop := m.StartStage("discover")
	stop()
	m.StartStage("measure")()
	m.StartStage("discover")()
	if _, ok := m.StageDuration("discover"); !ok {
		t.Fatal("discover stage not recorded")
	}
	if _, ok := m.StageDuration("absent"); ok {
		t.Fatal("phantom stage recorded")
	}
	if len(m.Stages) != 3 {
		t.Fatalf("expected 3 timing entries, got %d", len(m.Stages))
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.StartStage("x")()
	if _, ok := m.StageDuration("x"); ok {
		t.Fatal("nil metrics must record nothing")
	}
	if m.String() != "" {
		t.Fatal("nil metrics must render empty")
	}
}
