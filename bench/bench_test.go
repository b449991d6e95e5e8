package main

import (
	"context"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The reporting rule: quote the highest percentile that still has at least
// ten samples beyond it, and none when the sample is too small for p90.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{8, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance check uses: for 1..10 that is [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([10, 12], n=4) = [9.5, 11.0, 12.5].
	if got, want := quartileSpread([]float64{12, 10}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(10, 12) = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one sample = %g, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var rec recorder
	root := rec.add("stream.sink", 1, -1, at(0), at(100))
	// Recorded out of start order, overlapping, and one running past its
	// parent: covered is [10,50] and [90,100].
	late := rec.add("store.append", 1, root, at(90), at(120))
	b := rec.add("core.measure", 1, root, at(20), at(50))
	a := rec.add("bgp.apply_events", 1, root, at(10), at(30))
	leaf := rec.add("netsim.measure_pairs", 1, b, at(25), at(45))
	other := rec.add("stream.sink", 2, -1, at(200), at(210))

	self := rec.selfTimes()
	want := map[int]time.Duration{
		root: 50 * time.Millisecond, late: 30 * time.Millisecond, b: 10 * time.Millisecond,
		a: 20 * time.Millisecond, leaf: 20 * time.Millisecond, other: 10 * time.Millisecond,
	}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, rec.spans[i].Name, self[i], w)
		}
	}
	byLayer := rec.selfByLayer()
	if got := byLayer["stream"]; got != 60*time.Millisecond {
		t.Errorf("stream self time = %v, want 60ms", got)
	}
	if got := byLayer["netsim"]; got != 20*time.Millisecond {
		t.Errorf("netsim self time = %v, want 20ms", got)
	}
	if got := rec.total("stream.sink"); got != 110*time.Millisecond {
		t.Errorf("total of stream.sink = %v, want 110ms", got)
	}
}

func testOrigins() []stream.Origin {
	var out []stream.Origin
	for i := 0; i < 40; i++ {
		out = append(out, stream.Origin{ASN: inet.ASN(100 + i), Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)})
	}
	return out
}

func testVRPs() []rpki.VRP {
	var out []rpki.VRP
	for _, o := range testOrigins()[:12] {
		out = append(out, rpki.VRP{Prefix: o.Prefix, MaxLength: 16, ASN: o.ASN})
	}
	return out
}

// planShape flattens a plan into comparable values (a VRPSet is a trie
// behind a pointer; its content is its sorted VRP list).
func planShape(plan []timedMsg) []any {
	var out []any
	for _, tm := range plan {
		out = append(out, tm.due, tm.msg.Seq, tm.msg.Time, tm.msg.Events)
		if tm.msg.VRPs != nil {
			out = append(out, tm.msg.VRPs.All())
		}
	}
	return out
}

func TestLivePlanIsAPureFunctionOfSeed(t *testing.T) {
	a := livePlan(7, testOrigins(), testVRPs(), 1000, 200)
	b := livePlan(7, testOrigins(), testVRPs(), 1000, 200)
	c := livePlan(8, testOrigins(), testVRPs(), 1000, 200)
	if !reflect.DeepEqual(planShape(a), planShape(b)) {
		t.Fatal("same seed gave different plans")
	}
	if reflect.DeepEqual(planShape(a), planShape(c)) {
		t.Fatal("different seeds gave the same plan")
	}
	// 1000 flaps at 200/s last 5 s: VRP messages are due on seconds 1..4,
	// each ahead of the flaps due at or after it, and dues never go back.
	var roas int
	for i, tm := range a {
		if i > 0 && tm.due < a[i-1].due {
			t.Fatalf("message %d is due before its predecessor", i)
		}
		if tm.msg.Seq != uint64(i) {
			t.Fatalf("message %d has Seq %d", i, tm.msg.Seq)
		}
		if tm.msg.VRPs != nil {
			roas++
			if tm.due != float64(roas) || len(tm.msg.Events) != 1 {
				t.Fatalf("VRP message %d: due %g with %d events", roas, tm.due, len(tm.msg.Events))
			}
		}
	}
	if roas != 4 || len(a) != 1004 {
		t.Fatalf("plan has %d messages, %d of them VRP replacements; want 1004 and 4", len(a), roas)
	}
}

// Flaps are bounded: the world never has more than flapDown+2 originations
// withdrawn, every event changes routing state, and what is withdrawn is
// announced again.
func TestFlapGenKeepsTheWorldNearlyWhole(t *testing.T) {
	g := newFlapGen(7, testOrigins())
	down := make(map[stream.Origin]bool)
	announced := 0
	for i := 0; i < 2000; i++ {
		ev := g.event(i)
		o := stream.Origin{ASN: ev.AS, Prefix: ev.Prefix}
		switch ev.Kind {
		case bgp.EvWithdraw:
			if down[o] {
				t.Fatalf("event %d withdraws %v, which is already down", i, o)
			}
			down[o] = true
		case bgp.EvAnnounce:
			if !down[o] {
				t.Fatalf("event %d announces %v, which is not down", i, o)
			}
			delete(down, o)
			announced++
		default:
			t.Fatalf("event %d has kind %v", i, ev.Kind)
		}
		if len(down) > flapDown+2 {
			t.Fatalf("after event %d, %d originations are down", i, len(down))
		}
	}
	if announced < 900 {
		t.Errorf("only %d of 2000 events re-announce", announced)
	}
	for j, o := range g.origins {
		if g.withdrawn[j] != down[o] {
			t.Fatalf("withdrawn[%d] = %v, but the events say %v", j, g.withdrawn[j], down[o])
		}
	}
}

func TestVRPGenKeepsOneVRPMissing(t *testing.T) {
	g := newVRPGen(7, testVRPs())
	var prev netip.Prefix
	for k := 1; k <= 30; k++ {
		set, changed := g.next(k)
		if set.Len() != len(testVRPs())-1 {
			t.Fatalf("message %d leaves %d VRPs, want one missing of %d", k, set.Len(), len(testVRPs()))
		}
		removed := changed[len(changed)-1]
		if set.CoversPrefix(removed) {
			t.Fatalf("message %d names %v as removed but still covers it", k, removed)
		}
		if k > 1 && (len(changed) != 2 || changed[0] != prev || !set.CoversPrefix(prev)) {
			t.Fatalf("message %d does not restore %v (changed %v)", k, prev, changed)
		}
		prev = removed
	}
}

func fanoutLatest() *store.RoundRecord {
	rec := &store.RoundRecord{Day: 495, Status: pipeline.RoundOK}
	for i := 0; i < 1000; i++ {
		rec.Entries = append(rec.Entries, store.Entry{ASN: inet.ASN(firstASN + i), Centi: uint16(i * 10)})
	}
	return rec
}

func TestFanoutGenIsAPureFunctionOfSeed(t *testing.T) {
	type round struct {
		rec *store.RoundRecord
		upd stream.Update
	}
	gen := func(seed int64) []round {
		g := newFanoutGen(seed, fanoutLatest())
		var out []round
		for i := 0; i < 20; i++ {
			rec, upd := g.next(uint32(101 + i))
			out = append(out, round{rec, upd})
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different rounds")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same rounds")
	}
	scores := make(map[inet.ASN]float64)
	for _, e := range fanoutLatest().Entries {
		scores[e.ASN] = e.Score()
	}
	for i, r := range a {
		if len(r.upd.Deltas) != fanoutDeltas || len(r.rec.Entries) != 1000 {
			t.Fatalf("round %d: %d deltas, %d entries", i, len(r.upd.Deltas), len(r.rec.Entries))
		}
		moved := make(map[inet.ASN]stream.ScoreDelta)
		for _, d := range r.upd.Deltas {
			if d.Old != scores[d.ASN] || d.New == d.Old {
				t.Fatalf("round %d: delta %+v does not continue from score %g", i, d, scores[d.ASN])
			}
			moved[d.ASN] = d
		}
		// Every filtered subscriber must match every round: each hot AS
		// moves, and by at least the min_delta=1 subscribers ask for.
		for h := 0; h < fanoutHot; h++ {
			d, ok := moved[hotASN(h, 1000)]
			if !ok || math.Abs(d.New-d.Old) < 2 {
				t.Fatalf("round %d: hot AS %v moved by %+v", i, hotASN(h, 1000), d)
			}
		}
		applyDeltas(scores, r.upd.Deltas)
		for _, e := range r.rec.Entries {
			if e.Score() != scores[e.ASN] {
				t.Fatalf("round %d: record and deltas disagree on AS %v", i, e.ASN)
			}
		}
	}
}

func TestQueryGenIsAPureFunctionOfSeed(t *testing.T) {
	type query struct {
		kind queryKind
		uri  string
		addr string
		as   int
	}
	gen := func(seed int64) ([]query, [numQueryKinds]int) {
		g := newQueryGen(seed, 1000)
		var out []query
		var mix [numQueryKinds]int
		for i := 0; i < 20000; i++ {
			kind, u, addr, as := g.next()
			out = append(out, query{kind, u.RequestURI(), addr, as})
			mix[kind]++
		}
		return out, mix
	}
	a, mix := gen(7)
	b, _ := gen(7)
	c, _ := gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different queries")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same queries")
	}
	for kind, share := range [numQueryKinds]float64{0.50, 0.20, 0.15, 0.05, 0.05, 0.05} {
		if got := float64(mix[kind]) / 20000; math.Abs(got-share) > 0.02 {
			t.Errorf("%s queries are %.3f of the mix, want %.2f", queryKindNames[kind], got, share)
		}
	}
}

// An open loop charges a stall to the requests that were due during it:
// their latency counts from the due instant, not from when the blocked
// generator finally got to send them.
func TestOpenLoopChargesStallToDueEvents(t *testing.T) {
	const (
		n       = 300
		stallAt = 50
		stall   = 200 * time.Millisecond
	)
	plan := make([]timedMsg, n)
	for i := range plan {
		plan[i] = timedMsg{due: float64(i) / 1000, msg: stream.Msg{Seq: uint64(i)}} // one a millisecond
	}
	out := make(chan stream.Msg)
	done := make([]time.Time, n)
	var stallEnd time.Time
	consumed := make(chan struct{})
	go func() { // the "sink": instant, except for one stall
		defer close(consumed)
		for m := range out {
			if m.Seq == stallAt {
				time.Sleep(stall)
				stallEnd = time.Now()
			}
			done[m.Seq] = time.Now()
		}
	}()
	start := time.Now()
	due, late, err := sendOnSchedule(context.Background(), start, plan, 50*time.Millisecond, out)
	close(out)
	<-consumed
	if err != nil {
		t.Fatal(err)
	}

	const slack = 20 * time.Millisecond // scheduler noise on a loaded box
	for i := stallAt + 1; i < n; i++ {
		if !due[i].Before(stallEnd) {
			break
		}
		// Due during the stall: served only once it ended.
		if got, atLeast := done[i].Sub(due[i]), stallEnd.Sub(due[i])-slack; got < atLeast {
			t.Fatalf("event %d, due %v into the run, was charged %v; the stall alone cost it %v",
				i, due[i].Sub(start), got, atLeast+slack)
		}
	}
	// Events due before the stall are not charged for it.
	if got := done[10].Sub(due[10]); got > stall/2 {
		t.Errorf("event 10, due before the stall, was charged %v", got)
	}
	if late.max < stall-2*slack {
		t.Errorf("generator lateness max = %v, want about the %v stall", late.max, stall)
	}
	// About 150 sends were due more than 50ms before the stall ended.
	if late.over < 100 || late.of != n || !late.void() {
		t.Errorf("lateness = %+v: want over 100 of %d sends late, a void run", late, n)
	}
	if (lateness{over: 15, of: 300}).void() {
		t.Error("one late send in twenty voids a run")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "visible_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within bound", lower, steady, []float64{108, 109, 107, 108, 108}, "ok"},
		{"past bound", lower, steady, []float64{112, 113, 111, 112, 112}, "worse"},
		{"lower is an improvement", lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"throughput fell", higher, steady, []float64{93, 94, 92, 93, 93}, "worse"},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"too noisy to tell", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestChunkRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var done []time.Time
	var weight []float64
	for i := 0; i <= 6; i++ { // one completion of weight 10 every 100ms
		done = append(done, t0.Add(time.Duration(i)*100*time.Millisecond))
		weight = append(weight, 10)
	}
	done[4] = done[4].Add(50 * time.Millisecond) // one late completion, on a chunk boundary
	got := chunkRates(done, weight, 2)
	want := []float64{20 / 0.2, 20 / 0.25, 20 / 0.15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunkRates = %v, want %v", got, want)
	}
	if got := chunkRates(done[:2], weight[:2], 2); got != nil {
		t.Errorf("chunkRates of fewer than a chunk = %v, want none", got)
	}
}
