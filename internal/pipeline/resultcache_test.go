package pipeline

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/scan"
)

func testTNode(last byte) scan.TNode {
	return scan.TNode{Addr: netip.AddrFrom4([4]byte{192, 0, 2, last}), Port: 443}
}

func testUnit(asn inet.ASN, lasts ...byte) Unit {
	u := Unit{ASN: asn}
	for _, l := range lasts {
		u.VVPs = append(u.VVPs, scan.VVP{Addr: netip.AddrFrom4([4]byte{198, 51, byte(asn), l}), ASN: asn})
	}
	return u
}

// testRound drives one round the way core.Runner.Measure does: lay out,
// validate, "measure" every missed cell as a result whose Attempts field
// records the round it was measured in. It returns the missed cells.
func testRound(c *ResultCache, round int, tnodes []scan.TNode, units []Unit, client DestStamp, rows, cols []DestStamp) []int {
	c.SetLayout(tnodes, units)
	if rows == nil {
		rows = make([]DestStamp, len(tnodes))
	}
	if cols == nil {
		for _, u := range units {
			cols = append(cols, make([]DestStamp, len(u.VVPs))...)
		}
	}
	miss := c.Reuse(client, rows, cols, nil)
	for _, i := range miss {
		c.Results()[i] = detect.PairResult{Usable: true, Attempts: round}
	}
	return miss
}

func TestResultCacheHitRequiresExactStamp(t *testing.T) {
	c := NewResultCache()
	c.BeginRound()
	tnodes := []scan.TNode{testTNode(1)}
	units := []Unit{testUnit(100, 1)}
	client := DestStamp{ID: 1, Epoch: 7}
	rows := []DestStamp{{ID: 3, Epoch: 5}}
	cols := []DestStamp{{ID: 2, Epoch: 6}}
	if miss := testRound(c, 1, tnodes, units, client, rows, cols); !reflect.DeepEqual(miss, []int{0}) {
		t.Fatalf("cold round missed %v, want [0]", miss)
	}
	if miss := testRound(c, 2, tnodes, units, client, rows, cols); len(miss) != 0 {
		t.Fatalf("exact stamp must hit, missed %v", miss)
	}
	if got := c.Results()[0]; got.Attempts != 1 {
		t.Fatalf("hit returned %+v, want the round-1 result", got)
	}
	// Each stale component must miss once (the miss re-stamps the cell, so
	// every case starts from a fresh hit on the base stamps).
	for name, mutate := range map[string]func(cl *DestStamp, row, col *DestStamp){
		"epoch":         func(cl, row, col *DestStamp) { col.Epoch = 8 },
		"lpm-id":        func(cl, row, col *DestStamp) { col.ID = 9 },
		"vvp-vanished":  func(cl, row, col *DestStamp) { col.Vanished = true },
		"tn-vanished":   func(cl, row, col *DestStamp) { row.Vanished = true },
		"tn-lpm-id":     func(cl, row, col *DestStamp) { row.ID = 9 },
		"client-lpm-id": func(cl, row, col *DestStamp) { cl.ID = 5 },
	} {
		testRound(c, 3, tnodes, units, client, rows, cols)
		cl, row, col := client, rows[0], cols[0]
		mutate(&cl, &row, &col)
		if miss := testRound(c, 4, tnodes, units, cl, []DestStamp{row}, []DestStamp{col}); len(miss) != 1 {
			t.Fatalf("stale %s stamp must miss", name)
		}
	}
	// An epoch below the pair's max is not part of the stamp: the max of
	// the three destinations is.
	testRound(c, 5, tnodes, units, client, rows, cols)
	if miss := testRound(c, 6, tnodes, units, client, []DestStamp{{ID: 3, Epoch: 6}}, cols); len(miss) != 0 {
		t.Fatal("a destination epoch below the pair's max moved the stamp")
	}
	// Another tNode is another identity.
	if miss := testRound(c, 7, []scan.TNode{testTNode(2)}, units, client, rows, cols); len(miss) != 1 {
		t.Fatal("unknown identity must miss")
	}
}

// TestResultCacheStatsAndFlush: Reuse's miss list is the round's re-measure
// count (Metrics.PairsRemeasured), and Flush empties every cell.
func TestResultCacheStatsAndFlush(t *testing.T) {
	c := NewResultCache()
	c.BeginRound()
	tnodes, units := []scan.TNode{testTNode(1)}, []Unit{testUnit(100, 1)}
	for round, tc := range []struct {
		client DestStamp
		misses int
	}{
		{DestStamp{}, 1},         // empty cell
		{DestStamp{}, 0},         // hit
		{DestStamp{Epoch: 2}, 1}, // stale stamp
	} {
		if miss := testRound(c, round+1, tnodes, units, tc.client, nil, nil); len(miss) != tc.misses {
			t.Fatalf("round %d missed %v, want %d cells", round+1, miss, tc.misses)
		}
	}
	c.Flush()
	c.Flush() // already empty
	if c.Len() != 0 {
		t.Fatalf("Len after flush = %d", c.Len())
	}
	if miss := testRound(c, 4, tnodes, units, DestStamp{Epoch: 2}, nil, nil); len(miss) != 1 {
		t.Fatalf("flushed cell hit: missed %v", miss)
	}
}

func TestResultCacheNilReceiver(t *testing.T) {
	var c *ResultCache
	c.BeginRound()
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("nil cache Len must be zero")
	}
}

// TestResultCacheLayoutShift pins what survives a layout change: a row
// follows its tNode to any index, previous states included, a column
// follows its (ASN, vVP address), and a row the layout dropped is parked
// and returns.
func TestResultCacheLayoutShift(t *testing.T) {
	c := NewResultCache()
	t1, t2, t3 := testTNode(1), testTNode(2), testTNode(3)
	unitsA := []Unit{testUnit(100, 1, 2), testUnit(200, 1)}
	keyA := PairKey{Routes: [NumRoutes]uint32{1, 2, 3, 4, 5}}
	keyB := keyA
	keyB.Routes[RouteVVPTNode] = 9
	// round lays the grid out under the given row stamps and settles every
	// cell whose stamp moved under key.
	round := func(n int, tnodes []scan.TNode, units []Unit, rows []DestStamp, key PairKey) (stale []int, verdicts [3]int) {
		t.Helper()
		c.BeginRound()
		c.SetLayout(tnodes, units)
		var cols []DestStamp
		for _, u := range units {
			cols = append(cols, make([]DestStamp, len(u.VVPs))...)
		}
		stale = c.Reuse(DestStamp{}, rows, cols, nil)
		return stale, settle(c, stale, key, n)
	}
	measuredIn := func() []int {
		var out []int
		for _, res := range c.Results() {
			out = append(out, res.Attempts)
		}
		return out
	}
	check := func(name string, stale, wantStale []int, verdicts, wantVerdicts [3]int, wantIn ...int) {
		t.Helper()
		if !reflect.DeepEqual(stale, wantStale) || verdicts != wantVerdicts {
			t.Fatalf("%s: stale %v with verdicts %v, want %v with %v", name, stale, verdicts, wantStale, wantVerdicts)
		}
		if got := measuredIn(); !reflect.DeepEqual(got, wantIn) {
			t.Fatalf("%s: the grid serves results of rounds %v, want %v", name, got, wantIn)
		}
	}

	// Grid order is unit-major, (tNode, vVP) within a unit: under layout A,
	// t3's cells are 4 and 5 (AS 100) and 8 (AS 200). t3's routes move in
	// round 2, so its round-1 results become its cells' previous states.
	round(1, []scan.TNode{t1, t2, t3}, unitsA, make([]DestStamp, 3), keyA)
	stale, v := round(2, []scan.TNode{t1, t2, t3}, unitsA, []DestStamp{{}, {}, {Epoch: 1}}, keyA)
	check("stamp moved, key held", stale, []int{4, 5, 8}, v, [3]int{1: 3}, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	stale, v = round(2, []scan.TNode{t1, t2, t3}, unitsA, []DestStamp{{}, {}, {Epoch: 2}}, keyB)
	check("t3 re-measured", stale, []int{4, 5, 8}, v, [3]int{0: 3}, 1, 1, 1, 1, 2, 2, 1, 1, 2)
	// Layout B drops t2 and shifts t3 to index 1. t3's routes come back: its
	// cells get their previous states back, which moved with the row.
	stale, v = round(3, []scan.TNode{t1, t3}, unitsA, []DestStamp{{}, {Epoch: 3}}, keyA)
	check("shifted row", stale, []int{2, 3, 5}, v, [3]int{2: 3}, 1, 1, 1, 1, 1, 1)
	// Back to A within the retention window: t2 returns from the parked set
	// with its round-1 cells and nothing is stale.
	stale, v = round(4, []scan.TNode{t1, t2, t3}, unitsA, []DestStamp{{}, {}, {Epoch: 3}}, keyA)
	check("returning row", stale, nil, v, [3]int{}, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	// Columns shift: AS 100 loses its first vVP (its second moves to index
	// 0 and keeps its cells), AS 150 appears, AS 200 is untouched.
	unitsB := []Unit{testUnit(100, 2), testUnit(150, 1), testUnit(200, 1)}
	stale, v = round(5, []scan.TNode{t1, t2, t3}, unitsB, []DestStamp{{}, {}, {Epoch: 3}}, keyA)
	check("shifted columns", stale, []int{3, 4, 5}, v, [3]int{0: 3}, 1, 1, 1, 5, 5, 5, 1, 1, 1)
}

// TestResultCacheParkedRowsAgeOut: a row no layout names for
// rowRetainRounds rounds is dropped, one named in time is not.
func TestResultCacheParkedRowsAgeOut(t *testing.T) {
	units := []Unit{testUnit(100, 1)}
	for _, away := range []int{rowRetainRounds, rowRetainRounds + 1} {
		c := NewResultCache()
		c.BeginRound()
		testRound(c, 1, []scan.TNode{testTNode(1), testTNode(2)}, units, DestStamp{}, nil, nil)
		for i := 0; i < away; i++ {
			c.BeginRound()
			testRound(c, 2, []scan.TNode{testTNode(1)}, units, DestStamp{}, nil, nil)
		}
		c.BeginRound()
		miss := testRound(c, 3, []scan.TNode{testTNode(1), testTNode(2)}, units, DestStamp{}, nil, nil)
		if kept := len(miss) == 0; kept != (away <= rowRetainRounds) {
			t.Fatalf("row away for %d rounds: kept=%v (retention %d)", away, kept, rowRetainRounds)
		}
	}
}

// TestResultCacheParkedRowsCapped: a layout that changes every round parks a
// row per round; beyond maxParkedGrids live grids the oldest go first, well
// inside the age window.
func TestResultCacheParkedRowsCapped(t *testing.T) {
	units := []Unit{testUnit(100, 1)}
	c := NewResultCache()
	const rounds = 3 * maxParkedGrids // one live row: the cap is maxParkedGrids rows
	for i := 1; i <= rounds; i++ {
		c.BeginRound()
		testRound(c, i, []scan.TNode{testTNode(byte(i))}, units, DestStamp{}, nil, nil)
		if c.Len() > ResultCacheMaxGrids {
			t.Fatalf("round %d: cache holds %d results for a live grid of 1", i, c.Len())
		}
	}
	c.BeginRound()
	if miss := testRound(c, rounds+1, []scan.TNode{testTNode(1)}, units, DestStamp{}, nil, nil); len(miss) != 1 {
		t.Fatal("the oldest parked row outlived the cap")
	}
	c.BeginRound()
	if miss := testRound(c, rounds+2, []scan.TNode{testTNode(rounds - 2)}, units, DestStamp{}, nil, nil); len(miss) != 0 {
		t.Fatal("a recently parked row was evicted before older ones")
	}
}

// settle runs Revalidate over the cells Reuse reported, under one key for
// every cell, "measures" the ones it must as round-stamped results, and
// counts the verdicts.
func settle(c *ResultCache, stale []int, key PairKey, round int) (counts [3]int) {
	for _, i := range stale {
		v := c.Revalidate(i, key)
		counts[v]++
		if v == Remeasure {
			c.Results()[i] = detect.PairResult{Usable: true, Attempts: round, IDs: []uint16{uint16(round)}}
		}
	}
	return counts
}

// TestResultCacheRevalidateAndRestore: a cell whose stamp moved keeps its
// result under its own key, gets its previous result back under the
// previous state's key, is re-measured under any other — and a key with an
// unknown (zero) route matches nothing, not even itself.
func TestResultCacheRevalidateAndRestore(t *testing.T) {
	c := NewResultCache()
	tnodes, units := []scan.TNode{testTNode(1)}, []Unit{testUnit(100, 1)}
	keyA := PairKey{Routes: [NumRoutes]uint32{1, 2, 3, 4, 5}}
	keyB := keyA
	keyB.Routes[RouteVVPTNode] = 9
	unknown := keyA
	unknown.Routes[RouteTNodeVVP] = 0
	round := func(n int, epoch uint64, key PairKey) [3]int {
		t.Helper()
		c.BeginRound()
		c.SetLayout(tnodes, units)
		stale := c.Reuse(DestStamp{Epoch: epoch}, make([]DestStamp, 1), make([]DestStamp, 1), nil)
		return settle(c, stale, key, n)
	}
	measuredIn := func() int { return c.Results()[0].Attempts }
	for _, tc := range []struct {
		name  string
		epoch uint64
		key   PairKey
		want  Revalidation
		in    int // the round the cell's result was measured in, after
	}{
		{"cold", 1, keyA, Remeasure, 1},
		{"stamp moved, key held", 2, keyA, Revalidated, 1},
		{"route moved", 3, keyB, Remeasure, 3},
		{"route came back", 4, keyA, Restored, 1},
		{"route moved again", 5, keyB, Restored, 3},
		{"unknown route", 6, unknown, Remeasure, 6},
		{"unknown route again", 7, unknown, Remeasure, 7},
		{"previous state's key after unknown ones", 8, keyB, Restored, 3},
	} {
		var want [3]int
		want[tc.want] = 1
		if got := round(tc.in, tc.epoch, tc.key); got != want {
			t.Fatalf("%s: verdicts %v, want %v", tc.name, got, want)
		}
		if got := measuredIn(); got != tc.in {
			t.Fatalf("%s: the cell holds the result of round %d, want %d", tc.name, got, tc.in)
		}
	}
	if got := c.Results()[0]; !reflect.DeepEqual(got.IDs, []uint16{3}) || got.VVP != (netip.Addr{}) {
		t.Fatalf("the cell holds %+v", got)
	}
	// Flush forgets both states.
	c.Flush()
	if got := round(9, 9, keyA); got != [3]int{1, 0, 0} {
		t.Fatalf("after Flush: verdicts %v, want one re-measure", got)
	}
}

// TestPrevSlotCoversPairResult: a previous state keeps every field of a
// result but the pair's identity (VVP, TNode), which the current result
// shares. A field added to detect.PairResult must be added to prevSlot.
func TestPrevSlotCoversPairResult(t *testing.T) {
	var names []string
	rt := reflect.TypeOf(detect.PairResult{})
	for i := 0; i < rt.NumField(); i++ {
		names = append(names, rt.Field(i).Name)
	}
	want := []string{"VVP", "TNode", "Outcome", "Usable", "SimEvents", "FNRate", "Attempts", "IDs", "Times"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("detect.PairResult has fields %v; prevSlot.exchange moves %v", names, want[2:])
	}
	a := detect.PairResult{VVP: netip.MustParseAddr("192.0.2.1"), Outcome: detect.OutboundFiltering, Usable: true,
		SimEvents: 7, FNRate: 0.5, Attempts: 2, IDs: []uint16{1}, Times: []float64{2}}
	b := detect.PairResult{VVP: a.VVP, Outcome: detect.NoFiltering, SimEvents: 9, FNRate: 0.25, Attempts: 1,
		IDs: []uint16{3}, Times: []float64{4}}
	ka, kb := PairKey{Routes: [NumRoutes]uint32{1}}, PairKey{Routes: [NumRoutes]uint32{2}}
	var p prevSlot
	key, cur := ka, a
	p.exchange(&key, &cur) // a becomes the previous state
	key, cur = kb, b
	p.exchange(&key, &cur) // and comes back
	if key != ka || !reflect.DeepEqual(cur, a) {
		t.Fatalf("restored %v %+v, want %v %+v", key, cur, ka, a)
	}
	if p.key != kb {
		t.Fatalf("previous state keyed %v, want %v", p.key, kb)
	}
}
