package store

import (
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// testRecord builds a small hand-written round.
func testRecord(day int, scores map[inet.ASN]float64) *RoundRecord {
	rec := &RoundRecord{
		Day:              day,
		Status:           pipeline.RoundOK,
		TestPrefixes:     7,
		TNodes:           5,
		AllVVPs:          40,
		ConsistencyCenti: 9510,
		Evidence: Evidence{
			PairsMeasured: 100, PairsUsable: 93, PairsDiscarded: 7,
			Profile: "none",
		},
	}
	for asn, sc := range scores {
		rec.Entries = append(rec.Entries, Entry{
			ASN: asn, Centi: centi(sc), VVPs: 2,
			TNodesMeasured: 5, TNodesFiltered: uint32(sc * 5 / 100),
			Unanimous: true,
		})
	}
	return rec
}

func TestAppendReloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := []map[inet.ASN]float64{
		{10: 0, 20: 50, 30: 100},
		{10: 20, 20: 50, 40: 99.99},
		{10: 20, 30: 100, 40: 0.01},
	}
	for i, sc := range rounds {
		if err := st.Append(testRecord(i*5, sc)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]*RoundRecord, st.Rounds())
	for i := range want {
		want[i] = st.Round(i)
	}
	gen := st.Generation()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Rounds() != len(rounds) {
		t.Fatalf("reloaded %d rounds, want %d", re.Rounds(), len(rounds))
	}
	for i := range want {
		if !reflect.DeepEqual(re.Round(i), want[i]) {
			t.Fatalf("round %d mismatch after reload:\n got %+v\nwant %+v", i, re.Round(i), want[i])
		}
	}
	if re.Generation() == 0 || gen == 0 {
		t.Fatal("generation must advance with appends")
	}

	// Index semantics.
	if p, ok := re.Current(10); !ok || p.Round != 2 || p.Score() != 20 {
		t.Fatalf("Current(10) = %+v, %v", p, ok)
	}
	if p, ok := re.Current(20); !ok || p.Round != 1 || p.Score() != 50 {
		t.Fatalf("Current(20) = %+v, %v (must be last round the AS appeared in)", p, ok)
	}
	if _, ok := re.Current(999); ok {
		t.Fatal("Current of unknown ASN must miss")
	}
	if s := re.Series(10); len(s) != 3 || s[0].Score() != 0 || s[2].Round != 2 {
		t.Fatalf("Series(10) = %+v", s)
	}
	if e, ok := re.EntryAt(40, 1); !ok || e.Score() != 99.99 {
		t.Fatalf("EntryAt(40, 1) = %+v, %v", e, ok)
	}
	if _, ok := re.EntryAt(40, 0); ok {
		t.Fatal("EntryAt(40, 0) must miss: AS not scored in round 0")
	}

	// Appending after reload continues the history.
	if err := re.Append(testRecord(15, map[inet.ASN]float64{10: 30})); err != nil {
		t.Fatal(err)
	}
	if re.Rounds() != 4 || re.Round(3).Round != 3 {
		t.Fatalf("append after reload: rounds=%d", re.Rounds())
	}
}

func TestTopNAndDiff(t *testing.T) {
	st, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	must(t, st.Append(testRecord(0, map[inet.ASN]float64{1: 10, 2: 90, 3: 90, 4: 0})))
	must(t, st.Append(testRecord(5, map[inet.ASN]float64{1: 10, 2: 95, 5: 40})))

	top := st.TopN(2, true)
	if len(top) != 2 || top[0].ASN != 2 || top[1].ASN != 5 {
		t.Fatalf("TopN(2, protected) = %+v", top)
	}
	bottom := st.TopN(10, false)
	if len(bottom) != 3 || bottom[0].ASN != 1 {
		t.Fatalf("TopN(10, unprotected) = %+v", bottom)
	}

	diff, err := st.Diff(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// AS2 changed 90→95; AS3 and AS4 vanished; AS5 appeared; AS1 unchanged.
	wantKinds := map[inet.ASN]string{2: "changed", 3: "vanished", 4: "vanished", 5: "appeared"}
	if len(diff) != len(wantKinds) {
		t.Fatalf("diff = %+v", diff)
	}
	for _, d := range diff {
		switch wantKinds[d.ASN] {
		case "changed":
			if d.Appeared || d.Vanished || d.From.Score() != 90 || d.To.Score() != 95 {
				t.Fatalf("bad changed entry %+v", d)
			}
		case "vanished":
			if !d.Vanished {
				t.Fatalf("bad vanished entry %+v", d)
			}
		case "appeared":
			if !d.Appeared {
				t.Fatalf("bad appeared entry %+v", d)
			}
		default:
			t.Fatalf("unexpected diff ASN %v", d.ASN)
		}
	}
	if _, err := st.Diff(0, 7); err == nil {
		t.Fatal("out-of-range diff must error")
	}
}

func TestSegmentRollCompactReload(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		must(t, st.Append(testRecord(i, map[inet.ASN]float64{10: float64(i * 10), 20: 50})))
	}
	if n := countSegs(t, dir); n != 4 {
		t.Fatalf("got %d segments before compaction, want 4", n)
	}
	want := snapshotRecords(st)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := countSegs(t, dir); n != 1 {
		t.Fatalf("got %d segments after compaction, want 1", n)
	}
	if got := snapshotRecords(st); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed logical content")
	}
	// Appends continue into the compacted segment, and reload sees all.
	must(t, st.Append(testRecord(7, map[inet.ASN]float64{10: 70})))
	must(t, st.Close())
	re, err := Open(dir, Config{SegmentRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Rounds() != 8 {
		t.Fatalf("reloaded %d rounds after compact+append, want 8", re.Rounds())
	}
	for i, rec := range want {
		if !reflect.DeepEqual(re.Round(i), rec) {
			t.Fatalf("round %d mismatch after compact+reload", i)
		}
	}
}

func TestFromSnapshot(t *testing.T) {
	snap := &core.Snapshot{
		Day:                    42,
		TestPrefixes:           9,
		AllVVPs:                33,
		ConsistentPairFraction: 0.951,
		Status:                 pipeline.RoundInsufficientTNodes,
		Reports: map[inet.ASN]*core.ASReport{
			7: {ASN: 7, Score: 62.5, VVPs: 3, TNodesMeasured: 8, TNodesFiltered: 5, Unanimous: true},
			3: {ASN: 3, Score: 0, VVPs: 2, TNodesMeasured: 4, Unanimous: false},
		},
		Metrics: &pipeline.Metrics{
			PairsMeasured: 50, PairsUsable: 44, PairsDiscarded: 6,
			Faults: pipeline.FaultMetrics{Profile: "paper", PairRetries: 4, VVPsChurned: 1},
		},
	}
	rec := FromSnapshot(snap)
	if rec.Day != 42 || rec.Status != pipeline.RoundInsufficientTNodes || rec.TestPrefixes != 9 || rec.AllVVPs != 33 {
		t.Fatalf("header fields: %+v", rec)
	}
	if rec.ConsistencyCenti != 9510 {
		t.Fatalf("consistency = %d", rec.ConsistencyCenti)
	}
	if len(rec.Entries) != 2 || rec.Entries[0].ASN != 3 || rec.Entries[1].ASN != 7 {
		t.Fatalf("entries must be ASN-sorted: %+v", rec.Entries)
	}
	if rec.Entries[1].Score() != 62.5 || !rec.Entries[1].Unanimous || rec.Entries[0].Unanimous {
		t.Fatalf("entry content: %+v", rec.Entries)
	}
	if rec.Evidence.Profile != "paper" || rec.Evidence.PairRetries != 4 || rec.Evidence.PairsDiscarded != 6 {
		t.Fatalf("evidence: %+v", rec.Evidence)
	}

	// Nil metrics must not panic and leaves zero evidence.
	snap.Metrics = nil
	if ev := FromSnapshot(snap).Evidence; ev != (Evidence{}) {
		t.Fatalf("evidence without metrics: %+v", ev)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := SynthConfig{ASes: 50, Rounds: 6, Seed: 99}
	a, err := Open(t.TempDir(), Config{})
	must(t, err)
	defer a.Close()
	must(t, Synthesize(a, cfg))
	b, err := Open(t.TempDir(), Config{})
	must(t, err)
	defer b.Close()
	must(t, Synthesize(b, cfg))
	if !reflect.DeepEqual(snapshotRecords(a), snapshotRecords(b)) {
		t.Fatal("same seed must synthesize identical stores")
	}
	c, err := Open(t.TempDir(), Config{})
	must(t, err)
	defer c.Close()
	cfg.Seed = 100
	must(t, Synthesize(c, cfg))
	if reflect.DeepEqual(snapshotRecords(a), snapshotRecords(c)) {
		t.Fatal("different seeds must differ")
	}
	if a.Rounds() != 6 || len(a.Latest().Entries) != 50 {
		t.Fatalf("synthesized shape: rounds=%d entries=%d", a.Rounds(), len(a.Latest().Entries))
	}
}

// TestConcurrentAppendQuery exercises the live writer vs. reader contract
// under the race detector (make race runs this package with -race).
func TestConcurrentAppendQuery(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	must(t, Synthesize(st, SynthConfig{ASes: 30, Rounds: 1, Seed: 7}))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			asn := inet.ASN(1000 + worker)
			for {
				select {
				case <-done:
					return
				default:
				}
				st.Current(asn)
				st.Series(asn)
				st.TopN(5, worker%2 == 0)
				if n := st.Rounds(); n >= 2 {
					if _, err := st.Diff(0, n-1); err != nil {
						t.Error(err)
						return
					}
				}
				st.Generation()
			}
		}(i)
	}
	for r := 0; r < 30; r++ {
		must(t, st.Append(testRecord(r, map[inet.ASN]float64{1000: float64(r % 100), 1001: 50})))
		if r == 15 {
			must(t, st.Compact())
		}
	}
	close(done)
	wg.Wait()
	if st.Rounds() != 31 {
		t.Fatalf("rounds = %d", st.Rounds())
	}
}

// TestQueryPathLockFree is the contention-free-read guard: the writer
// mutex is the only lock in the package, and no query may acquire it. Any
// regression that reintroduces locking on the read path (a helper that
// grabs mu, a delegate that forgets the snapshot) trips the counter.
func TestQueryPathLockFree(t *testing.T) {
	st, err := Open(t.TempDir(), Config{})
	must(t, err)
	defer st.Close()
	must(t, Synthesize(st, SynthConfig{ASes: 50, Rounds: 8, Seed: 3}))

	base := st.WriterLockAcquisitions()
	for i := 0; i < 1000; i++ {
		asn := inet.ASN(1000 + i%50)
		st.Generation()
		st.Rounds()
		st.Round(i % 8)
		st.Latest()
		st.Current(asn)
		st.Series(asn)
		st.EntryAt(asn, i%8)
		st.TopN(10, i%2 == 0)
		if _, err := st.Diff(0, 7); err != nil {
			t.Fatal(err)
		}
		v := st.View()
		v.Current(asn)
		v.TopN(5, true)
	}
	if got := st.WriterLockAcquisitions(); got != base {
		t.Fatalf("query path acquired %d locks (writer-lock count %d → %d); reads must be lock-free", got-base, base, got)
	}
}

// TestSnapshotConsistencyUnderAppendCompact is the torn-index guard for
// the lock-free read path: while one writer appends and compacts, readers
// grab Views and assert every publication is complete and
// generation-consistent — the generation equals the round count, the
// latest record's index matches, and the history index agrees with the
// records for an AS present in every round. Runs under `make race`.
func TestSnapshotConsistencyUnderAppendCompact(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentRounds: 4})
	must(t, err)
	defer st.Close()
	must(t, st.Append(testRecord(0, map[inet.ASN]float64{1000: 10, 1001: 50})))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v := st.View()
				n := v.Rounds()
				if got := v.Generation(); got != uint64(n) {
					t.Errorf("torn snapshot: generation %d with %d rounds", got, n)
					return
				}
				latest := v.Latest()
				if latest == nil || latest.Round != uint32(n-1) {
					t.Errorf("torn snapshot: latest %+v with %d rounds", latest, n)
					return
				}
				// AS 1000 is in every appended round: its history must
				// track the round count exactly, ending at the latest
				// round with the latest round's score.
				hist := v.Series(1000)
				if len(hist) != n {
					t.Errorf("torn index: %d history points for 1000 with %d rounds", len(hist), n)
					return
				}
				last := hist[len(hist)-1]
				if last.Round != uint32(n-1) {
					t.Errorf("torn index: history ends at round %d, latest is %d", last.Round, n-1)
					return
				}
				if e, ok := latest.Entry(1000); !ok || e.Centi != last.Centi {
					t.Errorf("torn index: history score %d, record score %+v ok=%v", last.Centi, e, ok)
					return
				}
			}
		}()
	}
	for r := 1; r < 40; r++ {
		must(t, st.Append(testRecord(r, map[inet.ASN]float64{1000: float64(r % 100), 1001: 50, inet.ASN(2000 + r): 75})))
		if r%10 == 0 {
			must(t, st.Compact())
		}
	}
	close(done)
	wg.Wait()
	if st.Rounds() != 40 {
		t.Fatalf("rounds = %d", st.Rounds())
	}
}

// TestAppendCostIsFlatInHistory: Append extends the archive in place, so
// the bytes it allocates per round do not grow with the rounds already
// archived. A copy of the records slice per append would cost 8 bytes per
// archived round: 80 KB an append at 10,000 rounds.
func TestAppendCostIsFlatInHistory(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentRounds: 1 << 20})
	must(t, err)
	defer st.Close()
	scores := map[inet.ASN]float64{10: 20, 20: 80}
	appendTo := func(rounds int) {
		for st.Rounds() < rounds {
			must(t, st.Append(testRecord(st.Rounds(), scores)))
		}
	}
	// bytesPerAppend averages over a window long enough to spread the
	// slices' occasional doubling.
	bytesPerAppend := func(from int) float64 {
		const window = 1000
		appendTo(from)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		appendTo(from + window)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / window
	}
	early, late := bytesPerAppend(100), bytesPerAppend(10000)
	t.Logf("bytes per Append: %.0f at 100 archived rounds, %.0f at 10,000", early, late)
	if late > 2*early+256 {
		t.Errorf("Append allocates %.0f bytes at 10,000 archived rounds, %.0f at 100: it grows with the archive", late, early)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func countSegs(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.rvs"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

func snapshotRecords(st *Store) []*RoundRecord {
	out := make([]*RoundRecord, st.Rounds())
	for i := range out {
		out[i] = st.Round(i)
	}
	return out
}
