package main

import (
	"time"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/seedmix"
	"github.com/netsec-lab/rovista/internal/store"
)

const (
	fullRoundStep = 50  // simulated days between rounds
	fullRoundMin  = 3   // rounds measured however long they take
	fullRoundF1   = 0.9 // floor on protected-AS classification against the data plane
)

// fullRound is the paper's own unit, cold: on the default 1,218-AS world,
// advance the timeline, measure a whole round with a fresh runner, archive
// it. No stream, no api.
type fullRound struct {
	opt options
	rec *recorder

	w  builtWorld
	st *scratchStore

	rounds    []time.Duration
	pairRates []float64 // per round: pairs measured per second
	pairs     pairCounters
	statuses  []pipeline.RoundStatus
	reports   []int
	confusion faults.Confusion
	elapsed   time.Duration
}

func newFullRound(opt options, rec *recorder) *fullRound {
	return &fullRound{opt: opt, rec: rec}
}

func (f *fullRound) setup() error {
	var err error
	if f.w, err = buildWorld(core.DefaultWorldConfig(worldSeed)); err != nil {
		return err
	}
	f.st, err = openScratchStore(f.opt.outDir)
	return err
}

func (f *fullRound) close() {
	if f.st != nil {
		f.st.close()
	}
}

// measure runs rounds at days 50, 100, … until the time is up (at least
// fullRoundMin, at most as many as the timeline holds). The load seed is
// the measurement's own randomness; the world does not depend on it.
func (f *fullRound) measure() error {
	start := time.Now()
	deadline := start.Add(time.Duration(f.opt.seconds) * time.Second)
	cfg := core.DefaultRunnerConfig(seedmix.Mix(f.opt.seed, 0xf011))
	for i := 0; (i+1)*fullRoundStep <= f.w.Cfg.Days; i++ {
		if i >= fullRoundMin && !time.Now().Before(deadline) {
			break
		}
		var err error
		var snap *core.Snapshot
		var runner *core.Runner
		var record *store.RoundRecord
		t0 := time.Now()
		f.span("core.advance", i, func() { err = f.w.AdvanceTo((i + 1) * fullRoundStep) })
		if err != nil {
			return err
		}
		measure := f.span("core.measure", i, func() {
			runner = core.NewRunner(f.w.World, cfg) // a fresh runner has no caches: a cold round
			snap = runner.Measure()
		})
		f.span("store.from_snapshot", i, func() { record = store.FromSnapshot(snap) })
		f.span("store.append", i, func() { err = f.st.Append(record) })
		if err != nil {
			return err
		}
		f.rounds = append(f.rounds, time.Since(t0))
		f.pairRates = append(f.pairRates, float64(snap.Metrics.PairsMeasured)/f.rounds[i].Seconds())

		// Untimed: lay the stage spans out, and judge the round against the
		// data plane while the world is still at its day.
		if f.opt.traced {
			f.rec.addStages(i, measure, snap.Metrics.Stages)
		}
		f.pairs.add(snap)
		f.statuses = append(f.statuses, snap.Status)
		f.reports = append(f.reports, len(snap.Reports))
		for asn, rep := range snap.Reports {
			f.confusion.Add(runner.OracleScore(asn, snap.TNodes) >= 50, rep.Score >= 50)
		}
	}
	f.elapsed = time.Since(start)
	return nil
}

// span times fn, recording a span when the run is traced, and returns the
// span's index.
func (f *fullRound) span(name string, round int, fn func()) int {
	if !f.opt.traced {
		fn()
		return -1
	}
	t0 := time.Now()
	fn()
	return f.rec.add(name, round, -1, t0, time.Now())
}

func (f *fullRound) check(r *result) {
	r.Attempted = int64(len(f.rounds))
	for i, st := range f.statuses {
		if st != pipeline.RoundOK {
			r.fail(1, "round %d degraded: %v", i, st)
		} else if f.reports[i] == 0 {
			r.fail(1, "round %d scored no AS", i)
		}
	}
	if f1 := f.confusion.F1(); f1 < fullRoundF1 {
		r.fail(1, "protected-AS F1 against the data plane is %.3f, below %.2f (%+v)", f1, fullRoundF1, f.confusion)
	}
	if f.st.Rounds() != len(f.rounds) {
		r.fail(1, "%d rounds archived of %d measured", f.st.Rounds(), len(f.rounds))
	}
	r.RoundHashes = roundHashes(f.st.Store)
}

func (f *fullRound) report(r *result) {
	var roundMs []float64
	var total time.Duration
	for _, d := range f.rounds {
		roundMs = append(roundMs, ms(d))
		total += d
	}
	r.headline(roundMs, percentile(f.pairRates, 50), int64(f.pairs.measured))
	f.w.report(r)
	r.setLayer("store.bytes_per_round", f.st.bytesPerRound())
	f.pairs.report(r)
	if !f.opt.traced {
		return
	}
	r.timing("core.advance_p50_ms", f.rec.durations("core.advance"))
	r.timing("store.from_snapshot_p50_ms", f.rec.durations("store.from_snapshot"))
	r.timing95("store.append_p50_ms", "store.append_p95_ms", f.rec.durations("store.append"))
	reportMeasureSpans(r, f.rec, total, f.elapsed.Seconds())
}
