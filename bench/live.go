package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"sync"
	"time"

	"github.com/netsec-lab/rovista/internal/api"
	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/topology"
)

// worldSeed fixes the simulated Internet every workload measures against:
// the world is the system's configuration, -seed is the load.
const worldSeed = 7

// smokeWorld and mediumWorld are cmd/rovistad's "smoke" and "medium" sizes.
func smokeWorld() core.WorldConfig {
	cfg := core.SmallWorldConfig(worldSeed)
	cfg.Topology = topology.Config{
		Seed: worldSeed, NumTier1: 4, NumTier2: 16, NumTier3: 60, NumStub: 120,
		PrefixesPerAS: 1.2, Tier2PeerProb: 0.3, Tier3PeerProb: 0.04, MultihomeProb: 0.4,
	}
	return cfg
}

func mediumWorld() core.WorldConfig {
	cfg := core.DefaultWorldConfig(worldSeed)
	cfg.Topology = topology.Config{
		Seed: worldSeed, NumTier1: 6, NumTier2: 24, NumTier3: 90, NumStub: 280,
		PrefixesPerAS: 1.3, Tier2PeerProb: 0.3, Tier3PeerProb: 0.03, MultihomeProb: 0.45,
	}
	return cfg
}

// liveParams distinguishes the two live workloads.
type liveParams struct {
	world    func() core.WorldConfig
	rate     float64 // events per virtual second
	window   float64 // coalesce window, virtual seconds
	openLoop bool    // events are due at i/rate wall seconds; else sent flat out
	roas     bool    // one VRP-replacement message per second
	clients  int     // real SSE sockets
}

var (
	liveSteady   = liveParams{world: smokeWorld, rate: 200, window: 0.05, openLoop: true, roas: true, clients: 2}
	liveSaturate = liveParams{world: mediumWorld, rate: 100, window: 0.1, clients: 1}
)

// live drives the daemon's streaming path: source → stream.CoalesceStage →
// sink → store → hub → api /v1/stream on a loopback listener, wired as
// cmd/rovistad wires it.
type live struct {
	p   liveParams
	opt options
	rec *recorder

	w        builtWorld
	runner   *core.Runner
	worldMu  sync.Mutex
	st       *scratchStore
	hub      *stream.Hub
	srv      *http.Server
	served   chan error
	clients  []*sseClient
	baseline map[inet.ASN]float64

	// Measured phase.
	plan      []timedMsg     // open loop: the whole input, generated before timing
	flaps     *flapGen       // closed loop: generated as sent
	origin    []time.Time    // per input message: when it was due (open) or handed over (closed)
	late      lateness       // open loop: how late the generator ran
	batches   []stream.Msg   // what the coalescer made of the input, one per round
	appended  []time.Time    // per round: when its Append returned
	lastSnap  *core.Snapshot // the final round
	results   []bgp.EventResult
	pairs     pairCounters
	tapMu     sync.Mutex
	tapped    []time.Time // traced: when each batch left the coalescer (under tapMu)
	sinkSpans []int       // traced: per batch, index of its stream.sink span
	published []time.Time // traced: per batch, when Hub.Publish returned (zero: nothing to publish)
	start     time.Time
	end       time.Time
	events    int
	frames    int // updates the hub published during the measured phase
}

func newLive(p liveParams, opt options, rec *recorder) *live {
	return &live{p: p, opt: opt, rec: rec}
}

func (l *live) setup() error {
	var err error
	if l.w, err = buildWorld(l.p.world()); err != nil {
		return err
	}
	w := l.w.World
	l.runner = core.NewRunner(w, core.DefaultRunnerConfig(worldSeed))
	if l.st, err = openScratchStore(l.opt.outDir); err != nil {
		return err
	}
	// The baseline round, as rovistad measures before it opens its listener.
	snap := l.runner.Measure()
	if err := l.st.Append(store.FromSnapshot(snap)); err != nil {
		return err
	}
	l.baseline = snap.Scores()
	l.lastSnap = snap

	l.hub = stream.NewHub()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.srv = &http.Server{Handler: api.New(l.st.Store, api.Config{RateBurst: 100, RateRefill: 50, Stream: l.hub}).Handler()}
	l.served = make(chan error, 1)
	go func() { l.served <- l.srv.Serve(ln) }()
	for i := 0; i < l.p.clients; i++ {
		c, err := dialSSE("http://" + ln.Addr().String())
		if err != nil {
			return err
		}
		l.clients = append(l.clients, c)
	}

	if l.p.openLoop {
		var vrps []rpki.VRP
		if l.p.roas {
			vrps = w.VRPs.All()
		}
		l.events = int(l.p.rate) * l.opt.seconds
		l.plan = livePlan(l.opt.seed, stream.WorldOrigins(w), vrps, l.events, l.p.rate)
	} else {
		l.flaps = newFlapGen(l.opt.seed, stream.WorldOrigins(w))
	}
	return nil
}

func (l *live) close() {
	for _, c := range l.clients {
		c.close()
	}
	if l.srv != nil {
		l.srv.Close()
		<-l.served
	}
	if l.hub != nil {
		l.hub.Close()
	}
	if l.st != nil {
		l.st.close()
	}
}

// Name and Run make live the pipeline's source stage. The benchmark owns
// its source because stream.SynthSource paces by sleeping after each send,
// so it slows when the sink slows, and carries no due times.
func (l *live) Name() string { return "bench-source" }

func (l *live) Run(ctx context.Context, _ <-chan stream.Msg, out chan<- stream.Msg) error {
	l.start = time.Now()
	if l.p.openLoop {
		// Each planned message goes out when it is due, however the pipeline
		// is doing: a stall downstream makes later messages late, and latency
		// counts from the due time, so the stall is charged to them.
		var err error
		l.origin, l.late, err = sendOnSchedule(ctx, l.start, l.plan, time.Duration(l.p.window*float64(time.Second)), out)
		return err
	}
	deadline := l.start.Add(time.Duration(l.opt.seconds) * time.Second)
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		m := stream.Msg{Seq: uint64(i), Time: float64(i) / l.p.rate, Events: []bgp.RouteEvent{l.flaps.event(i)}}
		l.origin = append(l.origin, now)
		l.events++
		select {
		case out <- m:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// lateness is how far an open-loop generator fell behind its schedule:
// the worst delay between a send's due instant and its start, and how many
// sends started more than the tolerance late.
type lateness struct {
	max      time.Duration
	over, of int
}

// void reports whether the generator was itself throttled: more than one
// send in twenty started later than the tolerance. An open loop that cannot
// keep its own schedule measures the generator, not the system. (A stall
// of the whole process, which a busy host inflicts now and then, delays a
// percent or two of a run's sends and is charged to them as latency; it
// does not make the loop closed.)
func (l lateness) void() bool { return l.over*20 > l.of }

// sendOnSchedule is the open-loop generator: it sends each message when it
// is due and returns each message's due instant and how late it ran
// against tolerance.
func sendOnSchedule(ctx context.Context, start time.Time, plan []timedMsg, tolerance time.Duration, out chan<- stream.Msg) ([]time.Time, lateness, error) {
	due := make([]time.Time, len(plan))
	late := lateness{of: len(plan)}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, tm := range plan {
		due[i] = start.Add(time.Duration(tm.due * float64(time.Second)))
		if wait := time.Until(due[i]); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return due, late, ctx.Err()
			}
		}
		d := time.Since(due[i])
		late.max = max(late.max, d)
		if d > tolerance {
			late.over++
		}
		select {
		case out <- tm.msg:
		case <-ctx.Done():
			return due, late, ctx.Err()
		}
	}
	return due, late, nil
}

// tappedCoalesce is the coalescer of traced runs: it runs the real
// stream.CoalesceStage and stamps each batch as it leaves it. The hand-over
// is unbuffered, so the pipeline holds no more messages than untraced.
type tappedCoalesce struct {
	inner *stream.CoalesceStage
	l     *live
}

func (t tappedCoalesce) Name() string { return t.inner.Name() }

func (t tappedCoalesce) Run(ctx context.Context, in <-chan stream.Msg, out chan<- stream.Msg) error {
	mid := make(chan stream.Msg)
	innerErr := make(chan error, 1)
	go func() {
		innerErr <- t.inner.Run(ctx, in, mid)
		close(mid)
	}()
	for m := range mid {
		t.l.tapMu.Lock()
		t.l.tapped = append(t.l.tapped, time.Now())
		t.l.tapMu.Unlock()
		select {
		case out <- m:
		case <-ctx.Done():
			// The inner stage sees the same cancelled ctx; drain until it ends.
			for range mid {
			}
			<-innerErr
			return ctx.Err()
		}
	}
	return <-innerErr
}

// tracedSink replaces stream.LiveSink in traced runs: the same public
// calls in the same order under the same lock, with a span around each.
type tracedSink struct {
	l     *live
	prev  map[inet.ASN]float64
	round uint32
}

func (s *tracedSink) Name() string { return "bench-traced-sink" }

func (s *tracedSink) Run(ctx context.Context, in <-chan stream.Msg, _ chan<- stream.Msg) error {
	for {
		select {
		case m, ok := <-in:
			if !ok {
				return nil
			}
			if err := s.apply(m); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (s *tracedSink) apply(m stream.Msg) error {
	l, rec := s.l, s.l.rec
	batch := len(l.sinkSpans)
	l.tapMu.Lock()
	tapped := l.tapped[batch]
	l.tapMu.Unlock()
	l.worldMu.Lock()
	defer l.worldMu.Unlock()
	locked := time.Now()
	// The sink span's end is patched once the batch is done; its index is
	// needed now as the parent of the calls below.
	sink := rec.add("stream.sink", batch, -1, locked, locked)
	l.sinkSpans = append(l.sinkSpans, sink)
	rec.add("stream.queue_wait", batch, -1, tapped, locked)

	timed := func(name string, parent int, f func()) int {
		t0 := time.Now()
		f()
		return rec.add(name, batch, parent, t0, time.Now())
	}
	if m.VRPs != nil {
		timed("core.refresh_vrps", sink, func() { l.w.RefreshVRPViews(m.VRPs) })
	}
	var res bgp.EventResult
	var err error
	timed("bgp.apply_events", sink, func() { res, err = l.w.Graph.ApplyEvents(m.Events) })
	if err != nil {
		return err
	}
	l.results = append(l.results, res)

	var snap *core.Snapshot
	measure := timed("core.measure", sink, func() { snap = l.runner.Measure() })
	rec.addStages(batch, measure, snap.Metrics.Stages)
	s.round++
	var record *store.RoundRecord
	timed("store.from_snapshot", sink, func() { record = store.FromSnapshot(snap) })
	timed("store.append", sink, func() { err = l.st.Append(record) })
	if err != nil {
		return err
	}
	l.appended = append(l.appended, time.Now())
	l.lastSnap = snap
	l.pairs.add(snap)
	var deltas []stream.ScoreDelta
	timed("stream.diff_scores", sink, func() {
		cur := snap.Scores()
		deltas = stream.DiffScores(s.prev, cur)
		s.prev = cur
	})
	var published time.Time
	if len(deltas) > 0 {
		timed("stream.hub_publish", sink, func() {
			l.hub.Publish(stream.Update{Round: s.round, Day: snap.Day, Deltas: deltas})
		})
		published = time.Now()
	}
	l.published = append(l.published, published)
	rec.spans[sink].End = time.Now()
	return nil
}

// stageSpanName maps a measurement-round stage to the package that does
// its work.
func stageSpanName(stage string) string {
	switch stage {
	case core.StageTestPrefixes:
		return "pipeline.test_prefixes"
	case core.StageQualifyTNodes:
		return "pipeline.qualify_tnodes"
	case core.StageDiscoverVVPs:
		return "scan.discover_vvps"
	case core.StageMeasurePairs:
		return "netsim.measure_pairs"
	case core.StageScore:
		return "pipeline.score"
	}
	return "pipeline." + stage
}

// baselineRound is the SSE id of the baseline round: rovistad publishes it
// as round 1 and streamed rounds continue the numbering.
const baselineRound = 1

func (l *live) measure() error {
	coalesce := &stream.CoalesceStage{Window: l.p.window}
	sink := &stream.LiveSink{
		W:      l.w.World,
		Runner: l.runner,
		Mu:     &l.worldMu,
		Append: func(snap *core.Snapshot) error {
			err := l.st.Append(store.FromSnapshot(snap))
			l.appended = append(l.appended, time.Now())
			l.lastSnap = snap
			return err
		},
		Hub: l.hub,
	}
	sink.SeedScores(baselineRound, l.baseline)
	stages := []stream.Stage{l, coalesce, sink}
	if l.opt.traced {
		stages = []stream.Stage{l, tappedCoalesce{coalesce, l}, &tracedSink{l: l, prev: l.baseline, round: baselineRound}}
	}
	published := l.hub.Published.Load()
	if err := stream.NewPipeline(0, stages...).Run(context.Background()); err != nil {
		return err
	}
	l.end = time.Now()
	l.batches = l.coalesced()
	l.frames = int(l.hub.Published.Load() - published)
	for _, c := range l.clients {
		c.waitFrames(int64(l.frames), 10*time.Second)
	}
	for _, c := range l.clients {
		c.close()
		if n := len(c.frames); n > 0 && c.frames[n-1].at.After(l.end) {
			l.end = c.frames[n-1].at
		}
	}
	return nil
}

// coalesced regenerates the batch sequence the pipeline saw: the coalescer
// batches on the virtual clock alone, so it is a pure function of the
// input.
func (l *live) coalesced() []stream.Msg {
	var msgs []stream.Msg
	if l.p.openLoop {
		for _, tm := range l.plan {
			msgs = append(msgs, tm.msg)
		}
	} else {
		g := newFlapGen(l.opt.seed, l.flaps.origins)
		for i := 0; i < l.events; i++ {
			msgs = append(msgs, stream.Msg{Seq: uint64(i), Time: float64(i) / l.p.rate, Events: []bgp.RouteEvent{g.event(i)}})
		}
	}
	return stream.CoalescePlan(msgs, l.p.window)
}

// batchOrigin is the instant batch b's latency counts from: when its last
// input message was due (open loop) or handed to the pipeline (closed).
// Inputs carry one event each and a VRP message is a coalescing barrier,
// so a batch covers the inputs Seq .. Seq+len(Events)-1.
func (l *live) batchOrigin(b stream.Msg) time.Time {
	return l.origin[int(b.Seq)+len(b.Events)-1]
}

func (l *live) check(r *result) {
	batches := l.batches
	r.Attempted = int64(l.events + len(batches) + l.frames*len(l.clients))
	if len(l.appended) != len(batches) {
		r.fail(int64(len(batches)), "%d rounds archived for %d batches", len(l.appended), len(batches))
		return
	}
	if l.late.void() {
		r.Void = true
		r.Notes = append(r.Notes, fmt.Sprintf("VOID: %d of %d sends began more than one coalesce window late (worst %v)", l.late.over, l.late.of, l.late.max))
	}
	final := l.lastSnap.Scores()
	for i, c := range l.clients {
		if c.err != nil {
			r.fail(1, "sse client %d: %v", i, c.err)
		}
		if c.evicted {
			r.fail(1, "sse client %d was evicted", i)
		}
		r.fail(int64(checkIDs(c.frames)), "sse client %d: frame ids out of order", i)
		if missing := l.frames - len(c.frames); missing != 0 {
			r.fail(int64(max(missing, -missing)), "sse client %d read %d frames of %d published", i, len(c.frames), l.frames)
		}
		got, err := replayFrames(l.baseline, c.frames)
		if err != nil {
			r.fail(1, "sse client %d: %v", i, err)
		} else if !maps.Equal(got, final) {
			r.fail(1, "sse client %d: replaying its %d frames onto the baseline does not give the final scores", i, len(c.frames))
		}
	}
	r.fail(int64(l.hub.Evictions.Load()), "subscribers evicted by the hub")
	if want, got := store.FromSnapshot(l.lastSnap).Entries, l.st.Latest().Entries; !slices.Equal(want, got) {
		r.fail(1, "store.Latest is not the final snapshot")
	}
	if err := l.checkOracle(final); err != nil {
		r.fail(1, "%v", err)
	}
	r.RoundHashes = roundHashes(l.st.Store)
}

// checkOracle holds the live path to the determinism contract: a fresh
// world brought to the same net routing and RPKI state in one batch, and
// re-measured in full, must score every AS exactly as the incremental path
// did after thousands of small batches. The fresh runner measures its own
// baseline round first because vVP discovery is cached from the first
// round on, as in the live run; ForceFullRound then bypasses the pair
// cache.
func (l *live) checkOracle(final map[inet.ASN]float64) error {
	w, err := buildWorld(l.p.world())
	if err != nil {
		return err
	}
	runner := core.NewRunner(w.World, core.DefaultRunnerConfig(worldSeed))
	runner.Measure()

	flaps := newFlapGen(l.opt.seed, stream.WorldOrigins(w.World))
	for i := 0; i < l.events; i++ {
		flaps.event(i)
	}
	var events []bgp.RouteEvent
	for j, o := range flaps.origins {
		if flaps.withdrawn[j] {
			events = append(events, bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: o.ASN, Prefix: o.Prefix})
		}
	}
	var last *rpki.VRPSet
	var changed []netip.Prefix
	for _, tm := range l.plan {
		if tm.msg.VRPs != nil {
			last = tm.msg.VRPs
			changed = append(changed, tm.msg.Events[0].Prefixes...)
		}
	}
	if last != nil {
		w.RefreshVRPViews(last)
		events = append(events, bgp.RouteEvent{Kind: bgp.EvROAChange, Prefixes: changed})
	}
	if _, err := w.Graph.ApplyEvents(events); err != nil {
		return err
	}
	runner.ForceFullRound()
	if !maps.Equal(runner.Measure().Scores(), final) {
		return errors.New("a full round on a fresh world in the same net state scores differently from the final live round")
	}
	return nil
}

func (l *live) report(r *result) {
	batches := l.batches
	if len(l.appended) != len(batches) {
		return
	}
	// Per frame id: when socket 0 had read it, and when the last socket had.
	frameAt, lastAt := make(map[uint32]time.Time), make(map[uint32]time.Time)
	for i, c := range l.clients {
		for _, f := range c.frames {
			if i == 0 {
				frameAt[f.id] = f.at
			}
			if f.at.After(lastAt[f.id]) {
				lastAt[f.id] = f.at
			}
		}
	}
	var toSSE, toStore, roaToStore, perBatch []float64
	events := make([]float64, len(batches)) // per round; a VRP round carries none
	for b, m := range batches {
		o := l.batchOrigin(m)
		if m.VRPs != nil {
			roaToStore = append(roaToStore, ms(l.appended[b].Sub(o)))
			continue
		}
		events[b] = float64(len(m.Events))
		perBatch = append(perBatch, events[b])
		toStore = append(toStore, ms(l.appended[b].Sub(o)))
		if at, ok := frameAt[uint32(baselineRound+b+1)]; ok {
			toSSE = append(toSSE, ms(at.Sub(o)))
		}
	}
	elapsed := l.end.Sub(l.start).Seconds()
	// Throughput is the median chunk of a virtual second's rounds.
	r.headline(toSSE, percentile(chunkRates(l.appended, events, int(1/l.p.window)), 50), int64(l.events))
	r.timing("store.visible_p50_ms", toStore)
	r.timing("core.roa_to_store_p50_ms", roaToStore)
	r.setLayer("stream.gen_late_max_ms", ms(l.late.max))
	r.setLayer("stream.events_per_batch_mean", mean(perBatch))
	r.setLayer("stream.hub_evictions", float64(l.hub.Evictions.Load()))
	l.w.report(r)
	var frames, frameBytes int64
	for _, c := range l.clients {
		frames += int64(len(c.frames))
		frameBytes += c.bytes
	}
	r.setLayer("api.sse_frames_per_s", float64(frames)/elapsed)
	r.setLayer("api.sse_bytes_per_frame", ratio(float64(frameBytes), float64(frames)))
	r.setLayer("store.bytes_per_round", l.st.bytesPerRound())
	if l.opt.traced {
		l.reportTrace(r, frameAt, lastAt, elapsed)
	}
}

// reportTrace closes each batch's trace with the spans only known after
// the run (the waits before the sink, the delivery after it), checks that
// the ledger adds up, and distils the per-layer metrics.
func (l *live) reportTrace(r *result, frameAt, lastAt map[uint32]time.Time, elapsed float64) {
	rec, batches := l.rec, l.batches
	var gapMax float64
	self := rec.selfTimes() // before roots are added: indices stay valid
	selfOfBatch := make([]time.Duration, len(batches))
	computeOfBatch := make([]time.Duration, len(batches))
	for i, s := range rec.spans {
		selfOfBatch[s.Trace] += self[i]
		if computeLayers[layerOf(s.Name)] {
			computeOfBatch[s.Trace] += self[i]
		}
	}
	var lastDeliver, computeShare []float64
	for b, m := range batches {
		o := l.batchOrigin(m)
		wait := rec.add("stream.coalesce_wait", b, -1, o, l.tapped[b])
		end := rec.spans[l.sinkSpans[b]].End
		total := selfOfBatch[b] + rec.spans[wait].dur()
		id := uint32(baselineRound + b + 1)
		if at, ok := frameAt[id]; ok {
			// The client can read the frame an instant before Publish, still
			// looping over other subscribers, returns.
			if at.Before(l.published[b]) {
				at = l.published[b]
			}
			d := rec.add("api.sse_deliver", b, -1, l.published[b], at)
			total += rec.spans[d].dur()
			// The sink carries on (OnRound bookkeeping) while the frame is in
			// flight; the ledger runs to the frame, not to the sink's return.
			total -= end.Sub(l.published[b])
			end = at
			lastDeliver = append(lastDeliver, ms(max(lastAt[id].Sub(l.published[b]), 0)))
			computeShare = append(computeShare, ratio(computeOfBatch[b].Seconds(), at.Sub(o).Seconds()))
		}
		// The ledger: the batch's self times, span by span, against the
		// latency measured end to end.
		if e2e := end.Sub(o); e2e > 0 {
			gap := float64(total-e2e) / float64(e2e)
			if gap < 0 {
				gap = -gap
			}
			if gap > gapMax {
				gapMax = gap
			}
		}
	}
	r.setLayer("process.ledger_gap_max_frac", gapMax)
	r.setLayer("core.compute_of_visible_p50_frac", percentile(computeShare, 50))
	if gapMax > 0.05 {
		r.fail(1, "a batch's span self times miss its end-to-end latency by %.1f%%", 100*gapMax)
	}

	busy := rec.total("stream.sink")
	r.timing("stream.coalesce_wait_p50_ms", rec.durations("stream.coalesce_wait"))
	r.timing95("stream.queue_wait_p50_ms", "stream.queue_wait_p95_ms", rec.durations("stream.queue_wait"))
	r.setLayer("stream.sink_busy_frac", busy.Seconds()/elapsed)
	r.timing("stream.diff_scores_p50_ms", rec.durations("stream.diff_scores"))
	r.timing("stream.hub_publish_p50_ms", rec.durations("stream.hub_publish"))
	r.timing95("bgp.apply_events_p50_ms", "bgp.apply_events_p95_ms", rec.durations("bgp.apply_events"))
	r.setLayer("bgp.apply_busy_frac", rec.total("bgp.apply_events").Seconds()/elapsed)
	var touched, dirty, noop float64
	for _, res := range l.results {
		touched += float64(res.ASesTouched)
		dirty += float64(res.DirtyPrefixes)
		if res.DirtyPrefixes == 0 {
			noop++
		}
	}
	n := float64(len(l.results))
	r.setLayer("bgp.ases_touched_mean", ratio(touched, n))
	r.setLayer("bgp.dirty_prefixes_mean", ratio(dirty, n))
	r.setLayer("bgp.noop_batch_frac", ratio(noop, n))
	r.timing("core.refresh_vrps_p50_ms", rec.durations("core.refresh_vrps"))
	r.timing("store.from_snapshot_p50_ms", rec.durations("store.from_snapshot"))
	r.timing95("store.append_p50_ms", "store.append_p95_ms", rec.durations("store.append"))
	r.timing("api.sse_deliver_p50_ms", rec.durations("api.sse_deliver"))
	r.timing("api.sse_deliver_last_p50_ms", lastDeliver)
	reportMeasureSpans(r, rec, busy, elapsed)
	l.pairs.report(r)
}

// reportMeasureSpans distils the spans of core.Measure and its stages,
// which the live workloads and full-round share. busy is the time the
// workload's serial section (sink or round loop) was occupied.
func reportMeasureSpans(r *result, rec *recorder, busy time.Duration, elapsed float64) {
	r.timing95("core.measure_p50_ms", "core.measure_p95_ms", rec.durations("core.measure"))
	r.setLayer("core.measure_busy_frac", rec.total("core.measure").Seconds()/elapsed)
	self := rec.selfTimes()
	var measureSelf []float64
	for i, s := range rec.spans {
		if s.Name == "core.measure" {
			measureSelf = append(measureSelf, ms(self[i]))
		}
	}
	r.timing("core.measure_self_p50_ms", measureSelf)
	r.timing("pipeline.test_prefixes_p50_ms", rec.durations("pipeline.test_prefixes"))
	r.timing("pipeline.qualify_tnodes_p50_ms", rec.durations("pipeline.qualify_tnodes"))
	r.timing("pipeline.score_p50_ms", rec.durations("pipeline.score"))
	r.timing("scan.discover_vvps_p50_ms", rec.durations("scan.discover_vvps"))
	r.timing("netsim.measure_pairs_p50_ms", rec.durations("netsim.measure_pairs"))
	r.setLayer("netsim.measure_pairs_frac", ratio(rec.total("netsim.measure_pairs").Seconds(), busy.Seconds()))
	var compute time.Duration
	for layer, d := range rec.selfByLayer() {
		if computeLayers[layer] {
			compute += d
		}
	}
	r.setLayer("core.compute_frac", ratio(compute.Seconds(), busy.Seconds()))
}

// computeLayers are the packages that converge routes and measure pairs,
// as opposed to moving, storing and serving the result.
var computeLayers = map[string]bool{"core": true, "bgp": true, "pipeline": true, "scan": true, "netsim": true}

// pairCounters accumulates the measurement rounds' pair counters.
type pairCounters struct {
	rounds, measured, reused, remeasured, discarded int
	measurePairs                                    time.Duration
}

func (p *pairCounters) add(snap *core.Snapshot) {
	m := snap.Metrics
	p.rounds++
	p.measured += m.PairsMeasured
	p.reused += m.PairsReused
	p.remeasured += m.PairsRemeasured
	p.discarded += m.PairsDiscarded
	d, _ := m.StageDuration(core.StageMeasurePairs)
	p.measurePairs += d
}

func (p *pairCounters) report(r *result) {
	r.setLayer("pipeline.pairs_reused_frac", ratio(float64(p.reused), float64(p.measured)))
	r.setLayer("pipeline.pairs_remeasured_mean", ratio(float64(p.remeasured), float64(p.rounds)))
	r.setLayer("pipeline.pairs_discarded_frac", ratio(float64(p.discarded), float64(p.measured)))
	r.setLayer("netsim.us_per_pair", ratio(us(p.measurePairs), float64(p.remeasured)))
}
