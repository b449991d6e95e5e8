package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/api"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
)

const (
	fanoutASes        = 1000
	fanoutHistory     = 100 // synthesized rounds before the storm
	fanoutSubscribers = 256
	fanoutRate        = 20   // published rounds per second
	fanoutSampleEvery = 1024 // every n-th /v1/as answer is kept and verified
)

// fanout is reads beside writes on one store and cache, with no world: a
// publisher appends a round and publishes its deltas on a schedule to 256
// in-process /v1/stream subscribers while a closed-loop reader issues the
// query mix.
type fanout struct {
	opt options
	rec *recorder

	st         *scratchStore
	hub        *stream.Hub
	handler    http.Handler
	subs       []*subscriber
	subsDone   sync.WaitGroup
	cancelSubs context.CancelFunc
	baseline   map[inet.ASN]float64
	gen        *fanoutGen
	queries    *queryGen
	synthesize time.Duration

	// Measured phase.
	rounds     int
	due        []time.Time // per round
	appended   []time.Time // per round: Append returned
	published  []time.Time // per round: Publish returned
	appendErrs int
	late       lateness
	elapsed    time.Duration
	queryCount atomic.Int64
	queryAt    []float64       // per round: queries answered when it was published
	queryBad   int64           // non-2xx answers
	queryLat   [][]float64     // traced: per kind, µs
	asSamples  []asSample      // kept /v1/as answers
	updates    []stream.Update // what was published, for the replay check
}

// asSample is one /v1/as/{asn} answer kept for verification: the body and
// the store generation the server said it answered from.
type asSample struct {
	asn  inet.ASN
	gen  int
	body []byte
}

func newFanout(opt options, rec *recorder) *fanout {
	return &fanout{opt: opt, rec: rec}
}

func (f *fanout) setup() error {
	var err error
	if f.st, err = openScratchStore(f.opt.outDir); err != nil {
		return err
	}
	t0 := time.Now()
	if err := store.Synthesize(f.st.Store, store.SynthConfig{ASes: fanoutASes, Rounds: fanoutHistory, Seed: f.opt.seed}); err != nil {
		return err
	}
	f.synthesize = time.Since(t0)
	latest := f.st.Latest()
	f.baseline = make(map[inet.ASN]float64, len(latest.Entries))
	for _, e := range latest.Entries {
		f.baseline[e.ASN] = e.Score()
	}
	f.gen = newFanoutGen(f.opt.seed, latest)
	f.queries = newQueryGen(f.opt.seed, fanoutASes)
	f.rounds = fanoutRate * f.opt.seconds

	f.hub = stream.NewHub()
	f.handler = api.New(f.st.Store, api.Config{RateBurst: 100, RateRefill: 50, Stream: f.hub}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancelSubs = cancel
	for i := 0; i < fanoutSubscribers; i++ {
		// Half take everything, a quarter one hot AS, a quarter only
		// movements of a point or more; every round matches all of them.
		query := ""
		switch i % 4 {
		case 1:
			query = "asn=" + strconv.Itoa(int(hotASN(i/4%fanoutHot, fanoutASes)))
		case 3:
			query = "min_delta=1"
		}
		s := newSubscriber(f.rounds)
		f.subs = append(f.subs, s)
		req := (&http.Request{
			Method: http.MethodGet, URL: &url.URL{Path: "/v1/stream", RawQuery: query},
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Host: "bench", Header: http.Header{},
			RemoteAddr: "10.200." + strconv.Itoa(i>>8) + "." + strconv.Itoa(i&255) + ":4242",
		}).WithContext(ctx)
		f.subsDone.Add(1)
		go func() {
			defer f.subsDone.Done()
			f.handler.ServeHTTP(s, req)
		}()
	}
	for f.hub.Subscribers.Load() < fanoutSubscribers { // set-up ends with every subscriber attached
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (f *fanout) close() {
	if f.cancelSubs != nil {
		f.cancelSubs()
		f.subsDone.Wait()
	}
	if f.st != nil {
		f.st.close()
	}
}

// subscriber is the ResponseWriter and Flusher of one in-process
// /v1/stream request: it stamps each frame when the handler flushes it.
type subscriber struct {
	header     http.Header
	pending    uint32 // id of the frame written and not yet flushed
	lastID     uint32
	outOfOrder int
	evicted    atomic.Bool
	frames     atomic.Int64
	bytes      int64
	flushed    []time.Time // per published round (id-firstID), when its frame was flushed
	firstID    uint32
}

func newSubscriber(rounds int) *subscriber {
	return &subscriber{header: http.Header{}, flushed: make([]time.Time, rounds), firstID: fanoutHistory + 1}
}

func (s *subscriber) Header() http.Header { return s.header }
func (s *subscriber) WriteHeader(int)     {}

func (s *subscriber) Write(p []byte) (int, error) {
	s.bytes += int64(len(p))
	switch {
	case bytes.HasPrefix(p, []byte("id: ")):
		end := bytes.IndexByte(p, '\n')
		id, err := strconv.ParseUint(string(p[4:end]), 10, 32)
		if err == nil {
			s.pending = uint32(id)
		}
	case bytes.HasPrefix(p, []byte("event: evicted")):
		s.evicted.Store(true)
	}
	return len(p), nil
}

func (s *subscriber) Flush() {
	if s.pending == 0 {
		return
	}
	if s.pending <= s.lastID {
		s.outOfOrder++
	}
	s.lastID = s.pending
	if i := int(s.pending - s.firstID); i >= 0 && i < len(s.flushed) {
		s.flushed[i] = time.Now()
	}
	s.pending = 0
	s.frames.Add(1)
}

// queryWriter receives one query's answer, keeping the status always and
// the body only when asked to.
type queryWriter struct {
	header http.Header
	status int
	keep   bool
	body   []byte
}

func (w *queryWriter) Header() http.Header { return w.header }
func (w *queryWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *queryWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.keep {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}

func (f *fanout) measure() error {
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		f.read(stop)
	}()
	start := time.Now()
	f.publish(start)
	// Done when the last subscriber has flushed the last round.
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range f.subs {
		for s.frames.Load() < int64(f.rounds) && !s.evicted.Load() && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	}
	f.elapsed = time.Since(start)
	close(stop)
	<-readerDone
	// Stop the handlers before reading what they stamped.
	f.cancelSubs()
	f.subsDone.Wait()
	return nil
}

// publish is the open-loop writer: every 1/fanoutRate seconds one round is
// appended (bumping the store generation, which invalidates every cached
// answer) and its deltas published to the hub.
func (f *fanout) publish(start time.Time) {
	period := time.Second / fanoutRate
	f.late.of = f.rounds
	for i := 0; i < f.rounds; i++ {
		round := uint32(fanoutHistory + 1 + i)
		record, update := f.gen.next(round)
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(due)
		f.late.max = max(f.late.max, late)
		if late > period {
			f.late.over++
		}
		t0 := time.Now()
		err := f.st.Append(record)
		t1 := time.Now()
		f.hub.Publish(update)
		t2 := time.Now()
		if err != nil {
			f.appendErrs++
		}
		f.due = append(f.due, due)
		f.queryAt = append(f.queryAt, float64(f.queryCount.Load()))
		f.appended = append(f.appended, t1)
		f.published = append(f.published, t2)
		f.updates = append(f.updates, update)
		if f.opt.traced {
			f.rec.add("store.append", i, -1, t0, t1)
			f.rec.add("stream.hub_publish", i, -1, t1, t2)
		}
	}
}

// read is the closed-loop reader: the next query goes out when the last
// one has been answered.
func (f *fanout) read(stop <-chan struct{}) {
	if f.opt.traced {
		f.queryLat = make([][]float64, numQueryKinds)
	}
	w := &queryWriter{header: http.Header{}}
	for n := int64(0); ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		kind, u, addr, as := f.queries.next()
		*w = queryWriter{header: w.header, keep: kind == qAS && n%fanoutSampleEvery == 0}
		clear(w.header)
		req := &http.Request{
			Method: http.MethodGet, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Host: "bench", RemoteAddr: addr,
		}
		var t0 time.Time
		if f.opt.traced {
			t0 = time.Now()
		}
		f.handler.ServeHTTP(w, req)
		if f.opt.traced {
			f.queryLat[kind] = append(f.queryLat[kind], us(time.Since(t0)))
		}
		f.queryCount.Add(1)
		if w.status < 200 || w.status > 299 {
			f.queryBad++
		}
		if w.keep {
			gen, _ := strconv.Atoi(w.header.Get("X-Rovista-Generation"))
			f.asSamples = append(f.asSamples, asSample{asn: inet.ASN(firstASN + as), gen: gen, body: w.body})
		}
	}
}

func (f *fanout) check(r *result) {
	r.Attempted = int64(f.rounds) + f.queryCount.Load() + int64(f.rounds*len(f.subs))
	r.fail(int64(f.appendErrs), "store.Append errors")
	r.fail(f.queryBad, "queries answered with a non-2xx status")
	if f.late.void() {
		r.Void = true
		r.Notes = append(r.Notes, fmt.Sprintf("VOID: %d of %d rounds began more than one period late (worst %v)", f.late.over, f.late.of, f.late.max))
	}
	var missing, disorder, evicted int64
	for _, s := range f.subs {
		missing += int64(f.rounds) - s.frames.Load()
		disorder += int64(s.outOfOrder)
		if s.evicted.Load() {
			evicted++
		}
	}
	r.fail(max(missing, -missing), "frames published but not flushed to a subscriber (or flushed twice)")
	r.fail(disorder, "frame ids out of order at a subscriber")
	r.fail(evicted+int64(f.hub.Evictions.Load()), "subscribers evicted")

	// What a listener that replayed every delta believes must be what the
	// store now holds.
	cur := maps.Clone(f.baseline)
	for _, u := range f.updates {
		applyDeltas(cur, u.Deltas)
	}
	stored := make(map[inet.ASN]float64, len(cur))
	for _, e := range f.st.Latest().Entries {
		stored[e.ASN] = e.Score()
	}
	if !maps.Equal(cur, stored) {
		r.fail(1, "replaying the published deltas onto the baseline does not give store.Latest")
	}
	// Each kept /v1/as answer must carry the score the store holds for the
	// generation the server claimed.
	view := f.st.View()
	var wrong int64
	for _, s := range f.asSamples {
		var body struct {
			ASN   uint32  `json:"asn"`
			Round uint32  `json:"round"`
			Score float64 `json:"rov_protection_score"`
		}
		rec := view.Round(s.gen - 1) // one generation per appended round
		if err := json.Unmarshal(s.body, &body); err != nil || rec == nil {
			wrong++
			continue
		}
		if e, ok := rec.Entry(s.asn); !ok || body.ASN != uint32(s.asn) || body.Round != rec.Round || body.Score != e.Score() {
			wrong++
		}
	}
	r.fail(wrong, "of %d sampled /v1/as answers disagree with the store at their generation", len(f.asSamples))
	r.RoundHashes = roundHashes(f.st.Store)
}

func (f *fanout) report(r *result) {
	var toAll, toStore, deliver, deliverLast []float64
	var frames, frameBytes int64
	for i := 0; i < f.rounds && i < len(f.due); i++ {
		var last time.Time
		for _, s := range f.subs {
			if at := s.flushed[i]; at.After(last) {
				last = at
			}
		}
		if last.IsZero() {
			continue
		}
		toAll = append(toAll, ms(last.Sub(f.due[i])))
		toStore = append(toStore, ms(f.appended[i].Sub(f.due[i])))
		deliver = append(deliver, ms(f.subs[0].flushed[i].Sub(f.published[i])))
		deliverLast = append(deliverLast, ms(last.Sub(f.published[i])))
	}
	for _, s := range f.subs {
		frames += s.frames.Load()
		frameBytes += s.bytes
	}
	// Throughput is the median chunk of a second's rounds: queries answered
	// between one round's publication and the next's.
	answered := make([]float64, len(f.queryAt))
	for i := 1; i < len(answered); i++ {
		answered[i] = f.queryAt[i] - f.queryAt[i-1]
	}
	r.headline(toAll, percentile(chunkRates(f.published, answered, fanoutRate), 50), f.queryCount.Load())
	r.timing("store.visible_p50_ms", toStore)
	r.setLayer("stream.gen_late_max_ms", ms(f.late.max))
	r.setLayer("stream.hub_evictions", float64(f.hub.Evictions.Load()))
	r.setLayer("store.synthesize_s", f.synthesize.Seconds())
	r.setLayer("store.bytes_per_round", f.st.bytesPerRound())
	r.timing("api.sse_deliver_p50_ms", deliver)
	r.timing("api.sse_deliver_last_p50_ms", deliverLast)
	r.setLayer("api.sse_frames_per_s", float64(frames)/f.elapsed.Seconds())
	r.setLayer("api.sse_bytes_per_frame", ratio(float64(frameBytes), float64(frames)))
	r.setLayer("api.query_errors", float64(f.queryBad))
	if !f.opt.traced {
		return
	}
	r.timing95("store.append_p50_ms", "store.append_p95_ms", f.rec.durations("store.append"))
	r.timing("stream.hub_publish_p50_ms", f.rec.durations("stream.hub_publish"))
	var all []float64
	for kind, lat := range f.queryLat {
		all = append(all, lat...)
		r.timing("api.query_"+queryKindNames[kind]+"_p50_us", lat)
	}
	r.timing("api.query_p50_us", all)
	r.setLayer("api.query_p99_us", percentile(all, 99))
}
