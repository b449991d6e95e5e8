package daemon

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
)

// testConfig is rovistad's flag defaults on the smoke world at CI's seed,
// with an ephemeral port, a per-test store and rate limiting off.
func testConfig(t *testing.T) Config {
	return Config{
		Addr: "127.0.0.1:0", Store: t.TempDir(), Seed: 42, Size: "smoke",
		Interval: 5, Faults: "none", FullEvery: 10,
		StreamWindow: 1, StreamRate: 20, StreamSpeed: 60,
	}
}

func open(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

// drain runs an opened daemon's round pipeline to exhaustion without
// serving, then releases what Open acquired.
func drain(t *testing.T, d *Daemon) {
	t.Helper()
	if err := d.pipe.Run(context.Background()); err != nil {
		t.Fatalf("round pipeline: %v", err)
	}
	d.ln.Close()
	if err := d.st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
}

// running is a daemon inside Run.
type running struct {
	base string
	stop func() error // cancel and wait for Run
}

func start(t *testing.T, d *Daemon) *running {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	r := &running{base: "http://" + d.Addr()}
	stopped := false
	r.stop = func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("Run did not return within 30s of cancel")
			return nil
		}
	}
	t.Cleanup(func() { r.stop() })
	return r
}

// client makes one connection per request, so a finished test leaves no
// idle-connection goroutines behind for the leak check to trip over.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// metrics fetches /metrics and flattens the "rovistad" map into dotted
// keys.
func metrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	var vars struct {
		Rovistad map[string]any `json:"rovistad"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	out := map[string]float64{}
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			switch v := v.(type) {
			case map[string]any:
				walk(prefix+k+".", v)
			case float64:
				out[prefix+k] = v
			default:
				t.Fatalf("/metrics %s%s: unexpected %T", prefix, k, v)
			}
		}
	}
	walk("", vars.Rovistad)
	return out
}

type frame struct {
	id     uint32
	update stream.Update
}

// subscribe attaches a real SSE client to /v1/stream and returns once the
// server has registered the subscription (the preamble comment is written
// after Hub.Subscribe), delivering each "scores" frame on the channel.
func subscribe(t *testing.T, base string) <-chan frame {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/stream", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET /v1/stream: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/stream -> %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("SSE preamble: %q, %v", line, err)
	}
	frames := make(chan frame, 64) // the test reads a handful; never let the reader block
	go func() {
		defer close(frames)
		var f frame
		var event string
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(line, "id: %d", &f.id)
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if event == "scores" {
					if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.update); err != nil {
						t.Errorf("SSE data: %v", err)
					}
				}
			case line == "":
				if event == "scores" {
					select {
					case frames <- f:
					default:
					}
				}
				f, event = frame{}, ""
			}
		}
	}()
	return frames
}

func nextFrame(t *testing.T, frames <-chan frame) frame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("SSE stream closed before a scores frame")
		}
		return f
	case <-time.After(30 * time.Second):
		t.Fatal("no scores frame within 30s")
	}
	return frame{}
}

// archive reopens a closed daemon's store and returns every round.
func archive(t *testing.T, dir string) []*store.RoundRecord {
	t.Helper()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st.Close()
	recs := make([]*store.RoundRecord, st.Rounds())
	for i := range recs {
		recs[i] = st.Round(i)
	}
	return recs
}

// hashChain folds every field of every record into a running SHA-256, one
// hex string per round: two archives agree on a prefix exactly as far as
// their chains do.
func hashChain(recs []*store.RoundRecord) []string {
	h := sha256.New()
	out := make([]string, len(recs))
	for i, rec := range recs {
		fmt.Fprintf(h, "%+v\n", *rec)
		out[i] = fmt.Sprintf("%x", h.Sum(nil))
	}
	return out
}

// seedArchive leaves n day-mode rounds in dir.
func seedArchive(t *testing.T, cfg Config, n int) {
	t.Helper()
	cfg.Rounds = n
	drain(t, open(t, cfg))
	if got := len(archive(t, cfg.Store)); got != n {
		t.Fatalf("seeded %d rounds, want %d", got, n)
	}
}

// resume restarts a daemon over a 2-round archive (days 0 and 5) in the
// given mode, lets it measure exactly one more round with an SSE client
// attached from before the round starts, and checks what a subscriber and
// the archive see.
func resume(t *testing.T, mode func(*Config), wantDay int) {
	cfg := testConfig(t)
	seedArchive(t, cfg, 2)
	mode(&cfg)

	d := open(t, cfg) // at the parent, -stream over a populated store died here or in the first batch
	d.worldMu.Lock()  // hold the first round until the subscriber is attached
	r := start(t, d)
	frames := subscribe(t, r.base)
	d.worldMu.Unlock()

	f := nextFrame(t, frames)
	if f.id != 3 || f.update.Round != 3 {
		t.Errorf("first frame after restart has id %d (round %d), want 3: the third archived round", f.id, f.update.Round)
	}
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := archive(t, cfg.Store)
	if len(recs) != 3 {
		t.Fatalf("archive has %d rounds after resume, want exactly 3", len(recs))
	}
	last := recs[2]
	if last.Status != pipeline.RoundOK || last.Day != wantDay {
		t.Errorf("resumed round: status %v day %d, want ok day %d", last.Status, last.Day, wantDay)
	}
	// The frame is the movement between the two archived rounds, no more:
	// not one delta per AS, and not one per AS whose score the archive
	// rounds to centi-points either.
	moved := 0
	for _, e := range last.Entries {
		if was, ok := recs[1].Entry(e.ASN); !ok || was.Centi != e.Centi {
			moved++
		}
	}
	for _, was := range recs[1].Entries {
		if _, ok := last.Entry(was.ASN); !ok {
			moved++
		}
	}
	if n := len(f.update.Deltas); n == 0 || n != moved {
		t.Errorf("first frame after restart carries %d deltas; %d of %d ASes moved between the archived rounds", n, moved, len(last.Entries))
	}
}

// TestResumeStream: a restart under -stream continues the archive — the
// world is brought to the last archived day (at the parent nothing advanced
// it and the first batch dereferenced a nil VRP set), the streamed round is
// archived at that day, and the SSE id continues from the archive.
func TestResumeStream(t *testing.T) {
	resume(t, func(cfg *Config) {
		cfg.Stream = "synth"
		cfg.StreamEvents = 20 // one 1-second window at 20 events/s: one batch
	}, 5)
}

// TestResumeDays: the same restart in day mode measures the next scheduled
// day, with the same id and no-flood guarantees.
func TestResumeDays(t *testing.T) {
	resume(t, func(cfg *Config) { cfg.Rounds = 3 }, 10)
}

// TestSynthStreamKeepsMeasuring: the daemon's synthetic churn never flaps
// the measurement clients' own prefixes, so streamed rounds keep their
// tNodes. At the parent client A's prefix was withdrawn in batch 2 and every
// round from the third on was insufficient-tnodes.
func TestSynthStreamKeepsMeasuring(t *testing.T) {
	cfg := testConfig(t)
	cfg.Stream = "synth"
	cfg.StreamEvents = 400 // 20 windows
	drain(t, open(t, cfg))
	recs := archive(t, cfg.Store)
	if len(recs) < 21 {
		t.Fatalf("archived %d rounds, want the baseline + 20 streamed", len(recs))
	}
	for _, rec := range recs {
		if rec.Status != pipeline.RoundOK || rec.TNodes == 0 {
			t.Fatalf("round %d degraded: status %v, %d tNodes, %d ASes", rec.Round, rec.Status, rec.TNodes, len(rec.Entries))
		}
	}
}

// TestForcedRoundsArchiveTheSameBytes: day mode's archive is one function of
// the world and the seed — byte for byte the same at 1 and 4 workers, and
// with every second round forced from scratch (-full-every 2), the only
// daemon-level check that a forced round archives what an incremental one
// does.
func TestForcedRoundsArchiveTheSameBytes(t *testing.T) {
	const rounds = 5
	var want []string
	for _, tc := range []struct{ workers, fullEvery int }{{1, 0}, {4, 0}, {4, 2}} {
		cfg := testConfig(t)
		cfg.Store = t.TempDir()
		cfg.Rounds, cfg.Workers, cfg.FullEvery = rounds, tc.workers, tc.fullEvery
		d := open(t, cfg)
		drain(t, d)
		if forced := d.rounds.fullRoundsForced.Load(); (tc.fullEvery > 0) != (forced > 0) {
			t.Errorf("workers=%d full-every=%d: %d rounds forced", tc.workers, tc.fullEvery, forced)
		}
		got := hashChain(archive(t, cfg.Store))
		if len(got) != rounds {
			t.Fatalf("workers=%d full-every=%d: archived %d rounds, want %d", tc.workers, tc.fullEvery, len(got), rounds)
		}
		if want == nil {
			want = got
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d full-every=%d: archive diverges from workers=1 at round %d", tc.workers, tc.fullEvery, i)
			}
		}
	}
}

// TestZeroChurnRound: re-measuring the same day (-rounds 2 -interval 0)
// reuses every pair, re-evaluates no test prefix and rescores no AS — the
// cumulative counters still hold round 0's cold work only.
func TestZeroChurnRound(t *testing.T) {
	cfg := testConfig(t)
	cfg.Rounds, cfg.Interval = 2, 0
	d := open(t, cfg)
	c := &d.rounds
	read := func() [3]int64 {
		return [3]int64{c.pairsRemeasured.Load(), c.testPrefixesReevaluated.Load(), c.asesRescored.Load()}
	}
	cold := read()
	drain(t, d)
	warm := read()
	if c.measured.Load() != 2 || c.pairsReused.Load() == 0 {
		t.Fatalf("after the zero-churn round: measured %d, pairs reused %d", c.measured.Load(), c.pairsReused.Load())
	}
	for i, key := range [3]string{"pairs_remeasured", "test_prefixes_reevaluated", "ases_rescored"} {
		if cold[i] == 0 || warm[i] != cold[i] {
			t.Errorf("%s: %v after round 0, %v after the zero-churn round; want equal and non-zero", key, cold[i], warm[i])
		}
	}
}

// metricsGolden is the key set of /metrics' "rovistad" map recorded at the
// parent commit under -stream synth. Day mode published no stream_pipeline
// or stream_sink section there; it now has both (its rounds run through the
// same sink), with "0:days" as the only source stage.
var metricsGolden = []string{
	"cache_hits", "cache_misses", "cache_shard_resets", "cache_shard_rotations",
	"errors", "latency_p50_us", "latency_p99_us", "rate_limited", "requests",
	"store_snapshot_publishes", "stream_clients", "stream_evicted",
	"whatif_errors", "whatif_queries",
	"converge.ases_touched", "converge.ases_touched_mean", "converge.dirty_prefixes",
	"converge.event_batches", "converge.events_applied", "converge.full_converges",
	"converge.incremental_converges", "converge.reconverge_p50_us",
	"converge.reconverge_p99_us", "converge.rounds", "converge.forked_rounds", "converge.serial_rounds",
	"converge.dense_bytes", "converge.spill_live_bytes", "converge.spill_len_bytes",
	"converge.spill_cap_bytes", "converge.spill_flood_live_bytes", "converge.spill_flood_len_bytes",
	"converge.spill_flood_cap_bytes", "converge.announcements", "converge.announcement_bytes", "converge.flood_bytes",
	"rounds.ases_rescored", "rounds.full_rounds_forced", "rounds.measured",
	"rounds.pairs_remeasured", "rounds.pairs_restored", "rounds.pairs_reused",
	"rounds.pairs_revalidated", "rounds.sim_events",
	"rounds.test_prefixes_reevaluated", "rounds.tnodes_requalified",
	"stream_hub.delivered", "stream_hub.encoded", "stream_hub.evictions", "stream_hub.published", "stream_hub.subscribers",
	"stream_pipeline.0:synth.events_out", "stream_pipeline.0:synth.msgs_out",
	"stream_pipeline.1:coalesce.events_out", "stream_pipeline.1:coalesce.msgs_out",
	"stream_pipeline.2:live-sink.events_out", "stream_pipeline.2:live-sink.msgs_out",
	"stream_sink.batches", "stream_sink.deltas_published", "stream_sink.events_applied", "stream_sink.rounds",
	"stream_sink.invariant_violations",
}

func checkMetricKeys(t *testing.T, got map[string]float64, stageKeys func(string) string) {
	t.Helper()
	want := map[string]bool{}
	for _, k := range metricsGolden {
		if k = stageKeys(k); k != "" {
			want[k] = true
		}
	}
	var diff []string
	for k := range want {
		if _, ok := got[k]; !ok {
			diff = append(diff, "-"+k)
		}
	}
	for k := range got {
		if !want[k] {
			diff = append(diff, "+"+k)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("/metrics key set differs from the golden list: %v", diff)
	}
}

// waitMetrics polls /metrics until done accepts what it reads.
func waitMetrics(t *testing.T, base, what string, done func(map[string]float64) bool) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		m := metrics(t, base)
		if done(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not reached after 60s: %v", what, m)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitRounds polls /metrics until the daemon has measured n rounds.
func waitRounds(t *testing.T, base string, n float64) map[string]float64 {
	t.Helper()
	return waitMetrics(t, base, fmt.Sprintf("rounds.measured = %v", n), func(m map[string]float64) bool {
		return m["rounds.measured"] >= n
	})
}

// TestServeDays drives a day-mode daemon over a real listener: every
// endpoint answers, the error paths are 4xx, a subscriber is pushed score
// deltas, and a cancel — with that subscriber still attached — shuts
// everything down in order with the archive intact and no goroutine left.
func TestServeDays(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	cfg := testConfig(t)
	cfg.Rounds = 3
	d := open(t, cfg)
	d.worldMu.Lock()
	r := start(t, d)
	frames := subscribe(t, r.base)
	d.worldMu.Unlock()

	if f := nextFrame(t, frames); f.id < 2 || len(f.update.Deltas) == 0 {
		t.Errorf("scores frame id %d with %d deltas; want a round after the baseline with movement", f.id, len(f.update.Deltas))
	}
	m := waitRounds(t, r.base, 3)
	checkMetricKeys(t, m, func(k string) string {
		switch {
		case strings.HasPrefix(k, "stream_pipeline.0:synth."):
			return strings.Replace(k, "0:synth", "0:days", 1)
		case strings.HasPrefix(k, "stream_pipeline.1:coalesce."):
			return strings.Replace(k, "1:coalesce", "1:live-sink", 1)
		case strings.HasPrefix(k, "stream_pipeline.2:"):
			return ""
		}
		return k
	})
	if m["rounds.measured"] != 1+m["stream_sink.rounds"] {
		t.Errorf("rounds.measured %v != baseline + stream_sink.rounds %v", m["rounds.measured"], m["stream_sink.rounds"])
	}

	_, body := get(t, r.base+"/v1/top?n=1")
	var top struct {
		Records []struct {
			ASN uint32 `json:"asn"`
		} `json:"records"`
	}
	if err := json.Unmarshal(body, &top); err != nil || len(top.Records) == 0 {
		t.Fatalf("/v1/top?n=1: %v in %s", err, body)
	}
	asn := top.Records[0].ASN
	for _, path := range []string{
		"/healthz", "/metrics", "/v1/rounds",
		fmt.Sprintf("/v1/as/%d", asn), fmt.Sprintf("/v1/as/%d/timeseries", asn),
		"/v1/top?n=10", "/v1/top?n=10&order=unprotected", "/v1/diff?from=0&to=latest",
		"/v1/export?format=json", "/v1/export?format=csv", "/v1/export?format=json&round=0",
		"/debug/pprof/", "/debug/pprof/profile?seconds=1",
		fmt.Sprintf("/v1/whatif?action=deploy-rov&asn=%d", asn),
	} {
		if code, body := get(t, r.base+path); code != 200 || len(body) == 0 {
			t.Errorf("GET %s -> %d with %d bytes, want 200 and a body", path, code, len(body))
		}
	}
	for _, path := range []string{
		"/v1/as/999999999", "/v1/as/notanumber", "/v1/export?format=xml", "/v1/diff?from=0&to=99999",
		"/v1/whatif", "/v1/whatif?action=warp", "/v1/stream?asn=0", "/v1/stream?min_delta=-1",
	} {
		if code, _ := get(t, r.base+path); code < 400 || code > 499 {
			t.Errorf("GET %s -> %d, want 4xx", path, code)
		}
	}
	if _, body := get(t, r.base+"/v1/export?format=json"); !strings.Contains(string(body), `"format_version"`) {
		t.Error("/v1/export JSON lacks format_version")
	}

	// Cancel with the SSE subscriber still attached: Run must not wait for
	// a request that never ends on its own.
	if err := r.stop(); err != nil {
		t.Fatalf("Run returned %v on cancel, want nil", err)
	}
	recs := archive(t, cfg.Store)
	if len(recs) != 3 {
		t.Fatalf("archive reopened with %d rounds, want 3", len(recs))
	}
	for i, rec := range recs {
		if int(rec.Round) != i || rec.Day != 5*i || rec.Status != pipeline.RoundOK {
			t.Errorf("round %d reopened as round %d day %d status %v", i, rec.Round, rec.Day, rec.Status)
		}
	}
	for range frames { // the subscriber's reader exits once the server closes the stream
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Open, %d after Run returned:\n%s",
				goroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeStream: under -stream synth a subscriber is pushed deltas,
// /metrics has exactly the parent's keys, the rounds counters move with the
// streamed rounds (at the parent they froze at the baseline) and
// -full-every forces rounds there too.
func TestServeStream(t *testing.T) {
	cfg := testConfig(t)
	cfg.Stream = "synth"
	cfg.StreamEvents = 200 // 10 windows
	cfg.FullEvery = 2
	d := open(t, cfg)
	d.worldMu.Lock()
	r := start(t, d)
	frames := subscribe(t, r.base)
	d.worldMu.Unlock()

	if f := nextFrame(t, frames); f.id < 2 || len(f.update.Deltas) == 0 {
		t.Errorf("scores frame id %d with %d deltas; want a streamed round with movement", f.id, len(f.update.Deltas))
	}
	if code, _ := get(t, r.base+"/v1/stream?asn=0"); code != 400 {
		t.Errorf("GET /v1/stream?asn=0 -> %d, want 400", code)
	}
	m := waitRounds(t, r.base, 11)
	checkMetricKeys(t, m, func(k string) string { return k })
	if m["rounds.measured"] != 1+m["stream_sink.rounds"] {
		t.Errorf("rounds.measured %v != baseline + stream_sink.rounds %v", m["rounds.measured"], m["stream_sink.rounds"])
	}
	for _, key := range []string{"rounds.full_rounds_forced", "rounds.pairs_reused", "rounds.pairs_remeasured",
		"stream_sink.batches", "stream_hub.delivered", "stream_pipeline.1:coalesce.msgs_out"} {
		if m[key] == 0 {
			t.Errorf("%s is 0 after %v streamed rounds", key, m["stream_sink.rounds"])
		}
	}
	if err := r.stop(); err != nil {
		t.Fatalf("Run returned %v on cancel, want nil", err)
	}
	if n := len(archive(t, cfg.Store)); n != int(m["rounds.measured"]) {
		t.Errorf("archive reopened with %d rounds, /metrics counted %v", n, m["rounds.measured"])
	}
}

// TestCompactEveryBothModes: -compact-every was parsed and ignored under
// -stream at the parent; compaction now follows the append in the sink's
// path, so it happens whatever feeds the sink, and loses nothing.
func TestCompactEveryBothModes(t *testing.T) {
	for _, mode := range []func(*Config){
		func(cfg *Config) { cfg.Rounds = 5 },
		func(cfg *Config) { cfg.Stream, cfg.StreamEvents = "synth", 80 },
	} {
		cfg := testConfig(t)
		cfg.CompactEvery = 2
		mode(&cfg)
		d := open(t, cfg)
		locks := d.st.WriterLockAcquisitions()
		if err := d.pipe.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Each append takes the writer lock once and each compaction once
		// more.
		rounds := d.st.Rounds()
		if got, want := int(d.st.WriterLockAcquisitions()-locks), (rounds-1)+rounds/2; got != want {
			t.Errorf("stream=%q: %d writer-lock acquisitions over %d rounds, want %d (appends + compactions)", cfg.Stream, got, rounds, want)
		}
		d.ln.Close()
		d.st.Close()
		if n := len(archive(t, cfg.Store)); n != rounds {
			t.Errorf("stream=%q: %d rounds after compaction, want %d", cfg.Stream, n, rounds)
		}
	}
}

// TestOpenRejectsBadConfig: flag values that cannot work are errors from
// Open, before any world is built.
func TestOpenRejectsBadConfig(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"stream+synth":       func(c *Config) { c.Stream, c.Synth = "synth", "10x2" },
		"bad synth":          func(c *Config) { c.Synth = "tenbytwo" },
		"bad size":           func(c *Config) { c.Size = "galactic" },
		"bad faults":         func(c *Config) { c.Faults = "gremlins" },
		"interval 0 forever": func(c *Config) { c.Interval = 0 },
		"negative interval":  func(c *Config) { c.Interval, c.Rounds = -1, 3 },
	} {
		cfg := testConfig(t)
		mod(&cfg)
		if d, err := Open(cfg); err == nil {
			d.ln.Close()
			d.st.Close()
			t.Errorf("%s: Open succeeded", name)
		}
	}
}

// TestRoundMonitor: a round whose pair accounting does not add up — here a
// Snapshot doctored on its way out of the sink, after the archive took it —
// is counted once in stream_sink.invariant_violations, and /healthz, 200
// until then, answers 503 from then on.
func TestRoundMonitor(t *testing.T) {
	cfg := testConfig(t)
	cfg.Rounds = 3
	d := open(t, cfg)
	observe := d.sink.OnRound
	d.sink.OnRound = func(snap *core.Snapshot) {
		observe(snap)
		if d.sink.Rounds.Load() == 1 {
			snap.Metrics.PairsDiscarded++
		}
	}
	d.worldMu.Lock()
	r := start(t, d)
	if code, body := get(t, r.base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz before any streamed round -> %d: %s", code, body)
	}
	d.worldMu.Unlock()
	m := waitRounds(t, r.base, 3)
	if got := m["stream_sink.invariant_violations"]; got != 1 || m["stream_sink.rounds"] != 2 {
		t.Errorf("%v invariant violations over %v rounds, want 1 over 2", got, m["stream_sink.rounds"])
	}
	code, body := get(t, r.base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"unhealthy"`) {
		t.Errorf("/healthz after a violation -> %d: %s", code, body)
	}
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSynthServing: -synth serves a pre-populated store with no rounds, no
// hub and no what-if.
func TestSynthServing(t *testing.T) {
	cfg := testConfig(t)
	cfg.Synth = "50x4"
	r := start(t, open(t, cfg))
	if code, body := get(t, r.base+"/v1/rounds"); code != 200 || strings.Count(string(body), `"round"`) != 4 {
		t.Errorf("/v1/rounds -> %d: %s", code, body)
	}
	if code, _ := get(t, r.base+"/v1/stream"); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/stream -> %d in synth-serving mode, want 503", code)
	}
	if err := r.stop(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestMetricsCounterGolden pins the numbers behind /metrics, not only its
// keys: on the fixed-seed smoke world every counter below is a pure function
// of the configuration, so a change to how counters are carried to the
// endpoint must leave each of them exactly where it was. The constants were
// recorded before internal/telemetry existed, through the map[string]any
// carriers it replaced. The round counters moved once, when the pair grid
// learned to revalidate a cell whose stamp moved under unchanged routes:
// the two day advances move stamps over 4,842 cells whose five flows
// route as before, so pairs re-measured went 7,548 → 2,706, pairs reused
// 0 → 4,842 (all revalidated), sim events 862,857 → 310,145 and ASes
// rescored 198 → 76. The spill gauges moved once, when a cell's first
// spill run came to hold one route instead of two: most multi-neighbor
// cells hear their prefix from exactly two neighbors, so spill len went
// 867,136 → 675,584 bytes and cap 944,240 → 731,312, over the same 600,432
// live. They moved again when a full flood began releasing the spill pool:
// what stays is only what the two day batches regrew for the 22 prefixes
// they re-flooded, live/len/cap 600,432/675,584/731,312 → 17,776/21,760/
// 34,048 bytes, and the pool the cold flood reached is the new
// converge.spill_flood_* keys (602,816 live — the day batches had moved
// live from there to 600,432 — over the same 675,584 len and 731,312 cap).
// converge.announcement_bytes, stream_sink.invariant_violations and the
// spill_flood keys were recorded when they were added, as were
// converge.forked_rounds and serial_rounds, which split the 21 rounds by
// whether they had the work to fork: six of the cold Converge's rounds do
// when there is more than one proc, and nothing forks at GOMAXPROCS 1.
func TestMetricsCounterGolden(t *testing.T) {
	forked := 6.0
	if runtime.GOMAXPROCS(0) == 1 {
		forked = 0
	}
	check := func(t *testing.T, got, want map[string]float64) {
		t.Helper()
		for k, w := range want {
			if g, ok := got[k]; !ok || g != w {
				t.Errorf("%s = %v (present: %v), recorded %v", k, g, ok, w)
			}
		}
	}

	// Three day-mode rounds with one subscriber attached from before the
	// first streamed round: every section leaf but the two wall-clock
	// reconverge quantiles.
	t.Run("days", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.Rounds = 3
		d := open(t, cfg)
		d.worldMu.Lock()
		r := start(t, d)
		subscribe(t, r.base)
		d.worldMu.Unlock()
		// A frame is encoded by its first reader, after Publish returns.
		m := waitMetrics(t, r.base, "3 rounds, every delivered frame encoded", func(m map[string]float64) bool {
			return m["rounds.measured"] >= 3 && m["stream_hub.encoded"] >= m["stream_hub.delivered"]
		})
		check(t, m, map[string]float64{
			"converge.ases_touched":                  1470,
			"converge.ases_touched_mean":             735,
			"converge.dirty_prefixes":                22,
			"converge.event_batches":                 2,
			"converge.events_applied":                4,
			"converge.full_converges":                1,
			"converge.incremental_converges":         2,
			"converge.rounds":                        21,
			"converge.forked_rounds":                 forked,
			"converge.serial_rounds":                 21 - forked,
			"converge.dense_bytes":                   1596400,
			"converge.spill_live_bytes":              17776,
			"converge.spill_len_bytes":               21760,
			"converge.spill_cap_bytes":               34048,
			"converge.spill_flood_live_bytes":        602816,
			"converge.spill_flood_len_bytes":         675584,
			"converge.spill_flood_cap_bytes":         731312,
			"converge.announcements":                 22536,
			"converge.announcement_bytes":            1111944,
			"rounds.ases_rescored":                   76,
			"rounds.full_rounds_forced":              0,
			"rounds.measured":                        3,
			"rounds.pairs_remeasured":                2706,
			"rounds.pairs_reused":                    4842,
			"rounds.pairs_revalidated":               4842,
			"rounds.pairs_restored":                  0,
			"rounds.sim_events":                      310145,
			"rounds.test_prefixes_reevaluated":       921,
			"rounds.tnodes_requalified":              57,
			"stream_hub.delivered":                   1,
			"stream_hub.encoded":                     1,
			"stream_hub.evictions":                   0,
			"stream_hub.published":                   2,
			"stream_hub.subscribers":                 1,
			"stream_pipeline.0:days.events_out":      0,
			"stream_pipeline.0:days.msgs_out":        2,
			"stream_pipeline.1:live-sink.events_out": 0,
			"stream_pipeline.1:live-sink.msgs_out":   0,
			"stream_sink.batches":                    2,
			"stream_sink.deltas_published":           6,
			"stream_sink.events_applied":             0,
			"stream_sink.rounds":                     2,
			"stream_sink.invariant_violations":       0,
		})
	})

	// A bounded -stream synth run: only what does not depend on where the
	// coalescer's wall-clock MaxDelay happened to cut a batch.
	t.Run("synth", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.Stream = "synth"
		cfg.StreamEvents = 200
		r := start(t, open(t, cfg))
		m := waitMetrics(t, r.base, "stream_sink.events_applied = 200", func(m map[string]float64) bool {
			return m["stream_sink.events_applied"] >= 200
		})
		check(t, m, map[string]float64{
			"stream_pipeline.0:synth.events_out": 200,
			"stream_pipeline.0:synth.msgs_out":   200,
			"stream_sink.events_applied":         200,
		})
	})
}
