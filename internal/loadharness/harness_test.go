package loadharness

import (
	"math/rand"
	"net/http"
	"net/url"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/api"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

func newTarget(t *testing.T, burst int) (*api.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := store.Synthesize(st, store.SynthConfig{ASes: 200, Rounds: 10, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return api.New(st, api.Config{RateBurst: burst}), st
}

func TestRunMixedLoad(t *testing.T) {
	srv, _ := newTarget(t, 0) // no rate limiting: every request must succeed
	rep, err := Run(srv.Handler(), Config{
		Clients:  1000,
		Workers:  2,
		Requests: 4000,
		ASes:     200,
		Rounds:   10,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 4000 {
		t.Fatalf("Requests = %d, want 4000", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", rep.Errors)
	}
	if rep.RateLimited != 0 {
		t.Fatalf("RateLimited = %d with limiting disabled", rep.RateLimited)
	}
	if rep.QPS <= 0 {
		t.Fatalf("QPS = %v, want > 0", rep.QPS)
	}
	if !(rep.P50us <= rep.P99us && rep.P99us <= rep.P999us) {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v", rep.P50us, rep.P99us, rep.P999us)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestRunAppendStorm(t *testing.T) {
	srv, st := newTarget(t, 0)
	rounds := st.Rounds()
	var appended int
	rep, err := Run(srv.Handler(), Config{
		Clients:     1000,
		Workers:     2,
		Duration:    200 * time.Millisecond,
		ASes:        200,
		Rounds:      rounds,
		Seed:        1,
		AppendEvery: 10 * time.Millisecond,
		Append: func() error {
			appended++
			return store.Synthesize(st, store.SynthConfig{ASes: 200, Rounds: 1, Seed: int64(100 + appended)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d, want 0 (queries must survive mid-load appends)", rep.Errors)
	}
	if st.Rounds() <= rounds || rep.Appends == 0 {
		t.Fatalf("append storm did not land: rounds %d→%d, appends=%d", rounds, st.Rounds(), rep.Appends)
	}
}

func TestRunSubscriberMix(t *testing.T) {
	srv, _ := newTarget(t, 0)
	hub := stream.NewHub()
	var round uint32
	rep, err := Run(srv.Handler(), Config{
		Clients:     100,
		Workers:     2,
		Duration:    200 * time.Millisecond,
		ASes:        200,
		Rounds:      10,
		Seed:        1,
		Subscribers: 8,
		Hub:         hub,
		AppendEvery: 10 * time.Millisecond,
		Append: func() error {
			round++
			hub.Publish(stream.Update{Round: round, Deltas: []stream.ScoreDelta{{ASN: 1000, Old: 1, New: 2}}})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Subscribers != 8 {
		t.Fatalf("Subscribers = %d, want 8", rep.Subscribers)
	}
	// Every published round fans out to all 8 subscribers, none of whom
	// fall behind at this rate.
	if want := int64(round) * 8; rep.Deliveries != want || rep.SubEvicted != 0 {
		t.Fatalf("deliveries = %d (want %d), evicted = %d", rep.Deliveries, want, rep.SubEvicted)
	}
	if hub.Subscribers.Load() != 0 {
		t.Fatalf("harness left %d subscriptions attached", hub.Subscribers.Load())
	}
}

func TestRunRateLimited(t *testing.T) {
	srv, _ := newTarget(t, 2) // tiny burst: hot clients must hit 429s
	rep, err := Run(srv.Handler(), Config{
		Clients:  50,
		Workers:  2,
		Requests: 2000,
		ASes:     200,
		Rounds:   10,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RateLimited == 0 {
		t.Fatal("expected 429s with burst=2 and 50 hot clients")
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d, want 0 (429s are not errors)", rep.Errors)
	}
}

func TestRunDurationBound(t *testing.T) {
	srv, _ := newTarget(t, 0)
	rep, err := Run(srv.Handler(), Config{
		Clients:  100,
		Workers:  1,
		Duration: 50 * time.Millisecond,
		ASes:     200,
		Rounds:   10,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("duration-bound run served no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", rep.Errors)
	}
}

func TestQuantilesMonotone(t *testing.T) {
	var h telemetry.Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Record(int64(rng.Intn(1_000_000)))
	}
	h.Record(int64(time.Hour))
	p50, p99, p999 := micros(&h, 0.50), micros(&h, 0.99), micros(&h, 0.999)
	if !(p50 > 0 && p50 <= p99 && p99 <= p999) {
		t.Fatalf("quantiles not monotone: %v %v %v", p50, p99, p999)
	}
}

// TestReportsLatencyOfSlowTargets: a target that takes 50 ms is reported at
// 50 ms. The 100 ns-bucket histogram this package used to carry ended at
// 6.5 ms and reported that ceiling (p50 = p99 = p999 = 6553.5) for anything
// slower.
func TestReportsLatencyOfSlowTargets(t *testing.T) {
	const took = 50 * time.Millisecond
	slow := func(*url.URL, string) int { time.Sleep(took); return http.StatusOK }
	rep, err := run(slow, Config{Clients: 10, Workers: 250, Requests: 1000, ASes: 10, Rounds: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Sleep never returns early; how late it returns is the machine's business.
	floor := float64(took.Microseconds()) * (1 - telemetry.MaxRelativeError)
	if rep.Requests != 1000 || rep.P50us < floor || rep.P50us > 2*floor || rep.P99us < rep.P50us || rep.P999us < rep.P99us {
		t.Fatalf("1000 requests of %v: %d reported, p50 %.1f p99 %.1f p999 %.1f µs", took, rep.Requests, rep.P50us, rep.P99us, rep.P999us)
	}
}

func TestClientAddrs(t *testing.T) {
	addrs := clientAddrs(300)
	if addrs[0] != "10.0.0.0:4242" {
		t.Fatalf("addrs[0] = %q", addrs[0])
	}
	if addrs[257] != "10.0.1.1:4242" {
		t.Fatalf("addrs[257] = %q", addrs[257])
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate client address %q", a)
		}
		seen[a] = true
	}
}
