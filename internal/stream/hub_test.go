package stream

import (
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
)

func mkUpdate(round uint32, deltas ...ScoreDelta) Update {
	return Update{Round: round, Deltas: deltas}
}

func TestHubPerASFilter(t *testing.T) {
	h := NewHub()
	all := h.Subscribe(SubFilter{}, 8)
	only7 := h.Subscribe(SubFilter{ASN: 7}, 8)

	h.Publish(mkUpdate(1,
		ScoreDelta{ASN: 7, Old: 10, New: 30},
		ScoreDelta{ASN: 9, Old: 50, New: 40},
	))
	h.Publish(mkUpdate(2, ScoreDelta{ASN: 9, Old: 40, New: 45}))

	if u := <-all.C; len(u.Deltas) != 2 {
		t.Fatalf("unfiltered sub got %d deltas, want 2", len(u.Deltas))
	}
	if u := <-all.C; len(u.Deltas) != 1 || u.Deltas[0].ASN != 9 {
		t.Fatalf("unfiltered round 2 = %+v", u.Deltas)
	}
	// The AS-7 subscriber sees only round 1, with only its delta.
	u := <-only7.C
	if u.Round != 1 || len(u.Deltas) != 1 || u.Deltas[0].ASN != 7 {
		t.Fatalf("filtered sub got %+v", u)
	}
	select {
	case u := <-only7.C:
		t.Fatalf("filtered sub got unexpected update %+v", u)
	default:
	}
	all.Close()
	only7.Close()
	if h.Subscribers.Load() != 0 {
		t.Fatalf("subscriber gauge = %d after close", h.Subscribers.Load())
	}
}

func TestHubMinDeltaFilter(t *testing.T) {
	h := NewHub()
	s := h.Subscribe(SubFilter{MinDelta: 10}, 8)
	h.Publish(mkUpdate(1,
		ScoreDelta{ASN: 1, Old: 50, New: 55},                // below threshold
		ScoreDelta{ASN: 2, Old: 50, New: 30},                // passes (|Δ|=20)
		ScoreDelta{ASN: 3, New: 2, Appeared: true},          // state change: always passes
		ScoreDelta{ASN: 4, Old: 99, New: 0, Vanished: true}, // state change
	))
	u := <-s.C
	if len(u.Deltas) != 3 {
		t.Fatalf("got %d deltas, want 3: %+v", len(u.Deltas), u.Deltas)
	}
	for _, d := range u.Deltas {
		if d.ASN == 1 {
			t.Fatal("sub-threshold delta leaked through")
		}
	}
	s.Close()
}

func TestHubSlowSubscriberEviction(t *testing.T) {
	h := NewHub()
	slow := h.Subscribe(SubFilter{}, 1)
	fast := h.Subscribe(SubFilter{}, 8)

	d := ScoreDelta{ASN: 1, Old: 0, New: 1}
	h.Publish(mkUpdate(1, d)) // fills slow's buffer
	h.Publish(mkUpdate(2, d)) // overflows: slow is evicted
	h.Publish(mkUpdate(3, d))

	if h.Evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", h.Evictions.Load())
	}
	// Slow sub: one buffered update, then a closed channel, flagged evicted.
	if u, ok := <-slow.C; !ok || u.Round != 1 {
		t.Fatalf("slow sub first read = %+v ok=%v", u, ok)
	}
	if _, ok := <-slow.C; ok {
		t.Fatal("evicted subscriber's channel still open")
	}
	if !slow.Evicted() {
		t.Fatal("Evicted() = false after eviction")
	}
	// Fast sub saw everything.
	for want := uint32(1); want <= 3; want++ {
		if u := <-fast.C; u.Round != want {
			t.Fatalf("fast sub round = %d, want %d", u.Round, want)
		}
	}
	// Closing an evicted sub is a no-op, not a double close.
	slow.Close()
	fast.Close()
	if h.Subscribers.Load() != 0 {
		t.Fatalf("subscriber gauge = %d", h.Subscribers.Load())
	}
}

func TestDiffScores(t *testing.T) {
	prev := map[inet.ASN]float64{1: 10, 2: 20, 3: 30}
	cur := map[inet.ASN]float64{1: 10, 2: 25, 4: 40}
	ds := DiffScores(prev, cur)
	if len(ds) != 3 {
		t.Fatalf("deltas = %+v", ds)
	}
	// Sorted by ASN: 2 (changed), 3 (vanished), 4 (appeared).
	if ds[0].ASN != 2 || ds[0].Old != 20 || ds[0].New != 25 {
		t.Fatalf("ds[0] = %+v", ds[0])
	}
	if ds[1].ASN != 3 || !ds[1].Vanished {
		t.Fatalf("ds[1] = %+v", ds[1])
	}
	if ds[2].ASN != 4 || !ds[2].Appeared {
		t.Fatalf("ds[2] = %+v", ds[2])
	}
}
