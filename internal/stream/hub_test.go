package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
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

// viewCount returns the number of live views.
func (h *Hub) viewCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.views)
}

// TestHubSharesFramePerView: the subscribers of one filter receive the same
// frame and one encoding of it; different filters get different ones; and a
// view exists only while it has a subscriber, however the last one leaves.
func TestHubSharesFramePerView(t *testing.T) {
	h := NewHub()
	var all, only7 []*Subscriber
	// Every spelling of "no threshold" is the unfiltered view.
	for _, minDelta := range []float64{0, -1, math.NaN(), math.Copysign(0, -1)} {
		all = append(all, h.Subscribe(SubFilter{MinDelta: minDelta}, 8))
	}
	for i := 0; i < 3; i++ {
		only7 = append(only7, h.Subscribe(SubFilter{ASN: 7}, 8))
	}
	if n := h.viewCount(); n != 2 {
		t.Fatalf("%d views for 2 distinct filters", n)
	}

	h.Publish(mkUpdate(1, ScoreDelta{ASN: 7, Old: 10, New: 30}, ScoreDelta{ASN: 9, Old: 50, New: 40}))
	encodings := func(subs []*Subscriber) []byte {
		t.Helper()
		var first []byte
		for i, s := range subs {
			b, err := (<-s.C).SSE()
			if err != nil || len(b) == 0 {
				t.Fatalf("SSE() = %q, %v", b, err)
			}
			if i == 0 {
				first = b
			} else if &b[0] != &first[0] || len(b) != len(first) {
				t.Fatalf("subscriber %d of the view got its own encoding", i)
			}
		}
		return first
	}
	a, b := encodings(all), encodings(only7)
	if &a[0] == &b[0] || bytes.Equal(a, b) {
		t.Fatalf("two views share the encoding %q", a)
	}
	if got, want := h.Encoded.Load(), uint64(2); got != want {
		t.Fatalf("Encoded = %d, want %d (one per view)", got, want)
	}
	if got, want := h.Delivered.Load(), uint64(len(all)+len(only7)); got != want {
		t.Fatalf("Delivered = %d, want %d", got, want)
	}

	// The last Close of a view deletes it.
	for _, s := range only7 {
		if n := h.viewCount(); n != 2 {
			t.Fatalf("%d views while both still have subscribers", n)
		}
		s.Close()
	}
	if n := h.viewCount(); n != 1 {
		t.Fatalf("%d views after the asn=7 view emptied, want 1", n)
	}
	for _, s := range all {
		s.Close()
	}
	// So does the eviction of its last subscriber.
	stalled := h.Subscribe(SubFilter{ASN: 9, MinDelta: 2}, 1)
	for round := uint32(2); round <= 3; round++ {
		h.Publish(mkUpdate(round, ScoreDelta{ASN: 9, Old: 0, New: 5}))
	}
	if !stalled.Evicted() {
		t.Fatal("stalled subscriber not evicted")
	}
	if n := h.viewCount(); n != 0 {
		t.Fatalf("%d views left with no subscriber attached", n)
	}
}

// checkFrame verifies one received frame against the subscription's filter:
// its encoding is a scores frame whose id is the round, whose payload decodes
// to the frame's own update, and which carries only deltas the filter passes.
func checkFrame(t *testing.T, f SubFilter, fr *Frame, lastRound uint32) {
	t.Helper()
	b, err := fr.SSE()
	if err != nil {
		t.Errorf("round %d: %v", fr.Round, err)
		return
	}
	prefix := "id: " + strconv.FormatUint(uint64(fr.Round), 10) + "\nevent: scores\ndata: "
	data, ok := bytes.CutPrefix(b, []byte(prefix))
	data, ok2 := bytes.CutSuffix(data, []byte("\n\n"))
	var u Update
	if !ok || !ok2 || json.Unmarshal(data, &u) != nil {
		t.Errorf("round %d: malformed frame %q", fr.Round, b)
		return
	}
	if u.Round != fr.Round || len(u.Deltas) != len(fr.Deltas) {
		t.Errorf("round %d: payload %+v is not the frame's update %+v", fr.Round, u, fr.Update)
	}
	if fr.Round <= lastRound {
		t.Errorf("round %d delivered after round %d", fr.Round, lastRound)
	}
	for _, d := range u.Deltas {
		if !f.match(d) {
			t.Errorf("round %d: filter %+v let %+v through", fr.Round, f, d)
		}
	}
	if f != (SubFilter{}) && len(u.Deltas) == 0 {
		t.Errorf("round %d: filter %+v was sent an empty update", fr.Round, f)
	}
}

// TestHubChurnRace runs one publisher against subscribers that come and go,
// keep up, or stall until evicted, over a handful of views. Whatever a
// subscriber received must be a well-formed frame of its own view with
// ascending ids, and one that kept up must have missed nothing.
func TestHubChurnRace(t *testing.T) {
	const rounds = 2000
	filters := []SubFilter{{}, {ASN: 7}, {ASN: 9}, {MinDelta: 1}, {ASN: 7, MinDelta: 1}, {ASN: 12345}}
	// AS 7 moves by 0, 0.75 or 1.5; AS 9 is present every other round and
	// (re)appears every fourth.
	update := func(round uint32) Update {
		r := float64(round)
		u := mkUpdate(round, ScoreDelta{ASN: inet.ASN(100 + round%5), Old: r, New: r + 0.5},
			ScoreDelta{ASN: 7, Old: r, New: r + 0.75*float64(round%3)})
		if round%2 == 0 {
			u.Deltas = append(u.Deltas, ScoreDelta{ASN: 9, Old: 1, New: 1.25, Appeared: round%4 == 0})
		}
		return u
	}
	matches := func(f SubFilter) (n int) {
		for round := uint32(1); round <= rounds; round++ {
			if len(f.filter(update(round).Deltas)) > 0 {
				n++
			}
		}
		return n
	}

	h := NewHub()
	done := make(chan struct{}) // closed when the publisher has finished
	kick := make(chan struct{}) // the publisher's pulse, for the subscribers that stall
	var wg sync.WaitGroup

	// Subscribers that keep up: a buffer as deep as the run, never evicted.
	for _, f := range filters {
		sub := h.Subscribe(f, rounds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got int
			var last uint32
			for fr := range sub.C { // until the publisher closes the hub
				checkFrame(t, f, fr, last)
				last = fr.Round
				got++
			}
			if want := matches(f); got != want || sub.Evicted() {
				t.Errorf("filter %+v: kept-up subscriber got %d frames (evicted=%v), want %d", f, got, sub.Evicted(), want)
			}
		}()
	}
	// Subscribers that come and go: a few frames, Close, next filter.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				f := filters[i%(len(filters)-1)] // not the one that matches nothing
				sub := h.Subscribe(f, 64)
				var last uint32
				for n := 0; n < 3; n++ {
					select {
					case fr, ok := <-sub.C:
						if ok {
							checkFrame(t, f, fr, last)
							last = fr.Round
						}
					case <-done:
						sub.Close()
						return
					}
				}
				sub.Close()
				for fr := range sub.C { // what was buffered when it closed
					checkFrame(t, f, fr, last)
					last = fr.Round
				}
			}
		}()
	}
	// Subscribers that stall: they read nothing for three pulses, and the
	// two or more rounds published in between overflow a buffer of one.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sub := h.Subscribe(SubFilter{}, 1)
				for n := 0; n < 3; n++ {
					select {
					case <-kick:
					case <-done:
						sub.Close()
						return
					}
				}
				var last uint32
				for fr := range sub.C {
					checkFrame(t, SubFilter{}, fr, last)
					last = fr.Round
				}
				if !sub.Evicted() {
					t.Error("subscriber that sat out two rounds on a buffer of one was not evicted")
				}
			}
		}()
	}

	for round := uint32(1); round <= rounds; round++ {
		h.Publish(update(round))
		if round%8 == 0 {
			kick <- struct{}{} // one of the stalled subscribers is always waiting, or about to
		}
	}
	close(done)
	h.Close()
	wg.Wait()

	if h.Evictions.Load() == 0 {
		t.Error("no subscriber was ever evicted: the stalled path did not run")
	}
	if n, subs := h.viewCount(), h.Subscribers.Load(); n != 0 || subs != 0 {
		t.Errorf("%d views, %d subscribers left after everyone detached", n, subs)
	}
	if enc, del := h.Encoded.Load(), h.Delivered.Load(); enc == 0 || enc > del {
		t.Errorf("Encoded = %d, Delivered = %d", enc, del)
	}
}
