package stream

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsec-lab/rovista/internal/bgp"
)

// funcStage adapts a closure into a Stage for pipeline-mechanics tests.
type funcStage struct {
	name string
	run  func(ctx context.Context, in <-chan Msg, out chan<- Msg) error
}

func (f *funcStage) Name() string { return f.name }
func (f *funcStage) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	return f.run(ctx, in, out)
}

// emitN is a source producing n single-event messages as fast as it can.
func emitN(n int) *funcStage {
	return &funcStage{name: "emit", run: func(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
		for i := 0; i < n; i++ {
			m := Msg{Seq: uint64(i), Time: float64(i), Events: []bgp.RouteEvent{{Kind: bgp.EvAnnounce}}}
			if err := send(ctx, out, m); err != nil {
				return err
			}
		}
		return nil
	}}
}

// waitGoroutines polls until the goroutine count drops back to the base
// (modulo runtime noise), failing the test if it never does — the
// goroutine-leak check for cancellation paths.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > base %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackpressureNoDrop: with a tiny channel buffer and a sink an order of
// magnitude slower than the source, every event must still arrive, in
// order — backpressure blocks the source instead of dropping.
func TestBackpressureNoDrop(t *testing.T) {
	const n = 200
	var got atomic.Uint64
	var lastSeq int64 = -1
	sink := &funcStage{name: "slow-sink", run: func(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
		for m := range in {
			if int64(m.Seq) != lastSeq+1 {
				t.Errorf("out of order: seq %d after %d", m.Seq, lastSeq)
			}
			lastSeq = int64(m.Seq)
			got.Add(uint64(len(m.Events)))
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}}
	p := NewPipeline(2, emitN(n), sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got.Load() != n {
		t.Fatalf("sink saw %d events, want %d", got.Load(), n)
	}
	m := p.Metrics()
	if m[0].MsgsOut.Load() != n || m[0].EventsOut.Load() != n {
		t.Fatalf("source metrics = %d msgs / %d events, want %d", m[0].MsgsOut.Load(), m[0].EventsOut.Load(), n)
	}
}

// TestCancelDrainsWithoutDeadlock: cancelling the context while the source
// is blocked on a full channel (the sink consumes nothing) must unwind the
// whole pipeline promptly and leak no goroutines.
func TestCancelDrainsWithoutDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	started := make(chan struct{})
	sink := &funcStage{name: "stuck-sink", run: func(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
		close(started)
		<-ctx.Done() // never reads: upstream fills up and blocks
		return ctx.Err()
	}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	p := NewPipeline(2, emitN(1_000_000), &CoalesceStage{Window: 1}, sink) // one message per window: a pass-through
	go func() { done <- p.Run(ctx) }()

	<-started
	time.Sleep(20 * time.Millisecond) // let the edges fill and the source park
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled run returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline deadlocked after cancel")
	}
	waitGoroutines(t, base)
}

// TestStageErrorAbortsPipeline: a failing stage must cancel the others and
// surface its error from Run.
func TestStageErrorAbortsPipeline(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	bad := &funcStage{name: "bad", run: func(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
		for {
			select {
			case _, ok := <-in:
				if !ok {
					return nil
				}
				return boom
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}}
	sink := &funcStage{name: "sink", run: func(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
		for {
			select {
			case _, ok := <-in:
				if !ok {
					return nil
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}}
	p := NewPipeline(4, emitN(1_000_000), bad, sink)
	err := p.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
	waitGoroutines(t, base)
}

// TestCoalescePlanWindows: virtual-time batching groups by window and
// flushes the tail; streaming and plan paths agree.
func TestCoalescePlanWindows(t *testing.T) {
	src := emitN(10) // Time = 0..9
	var msgs []Msg
	for i := 0; i < 10; i++ {
		msgs = append(msgs, Msg{Seq: uint64(i), Time: float64(i), Events: []bgp.RouteEvent{{Kind: bgp.EvAnnounce, AS: 1}}})
	}
	batches := CoalescePlan(msgs, 4)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	if len(batches[0].Events) != 4 || len(batches[1].Events) != 4 || len(batches[2].Events) != 2 {
		t.Fatalf("batch sizes = %d/%d/%d", len(batches[0].Events), len(batches[1].Events), len(batches[2].Events))
	}

	// The streaming stage must produce the identical batch sequence.
	p := NewPipeline(4, src, &CoalesceStage{Window: 4}, &collectSink{})
	sink := p.stages[2].(*collectSink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.msgs) != len(batches) {
		t.Fatalf("streamed %d batches, want %d", len(sink.msgs), len(batches))
	}
	for i := range batches {
		if len(sink.msgs[i].Events) != len(batches[i].Events) || sink.msgs[i].Time != batches[i].Time {
			t.Fatalf("batch %d: streamed %+v vs plan %+v", i, sink.msgs[i], batches[i])
		}
	}
}

// collectSink accumulates everything it receives (single-goroutine use).
type collectSink struct {
	msgs []Msg
}

func (c *collectSink) Name() string { return "collect" }
func (c *collectSink) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	for {
		select {
		case m, ok := <-in:
			if !ok {
				return nil
			}
			c.msgs = append(c.msgs, m)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestCoalesceMaxDelayFlushes: with MaxDelay set, a pending batch flushes
// on wall time even though its virtual window never closes.
func TestCoalesceMaxDelayFlushes(t *testing.T) {
	in := make(chan Msg)
	out := make(chan Msg, 1)
	c := &CoalesceStage{Window: 1e9, MaxDelay: 20 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx, in, out) }()

	in <- Msg{Time: 0, Events: []bgp.RouteEvent{{Kind: bgp.EvAnnounce, AS: 1}}}
	select {
	case m := <-out:
		if len(m.Events) != 1 {
			t.Fatalf("flushed %d events", len(m.Events))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("MaxDelay never flushed")
	}
	close(in)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
