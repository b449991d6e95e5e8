package stream

import (
	"context"
	"time"
)

// CoalesceStage batches events so the sink's Graph.ApplyEvents receives one
// dirty-scope batch per window instead of one event at a time. Batching is
// on the messages' *virtual* clock: every input with Time in
// [k·Window, (k+1)·Window) merges into output batch k, so a replay
// coalesces identically at any wall speed or worker count. VRP snapshot
// messages act as barriers: the pending batch flushes first and the
// snapshot passes through unmerged (its roa-change scope must apply against
// the VRP view it describes).
type CoalesceStage struct {
	// Window is the batch width in virtual seconds (default 1).
	Window float64
	// MaxDelay, when >0, also flushes the pending batch after this much
	// wall time, bounding staleness when the source pauses mid-window.
	// Wall-clock flushes are nondeterministic; leave 0 where determinism
	// matters (the metamorphic tests do).
	MaxDelay time.Duration
}

func (c *CoalesceStage) Name() string { return "coalesce" }

func (c *CoalesceStage) Run(ctx context.Context, in <-chan Msg, out chan<- Msg) error {
	co := &coalescer{window: c.Window}
	var timer *time.Timer
	var timeout <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timeout = nil
		}
	}
	for {
		select {
		case m, ok := <-in:
			if !ok {
				stopTimer()
				if last, have := co.finish(); have {
					return send(ctx, out, last)
				}
				return nil
			}
			for _, flushed := range co.add(m) {
				if err := send(ctx, out, flushed); err != nil {
					return err
				}
			}
			if co.havePending {
				if c.MaxDelay > 0 && timer == nil {
					timer = time.NewTimer(c.MaxDelay)
					timeout = timer.C
				}
			} else {
				stopTimer()
			}
		case <-timeout:
			timer, timeout = nil, nil
			if last, have := co.finish(); have {
				if err := send(ctx, out, last); err != nil {
					return err
				}
			}
		case <-ctx.Done():
			stopTimer()
			return ctx.Err()
		}
	}
}

// coalescer is the pure batching state machine shared by the streaming
// stage and CoalescePlan, so the two cannot diverge.
type coalescer struct {
	window      float64
	pending     Msg
	havePending bool
	curWin      int
}

func (c *coalescer) winOf(t float64) int {
	w := c.window
	if w <= 0 {
		w = 1
	}
	return int(t / w)
}

// add feeds one message in and returns the batches it completed (possibly
// none, possibly the pending batch plus a pass-through VRP snapshot).
func (c *coalescer) add(m Msg) []Msg {
	var out []Msg
	flushPending := func() {
		if c.havePending {
			out = append(out, c.pending)
			c.havePending = false
		}
	}
	if m.VRPs != nil {
		flushPending()
		out = append(out, m)
		return out
	}
	win := c.winOf(m.Time)
	if c.havePending && win != c.curWin {
		flushPending()
	}
	if !c.havePending {
		w := c.window
		if w <= 0 {
			w = 1
		}
		c.pending = Msg{Seq: m.Seq, Time: float64(win) * w}
		c.havePending = true
		c.curWin = win
	}
	c.pending.Events = append(c.pending.Events, m.Events...)
	return out
}

// finish returns the still-pending batch, if any.
func (c *coalescer) finish() (Msg, bool) {
	if !c.havePending {
		return Msg{}, false
	}
	m := c.pending
	c.havePending = false
	return m, true
}

// CoalescePlan batches a fully known message sequence exactly as a
// CoalesceStage with the same Window (and no MaxDelay) would.
// The determinism tests use it to compute the reference batch sequence
// that the live pipeline must reproduce bit-for-bit.
func CoalescePlan(msgs []Msg, window float64) []Msg {
	co := &coalescer{window: window}
	var out []Msg
	for _, m := range msgs {
		out = append(out, co.add(m)...)
	}
	if last, have := co.finish(); have {
		out = append(out, last)
	}
	return out
}
