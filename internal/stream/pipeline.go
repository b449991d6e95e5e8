package stream

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/netsec-lab/rovista/internal/telemetry"
)

// defaultBuf is the per-edge channel capacity when Pipeline.Buf is zero.
const defaultBuf = 64

// StageMetrics counts the traffic a stage emitted downstream. The counters
// live on the edge leaving the stage (the sink, having no out edge, reports
// through its own counters instead), are updated lock-free, and are safe to
// read while the pipeline runs — rovistad's /metrics scrapes them live.
type StageMetrics struct {
	Name      string
	MsgsOut   atomic.Uint64
	EventsOut atomic.Uint64
}

// Pipeline wires stages with bounded channels. Backpressure is structural:
// sends block when the downstream buffer is full, so a slow sink slows the
// source instead of dropping messages. Construct with NewPipeline, then Run.
type Pipeline struct {
	stages  []Stage
	buf     int
	metrics []*StageMetrics
}

// NewPipeline composes stages (source first, sink last) with per-edge
// buffers of capacity buf (<=0 selects the default of 64).
func NewPipeline(buf int, stages ...Stage) *Pipeline {
	if buf <= 0 {
		buf = defaultBuf
	}
	p := &Pipeline{stages: stages, buf: buf}
	for _, st := range stages {
		p.metrics = append(p.metrics, &StageMetrics{Name: st.Name()})
	}
	return p
}

// Metrics returns the per-stage counters, in stage order.
func (p *Pipeline) Metrics() []*StageMetrics { return p.metrics }

// WriteMetrics reports one edge's counters.
func (m *StageMetrics) WriteMetrics(w *telemetry.Writer) {
	w.Uint("msgs_out", m.MsgsOut.Load())
	w.Uint("events_out", m.EventsOut.Load())
}

// WriteMetrics reports the per-stage counters (/metrics' stream_pipeline
// section), one sub-section per stage named "<index>:<stage name>" so
// duplicate stage names stay distinct.
func (p *Pipeline) WriteMetrics(w *telemetry.Writer) {
	for i, m := range p.metrics {
		w.Section(strconv.Itoa(i)+":"+m.Name, m)
	}
}

// Run executes the pipeline until the source is exhausted (messages drain
// through to the sink, then every stage returns), a stage fails (the
// pipeline cancels and the first error is returned), or ctx is cancelled
// (every stage unblocks via its ctx select and Run returns nil — a
// cancelled pipeline exits cleanly without deadlocking, though messages
// still buffered on edges are discarded).
func (p *Pipeline) Run(ctx context.Context) error {
	if len(p.stages) == 0 {
		return nil
	}
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(p.stages)
	errs := make([]error, n)
	var wg sync.WaitGroup

	var in <-chan Msg // nil for the source
	for i, st := range p.stages {
		var out chan Msg
		var next chan Msg
		if i < n-1 {
			// The stage writes its own buffered edge; a counting forwarder
			// moves messages to the next stage's unbuffered inlet. Metrics
			// cannot wrap a channel, so the forwarder is where the per-edge
			// counters live.
			out = make(chan Msg, p.buf)
			next = make(chan Msg)
			wg.Add(1)
			go p.forward(ictx, &wg, p.metrics[i], out, next)
		}
		wg.Add(1)
		go func(i int, st Stage, in <-chan Msg, out chan Msg) {
			defer wg.Done()
			err := st.Run(ictx, in, out)
			if out != nil {
				close(out)
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				errs[i] = fmt.Errorf("stage %s: %w", st.Name(), err)
				cancel() // abort the rest of the pipeline
			}
		}(i, st, in, out)
		in = next
	}
	wg.Wait()
	return errors.Join(errs...)
}

// forward drains from into to, counting, until from closes or ctx cancels.
func (p *Pipeline) forward(ctx context.Context, wg *sync.WaitGroup, m *StageMetrics, from <-chan Msg, to chan<- Msg) {
	defer wg.Done()
	defer close(to)
	for msg := range from {
		m.MsgsOut.Add(1)
		m.EventsOut.Add(uint64(len(msg.Events)))
		select {
		case to <- msg:
		case <-ctx.Done():
			return
		}
	}
}
