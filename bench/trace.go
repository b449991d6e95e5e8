package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/netsec-lab/rovista/internal/pipeline"
)

// span is one timed interval at a layer boundary. Spans of one batch (or
// round, or query) share a trace id; parent is the index of the causing
// span in the recorder, -1 for a root.
type span struct {
	Name   string
	Trace  int
	Parent int
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: each workload records from one goroutine and merges
// client-side stamps after the pipeline has drained.
type recorder struct {
	spans []span
}

// add records a finished span and returns its index, for use as a parent.
func (r *recorder) add(name string, trace, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

// addStages lays a measurement round's stages out as children of its
// core.measure span. Measure reports its stages' durations, not their start
// times; they run back to back, so they are laid out from the call's start.
func (r *recorder) addStages(trace, measure int, stages []pipeline.StageTiming) {
	at := r.spans[measure].Start
	for _, st := range stages {
		r.add(stageSpanName(st.Name), trace, measure, at, at.Add(st.Duration))
		at = at.Add(st.Duration)
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// it its direct children cover. Children are clipped to the parent's
// interval and overlapping children are counted once, so a self time is
// never negative.
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		// Walk the children in start order, counting only what lies beyond
		// the furthest point already counted.
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start.Before(r.spans[kids[b]].Start) })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			cs, ce := r.spans[k].Start, r.spans[k].End
			if cs.Before(edge) {
				cs = edge
			}
			if ce.After(s.End) {
				ce = s.End
			}
			if ce.After(cs) {
				covered += ce.Sub(cs)
				edge = ce
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// durations returns the durations in ms of every span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// total sums the durations of every span called name.
func (r *recorder) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// selfByLayer sums self time per layer, the layer being the span name up
// to its first dot ("bgp.apply_events" → "bgp").
func (r *recorder) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range r.selfTimes() {
		out[layerOf(r.spans[i].Name)] += d
	}
	return out
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// dump writes the spans as JSON lines: times are ns since origin.
func (r *recorder) dump(path string, origin time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := r.selfTimes()
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = r.spans[s.Parent].Name
		}
		err = enc.Encode(struct {
			ID       int    `json:"id"`
			Name     string `json:"name"`
			TraceID  int    `json:"trace_id"`
			ParentID int    `json:"parent_id"`
			Parent   string `json:"parent,omitempty"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
			SelfNs   int64  `json:"self_ns"`
		}{i, s.Name, s.Trace, s.Parent, parent, s.Start.Sub(origin).Nanoseconds(), s.End.Sub(origin).Nanoseconds(), self[i].Nanoseconds()})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
