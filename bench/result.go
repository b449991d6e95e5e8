package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"github.com/netsec-lab/rovista/internal/store"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is zero
// for per-layer metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: it
// is the one place metric names, units and bounds are written down.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome, as written to <out>/<workload>.json (or
// .traced.json) and read back by -report and -compare.
type result struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Scaled     bool   `json:"scaled"` // measured for less than run_seconds
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`

	Correct   bool     `json:"correct"` // every output checked was right (failed == 0)
	Void      bool     `json:"void"`    // the open-loop generator fell behind: the timings are not a measurement
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes,omitempty"`

	// EndToEnd holds every end_to_end metric of BENCHMARK.json; PerLayer
	// every per_layer metric, zero where the workload does not run the
	// layer (and in untraced runs, which record no spans).
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
	// Samples is the sample count behind each timing metric; Tails the
	// highest percentile with at least ten samples beyond it, as
	// "<metric>@p<percentile>".
	Samples map[string]int     `json:"samples"`
	Tails   map[string]float64 `json:"tails,omitempty"`
	// RoundHashes chains a hash over every archived round's scores: the
	// score timeline. Equal seeds must give equal chains, traced or not.
	RoundHashes []string `json:"round_hashes,omitempty"`

	ops int64 // operations behind ops_per_s, for allocs_per_op
}

func newResult(spec *benchSpec, opt options) *result {
	r := &result{
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Scaled:     opt.seconds < spec.RunSeconds,
		Traced:     opt.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Go:         runtime.Version(),
		Commit:     commitOf(),
		EndToEnd:   make(map[string]metric),
		PerLayer:   make(map[string]metric),
		Samples:    make(map[string]int),
		Tails:      make(map[string]float64),
	}
	for _, m := range spec.EndToEnd {
		r.EndToEnd[m.Name] = metric{Unit: m.Unit}
	}
	for _, m := range spec.PerLayer {
		r.PerLayer[m.Name] = metric{Unit: m.Unit}
	}
	return r
}

// setE2E and setLayer record a metric BENCHMARK.json declares; naming one
// it does not is a bug in the benchmark.
func (r *result) setE2E(name string, v float64)   { set(r.EndToEnd, name, v) }
func (r *result) setLayer(name string, v float64) { set(r.PerLayer, name, v) }

func set(m map[string]metric, name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	cur.Value = v
	m[name] = cur
}

// timing records the median of xs (in the unit the caller scaled them to)
// as the per-layer metric name, with its sample count and the tail the
// reporting rule allows.
func (r *result) timing(name string, xs []float64) {
	r.setLayer(name, percentile(xs, 50))
	r.tail(name, xs)
}

// timing95 is timing plus the 95th percentile under its own name.
func (r *result) timing95(p50Name, p95Name string, xs []float64) {
	r.timing(p50Name, xs)
	r.setLayer(p95Name, percentile(xs, 95))
}

func (r *result) tail(name string, xs []float64) {
	r.Samples[name] = len(xs)
	if p := tailPercentile(len(xs)); p > 0 {
		r.Tails[fmt.Sprintf("%s@p%g", name, p)] = percentile(xs, p)
	}
}

// headline records the workload's two headline numbers: the latencies, in
// ms, from a change to its being visible, and the work completed per
// second over ops operations. A traced run also keeps them as per-layer
// metrics, so the report can say what tracing cost.
func (r *result) headline(visibleMs []float64, opsPerS float64, ops int64) {
	r.ops = ops
	r.setE2E("visible_p50_ms", percentile(visibleMs, 50))
	r.setE2E("ops_per_s", opsPerS)
	r.setLayer("process.visible_p90_ms", percentile(visibleMs, 90))
	r.tail("visible_p50_ms", visibleMs)
	if r.Traced {
		r.setLayer("process.traced_visible_p50_ms", percentile(visibleMs, 50))
		r.setLayer("process.traced_ops_per_s", opsPerS)
	}
}

// fail counts n failed operations and says why.
func (r *result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf("FAIL ×%d: ", n)+fmt.Sprintf(format, args...))
}

func (r *result) fileName() string {
	if r.Traced {
		return r.Workload + ".traced.json"
	}
	return r.Workload + ".json"
}

func (r *result) write(dir string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(b, '\n'), 0o644)
}

// roundHashes chains a hash over every archived round's (ASN, score)
// entries, one hex string per round: the score timeline as a store reader
// sees it.
func roundHashes(st *store.Store) []string {
	view := st.View()
	out := make([]string, 0, view.Rounds())
	h := fnv.New64a()
	var buf [6]byte
	for i := 0; i < view.Rounds(); i++ {
		for _, e := range view.Round(i).Entries {
			binary.LittleEndian.PutUint32(buf[:4], uint32(e.ASN))
			binary.LittleEndian.PutUint16(buf[4:], e.Centi)
			h.Write(buf[:])
		}
		out = append(out, strconv.FormatUint(h.Sum64(), 16))
	}
	return out
}
