// Command bench is the repository's one performance ruler: four workloads
// that drive the daemon's real path from outside, end-to-end metrics with
// regression bounds fixed in BENCHMARK.json, and a traced per-layer ledger.
// See README.md in this directory.
//
// Usage (from the repository root):
//
//	go run ./bench -workload W -seed N -seconds S -trace 0|1 [-out DIR]
//	go run ./bench -report DIR
//	go run ./bench -compare DIR_A DIR_B
//	go run ./bench -workloads
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/store"
)

// setupRuns is how many times a run sets the workload up; setup_s is the
// median, so one slow start does not decide it.
const setupRuns = 5

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
}

// workload is one benchmark workload. A fresh value is set up setupRuns
// times; the last one is measured, checked and reported.
type workload interface {
	// setup builds everything up to the first timed operation.
	setup() error
	// measure runs the timed phase.
	measure() error
	// check verifies the outputs of measure, recording failures in r.
	check(r *result)
	// report fills r's metrics.
	report(r *result)
	// close releases what setup acquired and waits for its goroutines.
	close()
}

func newWorkload(opt options, rec *recorder) (workload, error) {
	switch opt.workload {
	case "live-steady":
		return newLive(liveSteady, opt, rec), nil
	case "live-saturate":
		return newLive(liveSaturate, opt, rec), nil
	case "serve-fanout":
		return newFanout(opt, rec), nil
	case "full-round":
		return newFullRound(opt, rec), nil
	}
	return nil, fmt.Errorf("unknown workload %q", opt.workload)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: live-steady, live-saturate, serve-fanout or full-round")
	seed := fs.Int64("seed", 7, "load seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 0, "seconds to measure for (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans around every layer call and reports the per-layer metrics")
	outDir := fs.String("out", "bench/out", "directory for result files, traces and the scratch store")
	report := fs.String("report", "", "print the metric table of the result files in this directory and cross-check them")
	compare := fs.Bool("compare", false, "compare two result directories (arguments A B) under the BENCHMARK.json bounds")
	list := fs.Bool("workloads", false, "print the workload names of BENCHMARK.json, one a line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	switch {
	case *list:
		for _, w := range spec.Workloads {
			fmt.Println(w.Name)
		}
		return nil
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result directories")
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	case *report != "":
		return reportSet(spec, *report, os.Stdout)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	opt := options{workload: *name, seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir}
	r, err := runWorkload(spec, opt)
	if err != nil {
		return err
	}
	if err := r.write(opt.outDir); err != nil {
		return err
	}
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, "bench:", n)
	}
	// The contract line: the last line of standard output.
	metrics := r.EndToEnd
	if opt.traced {
		metrics = r.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload sets the workload up setupRuns times, measures the last
// set-up, checks it and assembles the result.
func runWorkload(spec *benchSpec, opt options) (*result, error) {
	if !spec.hasWorkload(opt.workload) {
		return nil, fmt.Errorf("workload %q is not in BENCHMARK.json", opt.workload)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	r := newResult(spec, opt)
	rec := &recorder{}

	var w workload
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			// Start each set-up from a collected heap, so peak_rss_mb is one
			// set-up's footprint and not how far collection happened to lag.
			w.close()
			runtime.GC()
		}
		var err error
		if w, err = newWorkload(opt, rec); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	rec.spans = rec.spans[:0] // spans of discarded set-ups

	runtime.GC() // set-up garbage is not collected on the measured phase's time
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	origin := time.Now()
	if err := w.measure(); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	runtime.ReadMemStats(&after)

	w.check(r)
	w.report(r)
	r.setE2E("setup_s", percentile(setups, 50))
	r.setE2E("peak_rss_mb", peakRSSMB())
	if opt.traced {
		r.setLayer("process.allocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), float64(r.ops)))
		r.setLayer("process.gc_pause_total_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		if err := rec.dump(filepath.Join(opt.outDir, opt.workload+".trace.jsonl"), origin); err != nil {
			return nil, err
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// scratchStore is a store in a fresh directory under the run's output
// directory (the benchmark writes nowhere else), removed again by close.
type scratchStore struct {
	*store.Store
	dir string
}

func openScratchStore(outDir string) (*scratchStore, error) {
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &scratchStore{st, dir}, nil
}

func (s *scratchStore) close() {
	s.Close()
	os.RemoveAll(s.dir)
}

// bytesPerRound is the archive's size on disk per round it holds.
func (s *scratchStore) bytesPerRound() float64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return ratio(float64(n), float64(s.Rounds()))
}

// builtWorld is a world brought to day 0, with what that cost.
type builtWorld struct {
	*core.World
	build, converge time.Duration
}

func buildWorld(cfg core.WorldConfig) (builtWorld, error) {
	t0 := time.Now()
	w, err := core.BuildWorld(cfg)
	if err != nil {
		return builtWorld{}, err
	}
	t1 := time.Now()
	if err := w.AdvanceTo(0); err != nil {
		return builtWorld{}, err
	}
	return builtWorld{w, t1.Sub(t0), time.Since(t1)}, nil
}

func (w builtWorld) report(r *result) {
	r.setLayer("core.build_world_s", w.build.Seconds())
	r.setLayer("core.initial_converge_s", w.converge.Seconds())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// commitOf reports the VCS revision the binary was built from, when the
// toolchain stamped one (the driver's checkout is not a git repository).
func commitOf() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
