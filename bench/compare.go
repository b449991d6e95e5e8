package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadResults reads every result file under dir (recursively, so a set may
// keep each repetition in its own subdirectory), split into untraced and
// traced runs per workload.
func loadResults(dir string) (untraced, traced map[string][]*result, err error) {
	untraced, traced = make(map[string][]*result), make(map[string][]*result)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			traced[r.Workload] = append(traced[r.Workload], &r)
		} else {
			untraced[r.Workload] = append(untraced[r.Workload], &r)
		}
		return nil
	})
	return untraced, traced, err
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction: positive is a regression.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies one metric's bound to two samples of runs. A median
// worse by more than the bound is "worse". Where either side's quartile
// spread is wider than the bound the medians cannot be told apart and the
// row is "unresolved", unless every run of b beats every run of a.
func verdict(m metricSpec, a, b []float64) string {
	if quartileSpread(a) > m.Bound || quartileSpread(b) > m.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if worsening(m, x, y) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "ok"
		}
		return "unresolved"
	}
	if worsening(m, percentile(a, 50), percentile(b, 50)) > m.Bound {
		return "worse"
	}
	return "ok"
}

func values(rs []*result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.EndToEnd[name].Value
	}
	return out
}

// compareSets prints one row per (metric, workload) judging set B against
// set A under the BENCHMARK.json bounds, and fails if any row is worse or
// any run of either set failed.
func compareSets(spec *benchSpec, dirA, dirB string, out io.Writer) error {
	setA, _, err := loadResults(dirA)
	if err != nil {
		return err
	}
	setB, _, err := loadResults(dirB)
	if err != nil {
		return err
	}
	var failedRuns, worse, unresolved int
	for _, set := range []map[string][]*result{setA, setB} {
		for _, rs := range set {
			for _, r := range rs {
				if r.Scaled {
					return fmt.Errorf("%s seed %d was measured for %ds, less than run_seconds: scaled results are not comparable", r.Workload, r.Seed, r.Seconds)
				}
				if !r.Correct || r.Void {
					failedRuns++
				}
			}
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tA median\tB median\tunit\tchange\tbound\tspread A\tspread B\tverdict")
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			a, b := values(setA[w.Name], m.Name), values(setB[w.Name], m.Name)
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("workload %s is missing from a set", w.Name)
			}
			v := verdict(m, a, b)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			medA, medB := percentile(a, 50), percentile(b, 50)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				m.Name, w.Name, medA, medB, m.Unit, 100*worsening(m, medA, medB), 100*m.Bound,
				100*quartileSpread(a), 100*quartileSpread(b), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "%d worse, %d unresolved, %d failed or void runs (change: + is a regression)\n", worse, unresolved, failedRuns)
	if worse > 0 || failedRuns > 0 {
		return errors.New("sets do not agree within the bounds")
	}
	return nil
}

// reportSet prints every metric of the runs in dir by name, with its unit,
// one column per workload, and cross-checks each workload's untraced run
// against its traced run.
func reportSet(spec *benchSpec, dir string, out io.Writer) error {
	untraced, traced, err := loadResults(dir)
	if err != nil {
		return err
	}
	var problems []string
	pick := func(set map[string][]*result, name string) *result {
		if rs := set[name]; len(rs) > 0 {
			return rs[len(rs)-1]
		}
		return nil
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	header := "metric\tunit"
	for _, w := range spec.Workloads {
		header += "\t" + w.Name
	}
	row := func(name, unit string, cell func(w string) string) {
		line := name + "\t" + unit
		for _, w := range spec.Workloads {
			line += "\t" + cell(w.Name)
		}
		fmt.Fprintln(tw, line)
	}
	num := func(set map[string][]*result, get func(*result) float64) func(string) string {
		return func(w string) string {
			if r := pick(set, w); r != nil {
				return fmt.Sprintf("%.5g", get(r))
			}
			return "-"
		}
	}
	fmt.Fprintln(tw, header)
	for _, m := range spec.EndToEnd {
		row(m.Name, m.Unit, num(untraced, func(r *result) float64 { return r.EndToEnd[m.Name].Value }))
	}
	row("samples(visible)", "count", num(untraced, func(r *result) float64 { return float64(r.Samples["visible_p50_ms"]) }))
	row("attempted", "count", num(untraced, func(r *result) float64 { return float64(r.Attempted) }))
	row("failed", "count", num(untraced, func(r *result) float64 { return float64(r.Failed) }))
	fmt.Fprintln(tw, "— traced run —\t")
	for _, m := range spec.PerLayer {
		row(m.Name, m.Unit, num(traced, func(r *result) float64 { return r.PerLayer[m.Name].Value }))
	}
	// Tracing overhead: how far the traced run's headline numbers fall
	// short of the untraced run's.
	overhead := func(layer, e2e string, sign float64) func(string) string {
		return func(w string) string {
			u, t := pick(untraced, w), pick(traced, w)
			if u == nil || t == nil {
				return "-"
			}
			return fmt.Sprintf("%.3f", sign*(ratio(t.PerLayer[layer].Value, u.EndToEnd[e2e].Value)-1))
		}
	}
	row("process.trace_overhead_frac(ops_per_s)", "frac", overhead("process.traced_ops_per_s", "ops_per_s", -1))
	row("process.trace_overhead_frac(visible_p50_ms)", "frac", overhead("process.traced_visible_p50_ms", "visible_p50_ms", 1))
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		u, t := pick(untraced, w.Name), pick(traced, w.Name)
		for _, r := range []*result{u, t} {
			if r == nil {
				continue
			}
			fmt.Fprintf(out, "%s%s: seed %d, %ds%s, gomaxprocs %d, nproc %d, %s, commit %s\n", r.Workload, map[bool]string{true: " (traced)"}[r.Traced],
				r.Seed, r.Seconds, map[bool]string{true: " (scaled)"}[r.Scaled], r.GOMAXPROCS, r.NProc, r.Go, r.Commit)
			tails := make([]string, 0, len(r.Tails))
			for k, v := range r.Tails {
				tails = append(tails, fmt.Sprintf("%s=%.4g", k, v))
			}
			sort.Strings(tails)
			if len(tails) > 0 {
				fmt.Fprintf(out, "  tails: %s\n", strings.Join(tails, " "))
			}
			for _, n := range r.Notes {
				fmt.Fprintf(out, "  %s\n", n)
			}
			if !r.Correct || r.Void {
				problems = append(problems, fmt.Sprintf("%s: run is void or failed its checks", r.fileName()))
			}
		}
		// The determinism contract as oracle: the same seed must archive the
		// same score timeline whether the sink is stream.LiveSink or the
		// benchmark's traced sink making the same calls.
		if u != nil && t != nil && u.Seed == t.Seed {
			// Closed-loop runs stop on time, so one run's last batch may be
			// cut short where the other's is whole: compare up to the round
			// before the shorter chain's last.
			n := min(len(u.RoundHashes), len(t.RoundHashes)) - 1
			if n < 1 || u.RoundHashes[n-1] != t.RoundHashes[n-1] {
				problems = append(problems, fmt.Sprintf("%s: traced and untraced score timelines differ within their first %d rounds", w.Name, n))
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(out, "PROBLEM:", p)
	}
	if len(problems) > 0 {
		return errors.New("report found problems")
	}
	return nil
}
