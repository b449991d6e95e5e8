package rovista

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/netsec-lab/rovista/internal/experiments"
)

// TestPackageInventoryMatchesTree: DESIGN.md's "Package inventory" table
// names exactly the directories under internal/, cmd/ and examples/ that
// hold Go, so neither the table nor the tree can change without the other.
func TestPackageInventoryMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## Package inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Package inventory" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	listed := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		if row, ok := strings.CutPrefix(line, "| `"); ok {
			dir, _, _ := strings.Cut(row, "`")
			listed[dir] = true
		}
	}

	tree := make(map[string]bool)
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				tree[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir := range tree {
		if !listed[dir] {
			t.Errorf("%s holds Go but has no row in DESIGN.md's package inventory", dir)
		}
	}
	for dir := range listed {
		if !tree[dir] {
			t.Errorf("DESIGN.md's package inventory lists %s, which holds no Go", dir)
		}
	}
}

// TestExperimentsDocQuotesSeed1: EXPERIMENTS.md's Figure-1 rows and detector
// ablation quote the numbers experiments.Fig1 and AblationDetector print at
// seed 1, so neither the code nor the record can drift from the other.
func TestExperimentsDocQuotesSeed1(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	quotes := func(rowPrefix, want string) {
		t.Helper()
		for _, line := range strings.Split(string(doc), "\n") {
			if strings.HasPrefix(line, rowPrefix) {
				if !strings.Contains(line, want) {
					t.Errorf("EXPERIMENTS.md row %q does not quote %q", rowPrefix, want)
				}
				return
			}
		}
		t.Errorf("EXPERIMENTS.md has no row starting %q", rowPrefix)
	}

	fig1 := experiments.Fig1(1, io.Discard)
	first, last := fig1.Points[0], fig1.Points[len(fig1.Points)-1]
	surge := first
	for _, p := range fig1.Points {
		if p.SurgeInjection {
			surge = p
			break
		}
	}
	if !surge.SurgeInjection || first.SurgeInjection {
		t.Fatal("Fig1 at seed 1 has no baseline-then-surge shape")
	}
	quotes("| fig1 | ROA coverage over time |", fmt.Sprintf("%.1f%% → %.1f%%", first.CoveredPct, last.CoveredPct))
	quotes("| fig1 | % invalid routable prefixes |",
		fmt.Sprintf("%.2f%% baseline, surging to %.2f%%", first.InvalidPct, surge.InvalidPct))
	quotes("| fig1 | exclusively-invalid (test) prefixes |",
		fmt.Sprintf("%.2f%% vs %.2f%% (%.2f%% vs %.2f%% during surge)",
			first.ExclusivePct, first.InvalidPct, surge.ExclusivePct, surge.InvalidPct))

	abl := experiments.AblationDetector(1, io.Discard)
	quotes("| ADF-gated AR + trend detector vs naive threshold |",
		fmt.Sprintf("%.1f%% vs %.1f%% accuracy over %d ground-truth rounds",
			100*abl.ModelAccuracy, 100*abl.NaiveAccuracy, abl.Rounds))
}

// allowance is an allow-listed call site: how many calls it makes, and why
// it may.
type allowance struct {
	calls int
	why   string
}

// worldDoors lists every call, outside the routing engine (internal/bgp)
// and the benchmark, that changes a world's routing state or VRP views
// without going through World.Apply. Each key is a call site — file,
// enclosing function, method called — with the number of such calls there
// and the reason they may.
var worldDoors = map[string]allowance{
	"internal/core/schedule.go World.Apply ApplyEvents":           {1, "the interpreter of every change message"},
	"internal/core/schedule.go World.Apply RefreshVRPViews":       {1, "the interpreter of every change message"},
	"internal/core/schedule.go World.AdvanceTo ApplyEvents":       {1, "a day's scheduled delta: the setup call and Apply's day case"},
	"internal/campaign/whatif.go WhatIfEngine.answer ApplyEvents": {1, "a what-if runs on its own copy-on-write overlay, never the live graph"},
	"internal/experiments/fig5to8.go castFig8 ConvergePrefixes":   {3, "Figure 8's casting audition, run before any Runner measures the world"},
}

// TestWorldChangesThroughApply: after setup a live world changes only
// through World.Apply (one interpreter of one message vocabulary), so a new
// direct call to Graph.ApplyEvents, Graph.ConvergePrefixes or
// World.RefreshVRPViews fails here until it is routed through Apply or
// given a reason in worldDoors — and a call that vanished must leave the
// list too.
func TestWorldChangesThroughApply(t *testing.T) {
	checkCallSites(t, callSites(t, "internal/bgp", "ApplyEvents", "ConvergePrefixes", "RefreshVRPViews"), worldDoors,
		"changes a world directly: send a core.Msg through World.Apply")
}

// roundDrivers lists every call, outside the benchmark, that measures a
// round without stream.LiveSink, and the reason it may. Runner.Measure is
// the tree's only method of that name, so a call is matched by name.
var roundDrivers = map[string]allowance{
	"internal/stream/sink.go LiveSink.Round Measure": {1, "the one round: Apply, then Round"},
	"examples/quickstart/main.go main Measure":       {1, "the public API's demo of a single round"},
	"examples/comparison/main.go main Measure":       {1, "the public API's demo of a single round"},
	"examples/hijacksim/main.go main Measure":        {1, "the public API's demo of a single round"},
}

// TestRoundsThroughTheSink: every round the repository's programs run goes
// through stream.LiveSink — Apply, then Round — so every round passes the
// same round monitor. A new direct Runner.Measure call fails here until it
// runs through the sink or is given a reason in roundDrivers.
func TestRoundsThroughTheSink(t *testing.T) {
	checkCallSites(t, callSites(t, "", "Measure"), roundDrivers,
		"measures a round outside the sink: use stream.LiveSink's Apply and Round")
}

// callSites counts, in the non-test Go files outside bench/ and skip, the
// calls to methods of the given names, keyed "file Recv.Func method".
func callSites(t *testing.T, skip string, methods ...string) map[string]int {
	t.Helper()
	found := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			switch path {
			case ".git", "bench", "testdata", skip:
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = types.ExprString(recv) + "." + name
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(methods, sel.Sel.Name) {
						found[path+" "+name+" "+sel.Sel.Name]++
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// checkCallSites holds found to the allow-list: a site it lacks fails with
// msg, a count it does not match fails, and so does an entry nothing calls.
func checkCallSites(t *testing.T, found map[string]int, allowed map[string]allowance, msg string) {
	t.Helper()
	for site, n := range found {
		entry, ok := allowed[site]
		switch {
		case !ok:
			t.Errorf("%s %s", site, msg)
		case n != entry.calls:
			t.Errorf("%s: %d calls, the allow-list has %d", site, n, entry.calls)
		}
	}
	for site := range allowed {
		if found[site] == 0 {
			t.Errorf("the allow-list has %s, which the tree no longer calls: drop it", site)
		}
	}
}
