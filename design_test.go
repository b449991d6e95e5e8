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
	"path"
	"path/filepath"
	"slices"
	"strconv"
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
}

// TestRoundsThroughTheSink: every round the repository's programs run goes
// through stream.LiveSink — Apply, then Round — so every round passes the
// same round monitor. A new direct Runner.Measure call fails here until it
// runs through the sink or is given a reason in roundDrivers.
func TestRoundsThroughTheSink(t *testing.T) {
	checkCallSites(t, callSites(t, "", "Measure"), roundDrivers,
		"measures a round outside the sink: use stream.LiveSink's Apply and Round")
}

// exportsWithoutCallers lists every exported function or method that no
// non-test code references, keyed "package.Func" or "package.Recv.Method",
// and why it stays.
var exportsWithoutCallers = map[string]string{
	"collectors.View.ExclusivelyInvalid": "the reference ExclusiveSet is tested against",
	"stream.SynthSource.Plan":            "the reference SynthSource.Run is tested against",
	"export.ReadJSON":                    "the dataset format's decoder, fuzzed against the writers",
	"export.ReadCSV":                     "the dataset format's decoder, fuzzed against the writers",
	"ipid.Counter.Peek":                  "a probe that tests in other packages read",
	"tcpsim.Endpoint.PendingCount":       "a probe that tests in other packages read",
	"store.Store.WriterLockAcquisitions": "a probe that tests in other packages read",
	"collectors.NewView":                 "builds the view that mrt's fuzz target re-encodes",
	"seedmix.Source.Int63":               "implements rand.Source",
	"rpki.Authority.RevokeROA":           "the RPKI-side attacks and the repository deltas of ROADMAP items 5 and 16 call it",
	"analysis.BenefitCohorts":            "ROADMAP item 11's filter attribution calls it",
	"core.Timeline.JumpEvents":           "ROADMAP item 17's score-move causes call it",
}

// TestExportsHaveCallers: every exported function and method declared
// outside bench/ is referenced by non-test code — bench/, cmd/ and
// examples/ count — or is named, with its reason, in exportsWithoutCallers.
// A function counts as referenced by a pkg.Name selector or by its bare name
// inside its own package; a method, by a .Name selector on anything, matched
// by name. An allow-list entry that gained a caller, or that no longer
// exists, fails too.
func TestExportsHaveCallers(t *testing.T) {
	const module = "github.com/netsec-lab/rovista"
	// An export is used when refs holds its ref: "dir.Name" for a
	// function, ".Name" for a method.
	type export struct{ key, file, ref string }
	var exports []export
	refs := make(map[string]bool)
	walkGo(t, func(file string, f *ast.File) {
		dir := path.Dir(file)
		imports := make(map[string]string) // local name -> the package's directory
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(p, module); ok {
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = path.Join(".", rel)
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.IsExported() && !strings.HasPrefix(file, "bench/") {
					e := export{key: f.Name.Name + "." + funcName(n), file: file, ref: "." + n.Name.Name}
					if n.Recv == nil {
						e.ref = dir + e.ref
					}
					exports = append(exports, e)
				}
				// Everything but the declared name.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					refs[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				refs["."+n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				refs[dir+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(f, visit)
	})

	declared := make(map[string]bool)
	for _, e := range exports {
		declared[e.key] = true
		_, allowed := exportsWithoutCallers[e.key]
		switch {
		case refs[e.ref] && allowed:
			t.Errorf("%s (%s) has a non-test caller now: drop it from exportsWithoutCallers", e.key, e.file)
		case !refs[e.ref] && !allowed:
			t.Errorf("%s (%s) is exported but only tests use it: give it a caller or delete it", e.key, e.file)
		}
	}
	for key := range exportsWithoutCallers {
		if !declared[key] {
			t.Errorf("exportsWithoutCallers has %s, which the tree no longer declares: drop it", key)
		}
	}
}

// callSites counts, in the non-test Go files outside bench/ and skip, the
// calls to methods of the given names, keyed "file Recv.Func method".
func callSites(t *testing.T, skip string, methods ...string) map[string]int {
	t.Helper()
	found := make(map[string]int)
	walkGo(t, func(path string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(methods, sel.Sel.Name) {
						found[path+" "+funcName(fn)+" "+sel.Sel.Name]++
					}
				}
				return true
			})
		}
	}, "bench", skip)
	return found
}

// walkGo parses every non-test Go file of the tree outside the skip
// directories and hands it to visit with its slash-separated path.
func walkGo(t *testing.T, visit func(path string, f *ast.File), skip ...string) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == ".git" || path == "testdata" || slices.Contains(skip, path) {
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
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// funcName names a declaration as "Func" or "Recv.Func".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return types.ExprString(recv) + "." + fn.Name.Name
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
