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

// worldDoors lists every call, outside the routing engine (internal/bgp)
// and the benchmark, that changes a world's routing state or VRP views
// without going through World.Apply. Each key is a call site — file,
// enclosing function, method called — with the number of such calls there
// and the reason they may.
var worldDoors = map[string]struct {
	calls int
	why   string
}{
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
	found := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			switch path {
			case ".git", "bench", "internal/bgp", "testdata":
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
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "ApplyEvents", "ConvergePrefixes", "RefreshVRPViews":
							found[path+" "+name+" "+sel.Sel.Name]++
						}
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
	for site, n := range found {
		door, ok := worldDoors[site]
		switch {
		case !ok:
			t.Errorf("%s changes a world directly: send a core.Msg through World.Apply", site)
		case n != door.calls:
			t.Errorf("%s: %d calls, worldDoors allows %d", site, n, door.calls)
		}
	}
	for site := range worldDoors {
		if found[site] == 0 {
			t.Errorf("worldDoors allows %s, which the tree no longer calls: drop it", site)
		}
	}
}
