package rovista

import (
	"fmt"
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
