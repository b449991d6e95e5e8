package rovista

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
