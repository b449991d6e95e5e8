package main

import (
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMainPrintsSortedPrefixes: the recovered test prefixes print in one
// order on every run, not in map order.
func TestMainPrintsSortedPrefixes(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	main()
	os.Stdout = stdout
	w.Close()

	var prefixes []string
	for _, line := range strings.Split(<-out, "\n") {
		if p, ok := strings.CutPrefix(line, "  "); ok {
			prefixes = append(prefixes, strings.Fields(p)[0])
		}
	}
	if len(prefixes) < 2 {
		t.Fatalf("main printed %d test prefixes, want several", len(prefixes))
	}
	if !sort.StringsAreSorted(prefixes) {
		t.Errorf("test prefixes printed out of order: %v", prefixes)
	}
}
