// Command experiments regenerates the paper's tables and figures (the
// experiment index is in DESIGN.md; measured-vs-paper is in EXPERIMENTS.md).
//
// Usage:
//
//	experiments -all            # run everything
//	experiments fig5 table1     # run a subset
//	experiments -list           # show available experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/netsec-lab/rovista/internal/experiments"
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment names")
	seed := flag.Int64("seed", 1, "world seed")
	flag.Parse()

	if *list {
		names := make([]string, 0, len(experiments.All))
		for _, e := range experiments.All {
			names = append(names, e.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	run := experiments.All
	if !*all {
		run = nil
		for _, n := range flag.Args() {
			e, ok := experiments.Lookup(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (see -list)\n", n)
				os.Exit(2)
			}
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [-seed N] -all | <name>... (see -list)")
		os.Exit(2)
	}
	for _, e := range run {
		e.Run(*seed, os.Stdout)
		fmt.Println()
	}
}
