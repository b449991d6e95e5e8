// Hijack impact study (the paper's §7.5 BGPStream analysis): generate
// hijack events against the simulated Internet, measure each one's blast
// radius, and show how RPKI coverage plus deployed ROV contains them.
//
//	go run ./examples/hijacksim
package main

import (
	"fmt"
	"log"

	"github.com/netsec-lab/rovista"
	"github.com/netsec-lab/rovista/internal/hijack"
)

func main() {
	w, err := rovista.BuildWorld(rovista.SmallWorldConfig(11))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		log.Fatal(err)
	}

	// Score the world first so hijack paths can be joined with scores.
	sink := &rovista.LiveSink{W: w, Runner: rovista.NewRunner(w, rovista.DefaultRunnerConfig(11))}
	snap, err := sink.Round()
	if err == nil {
		err = sink.Healthy()
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world measured: %d ASes scored\n\n", len(snap.Reports))

	events := hijack.Generate(w, 100, 11)
	reports := hijack.Analyze(w, snap.Scores(), events)
	s := hijack.Summarize(reports)

	fmt.Printf("hijack reports analyzed:     %d\n", s.Total)
	fmt.Printf("RPKI-covered victims:        %d (%.0f%%)\n",
		s.RPKICovered, 100*float64(s.RPKICovered)/float64(s.Total))
	fmt.Printf("mean blast radius, covered:  %6.1f ASes\n", s.MeanSpreadCovered)
	fmt.Printf("mean blast radius, uncovered:%6.1f ASes\n", s.MeanSpreadUncovered)
	fmt.Printf("covered hijacks crossing a >90%%-score AS:   %d (customer-route exemptions)\n", s.CoveredHighScore)
	fmt.Printf("uncovered hijacks crossing a >90%%-score AS: %d (a ROA would have stopped these)\n", s.UncoveredHighScore)

	// Show a few of the biggest uncontained hijacks.
	fmt.Println("\nlargest uncovered hijacks:")
	printed := 0
	for _, r := range reports {
		if r.RPKICovered || r.SpreadASes == 0 {
			continue
		}
		fmt.Printf("  %v hijacked %v (victim %v): reached %d ASes\n",
			r.Attacker, r.Prefix, r.Victim, r.SpreadASes)
		printed++
		if printed == 5 {
			break
		}
	}
	fmt.Println("\nCovered hijacks spread less: the filtering core drops them — the")
	fmt.Println("paper's argument for registering ROAs even before deploying ROV.")
}
