// Quickstart: build a small simulated Internet, run one RoVista measurement
// round, and print each AS's ROV protection score next to its ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/netsec-lab/rovista"
)

func main() {
	// A ~124-AS world with RPKI deployment schedules, misconfigured
	// announcements, and hosts carrying IP-ID side channels.
	w, err := rovista.BuildWorld(rovista.SmallWorldConfig(42))
	if err != nil {
		log.Fatal(err)
	}
	// Advance to day 0: the relying party validates the repositories and
	// BGP converges under each AS's ROV policy.
	if err := w.AdvanceTo(0); err != nil {
		log.Fatal(err)
	}

	// One full measurement round: select test prefixes from the collector,
	// qualify tNodes and vVPs, run the IP-ID side-channel rounds, score.
	sink := &rovista.LiveSink{W: w, Runner: rovista.NewRunner(w, rovista.DefaultRunnerConfig(42))}
	snap, err := sink.Round()
	if err == nil {
		err = sink.Healthy()
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tNodes: %d, vVPs discovered: %d, ASes scored: %d\n\n",
		len(snap.TNodes), snap.AllVVPs, len(snap.Reports))

	scores := snap.Scores()
	asns := make([]rovista.ASN, 0, len(scores))
	for asn := range scores {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool {
		if scores[asns[i]] != scores[asns[j]] {
			return scores[asns[i]] > scores[asns[j]]
		}
		return asns[i] < asns[j]
	})

	fmt.Printf("%10s %8s %25s\n", "ASN", "score", "ground truth")
	for _, asn := range asns {
		truth := w.Truth[asn]
		label := truth.Kind
		if truth.DeployDay < 0 {
			label = "never deploys"
		}
		fmt.Printf("%10v %7.1f%% %25s\n", asn, scores[asn], label)
	}

	fmt.Println("\nNote the ASes scoring 100% with \"never deploys\": they sit behind")
	fmt.Println("filtering providers — the collateral benefit of §7.3.")
}
