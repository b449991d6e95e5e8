// Measurement comparison (the paper's §8): RoVista's multi-prefix protection
// score versus the single-RPKI-invalid-prefix method behind
// isbgpsafeyet.com, and versus passive control-plane inference.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"

	"github.com/netsec-lab/rovista"
	"github.com/netsec-lab/rovista/internal/baselines"
	"github.com/netsec-lab/rovista/internal/inet"
)

func main() {
	w, err := rovista.BuildWorld(rovista.SmallWorldConfig(23))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AdvanceTo(0); err != nil {
		log.Fatal(err)
	}

	sink := &rovista.LiveSink{W: w, Runner: rovista.NewRunner(w, rovista.DefaultRunnerConfig(23))}
	snap, err := sink.Round()
	if err == nil {
		err = sink.Healthy()
	}
	if err != nil {
		log.Fatal(err)
	}
	scores := snap.Scores()
	fmt.Printf("RoVista scored %d ASes against %d tNodes\n\n", len(scores), len(snap.TNodes))

	// The single-prefix method: pick ONE of the world's invalid prefixes
	// as "the test prefix" and classify every AS by reachability to it.
	var testAddr = snap.TNodes[0].Addr
	candidates := make([]inet.ASN, 0, len(scores))
	for asn := range scores {
		candidates = append(candidates, asn)
	}
	verdicts := baselines.SinglePrefix(w.Graph, testAddr, candidates)
	fpfn := baselines.CompareSinglePrefix(verdicts, scores)
	fmt.Printf("single-prefix (isbgpsafeyet-style) vs RoVista over %d ASes:\n", fpfn.Compared)
	fmt.Printf("  false positives (safe but 0%% protected): %d (%.1f%%)\n",
		fpfn.FalsePositives, 100*fpfn.FPRate())
	fmt.Printf("  false negatives (unsafe but >90%% protected): %d (%.1f%%)\n",
		fpfn.FalseNegatives, 100*fpfn.FNRate())

	// Show disagreements concretely.
	fmt.Println("\ndisagreements:")
	shown := 0
	for _, asn := range candidates {
		s := scores[asn]
		v := verdicts[asn]
		if (v == baselines.Unsafe && s > 90) || (v == baselines.Safe && s == 0) {
			fmt.Printf("  %v: single-prefix says %v, RoVista score %.1f%%\n", asn, v, s)
			shown++
			if shown == 8 {
				break
			}
		}
	}
	if shown == 0 {
		fmt.Println("  (none under this seed — try another)")
	}

	// Passive control-plane inference for contrast.
	view := w.Collector.Snapshot(w.Graph)
	passive := baselines.PassiveInference(view, w.VRPs, candidates)
	agree, total := 0, 0
	for asn, filtering := range passive {
		total++
		if filtering == (scores[asn] > 90) {
			agree++
		}
	}
	fmt.Printf("\npassive control-plane inference agrees with RoVista for %d/%d ASes (%.0f%%)\n",
		agree, total, 100*float64(agree)/float64(total))
	fmt.Println("— visibility limits make passive labels unreliable, as §2.3 warns.")
}
