// Collateral benefit case study (the paper's §7.3 / Figure 8 KPN story):
// a transit provider deploys ROV mid-timeline; its single-homed customers
// inherit full protection the same day, while multihomed customers keep
// reaching RPKI-invalid prefixes through their other upstreams.
//
//	go run ./examples/collateral
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/netsec-lab/rovista"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/topology"
)

func main() {
	cfg := rovista.SmallWorldConfig(7)
	w, err := rovista.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Pick the "KPN" role: a provider with single-homed stub customers.
	var provider rovista.ASN
	var stubs, multis []rovista.ASN
	for _, asn := range w.Topo.ByRank() {
		var s, m []rovista.ASN
		for _, c := range w.Topo.Customers(asn) {
			// True stubs only: a "single-homed" tier-2 still hears routes
			// over its peering links and would not inherit the benefit.
			if w.Topo.Info[c].Tier != topology.Stub {
				continue
			}
			if len(w.Topo.Providers(c)) == 1 {
				s = append(s, c)
			} else {
				m = append(m, c)
			}
		}
		if len(s) >= 2 && len(m) >= 1 {
			provider, stubs, multis = asn, s[:2], m[:1]
			break
		}
	}
	if provider == 0 {
		log.Fatal("no suitable provider in this topology")
	}

	// Freeze the cast, then script the provider's deployment at mid-run.
	deployDay := cfg.Days / 2
	for _, asn := range append(append([]rovista.ASN{provider}, stubs...), multis...) {
		w.Truth[asn].DeployDay = -1
		w.Truth[asn].Kind = "none"
		w.AddCandidateHosts(asn, 3)
	}
	w.Truth[provider].Policy = rov.Full()
	w.Truth[provider].Kind = "full"
	w.Truth[provider].DeployDay = deployDay

	fmt.Printf("provider %v deploys ROV on day %d\n", provider, deployDay)
	fmt.Printf("single-homed customers: %v\nmultihomed customers:  %v\n\n", stubs, multis)

	sink := &rovista.LiveSink{W: w, Runner: rovista.NewRunner(w, rovista.DefaultRunnerConfig(7))}
	interval := cfg.Days / 10
	tl, err := sink.RunDays(context.Background(), 0, interval, cfg.Days/interval+1)
	if err == nil {
		err = sink.Healthy()
	}
	if err != nil {
		log.Fatal(err)
	}

	show := func(role string, asn rovista.ASN) {
		days, scores := tl.ScoreSeries(asn)
		fmt.Printf("%-22s %v:", role, asn)
		for i := range days {
			fmt.Printf(" (%3d, %3.0f%%)", days[i], scores[i])
		}
		fmt.Println()
	}
	show("provider", provider)
	for _, s := range stubs {
		show("single-homed customer", s)
	}
	for _, m := range multis {
		show("multihomed customer", m)
	}

	fmt.Println("\nThe single-homed customers jump to 100% on the provider's deploy day;")
	fmt.Println("the multihomed ones keep routing around it — exactly Figure 8.")
}
