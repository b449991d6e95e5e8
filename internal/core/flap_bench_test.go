package core

import (
	"math/rand"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/topology"
)

// BenchmarkApplyFlapBatch measures the event batch the live-saturate
// workload feeds bgp.Graph.ApplyEvents, on the topology of the medium world
// it runs (-size medium, 400 ASes): ten originations withdrawn in one batch
// and re-announced in the next, walking a seeded shuffle of every
// origination so no few prefixes decide the figure. One op is one batch.
// updates/round and rounds/op show the shape of the flood: a few rounds of a
// few hundred updates, small enough that the propagation's work-sized forks
// run on the calling goroutine.
func BenchmarkApplyFlapBatch(b *testing.B) {
	cfg, err := WorldConfigByName("medium", 7)
	if err != nil {
		b.Fatal(err)
	}
	topo := topology.Generate(cfg.Topology)
	g := topo.Graph
	if _, err := g.Converge(); err != nil {
		b.Fatal(err)
	}
	var origins []bgp.RouteEvent
	for _, asn := range topo.ASNs {
		for _, p := range g.AS(asn).Originated {
			origins = append(origins, bgp.RouteEvent{AS: asn, Prefix: p})
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(origins), func(i, j int) {
		origins[i], origins[j] = origins[j], origins[i]
	})
	const flaps = 10
	batch := make([]bgp.RouteEvent, flaps)
	rounds, updates := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Batch 2k withdraws the k-th ten originations, batch 2k+1 brings
		// them back.
		kind := bgp.EvWithdraw
		if i%2 == 1 {
			kind = bgp.EvAnnounce
		}
		for j := range batch {
			batch[j] = origins[(i/2*flaps+j)%len(origins)]
			batch[j].Kind = kind
		}
		res, err := g.ApplyEvents(batch)
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
		updates += res.Updates
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	if rounds > 0 {
		b.ReportMetric(float64(updates)/float64(rounds), "updates/round")
	}
}
