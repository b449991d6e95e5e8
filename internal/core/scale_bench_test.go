package core

import (
	"fmt"
	"syscall"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/topology"
)

// peakRSSMB returns the process's peak resident set in MB (Linux reports
// ru_maxrss in KB). Reported alongside the large-world benchmarks: at 50k
// ASes the binding constraint is memory — per-AS RIB state — not time.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var scaleSizes = []int{10_000, 50_000, 74_000}

func scaleName(n int) string { return fmt.Sprintf("%dk", n/1000) }

// BenchmarkWorldBuild measures full world construction (topology, cones,
// RPKI repositories, schedules, hosts) at paper scale.
func BenchmarkWorldBuild(b *testing.B) {
	for _, n := range scaleSizes {
		b.Run(scaleName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildWorld(LargeWorldConfig(1, n)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(peakRSSMB(), "peakRSS-MB")
		})
	}
}

// BenchmarkFlapReconverge measures the event path's single-prefix flap cost
// at paper scale, in two variants:
//
//   - coalesced: a withdraw + re-announce of the same origination in ONE
//     ApplyEvents batch. The engine coalesces it to a net no-op — no dirty
//     prefixes, no propagation, no version bump — which is the microsecond
//     path every BGP-speaker-style update interval hits in practice.
//   - toggle: the same flap split across TWO batches, each a genuine
//     single-prefix incremental re-convergence (withdraw propagates, then the
//     re-announce restores the exact pre-flap state). This is the honest
//     bounded-dirty-set cost: per-prefix reset plus the affected cone.
func BenchmarkFlapReconverge(b *testing.B) {
	for _, n := range scaleSizes {
		b.Run(scaleName(n), func(b *testing.B) {
			topo := topology.Generate(LargeWorldConfig(1, n).Topology)
			if _, err := topo.Graph.Converge(); err != nil {
				b.Fatal(err)
			}
			var origin *bgp.AS
			for _, asn := range topo.ASNs {
				if a := topo.Graph.AS(asn); len(a.Originated) > 0 {
					origin = a
					break
				}
			}
			if origin == nil {
				b.Fatal("no originating AS")
			}
			p := origin.Originated[0]
			flap := func(evs ...bgp.RouteEvent) {
				if _, err := topo.Graph.ApplyEvents(evs); err != nil {
					b.Fatal(err)
				}
			}
			withdraw := bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: origin.ASN, Prefix: p}
			announce := bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: origin.ASN, Prefix: p}

			b.Run("coalesced", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					flap(withdraw, announce)
				}
			})
			b.Run("toggle", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					flap(withdraw)
					flap(announce)
				}
				b.StopTimer()
				b.ReportMetric(peakRSSMB(), "peakRSS-MB")
			})
		})
	}
}

// BenchmarkConvergeLarge measures a repeated full convergence of a
// paper-scale graph: what a link or leak change costs, and nothing a timeline
// does (every day after the first is an event batch). The warm-up convergence
// is the cold one a world pays once, and coldRSS-MB — the process's peak just
// after it — is the number that decides whether the paper's world fits (each
// size's cold peak exceeds the smaller sizes' final ones, so the process-wide
// high-water mark reads it). The timed iterations reuse the per-AS tables and
// re-allocate the update stream and the spill pool the previous flood
// released (the pool into one segment per AS the release reserved); B/op
// and peakRSS-MB show that, and spillFlood-MB / spillRetained-MB the pool a
// flood reaches and what stays of it after the release.
func BenchmarkConvergeLarge(b *testing.B) {
	for _, n := range scaleSizes {
		b.Run(scaleName(n), func(b *testing.B) {
			topo := topology.Generate(LargeWorldConfig(1, n).Topology)
			if _, err := topo.Graph.Converge(); err != nil {
				b.Fatal(err)
			}
			cold := peakRSSMB()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := topo.Graph.Converge(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(cold, "coldRSS-MB")
			b.ReportMetric(peakRSSMB(), "peakRSS-MB")
			f := topo.Graph.Footprint()
			b.ReportMetric(float64(f.SpillFloodCapBytes)/(1<<20), "spillFlood-MB")
			b.ReportMetric(float64(f.SpillCapBytes)/(1<<20), "spillRetained-MB")
		})
	}
}
