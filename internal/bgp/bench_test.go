package bgp

import (
	"net/netip"
	"testing"
)

// BenchmarkConverge measures a full from-scratch convergence of a random
// 3-tier hierarchy. Converge rebuilds all routing state, so re-running it on
// the same graph is representative of cold convergence. It reports the spill
// pool in MiB of capacity as the last flood reached it (spillFlood-MB) and as
// retained after the release (spillRetained-MB).
func BenchmarkConverge(b *testing.B) {
	g := randomHierarchy(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Converge(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	f := g.Footprint()
	b.ReportMetric(float64(f.SpillFloodCapBytes)/(1<<20), "spillFlood-MB")
	b.ReportMetric(float64(f.SpillCapBytes)/(1<<20), "spillRetained-MB")
}

// BenchmarkConvergePrefixes measures the incremental path the longitudinal
// engine leans on: re-converging only a handful of prefixes on an already
// converged graph.
func BenchmarkConvergePrefixes(b *testing.B) {
	g := randomHierarchy(1)
	var prefixes []netip.Prefix
	for _, a := range g.ASes {
		if len(a.Originated) > 0 {
			prefixes = append(prefixes, a.Originated[0])
		}
		if len(prefixes) == 4 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ConvergePrefixes(prefixes); err != nil {
			b.Fatal(err)
		}
	}
}
