package detect

import "testing"

// BenchmarkMeasurePairIsolated times the pair kernel: one Figure-3 round per
// op through MeasurePairIsolated, on the three-AS fixture with outbound
// filtering (the case with the RTO echo, the most events) and a 2 pkt/s vVP
// background, each op under its own seed, samples not kept — as a cold
// round calls it. events/op is the simulator's exact work per pair.
func BenchmarkMeasurePairIsolated(b *testing.B) {
	n, client, vvp, tn := world(b, true, 2)
	MeasurePairIsolated(n, client, vvp.Addr, tn, 0, 0, false) // warm the path cache
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		events += int(MeasurePairIsolated(n, client, vvp.Addr, tn, int64(i), 0, false).SimEvents)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
