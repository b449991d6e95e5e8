package detect

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/scan"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// world builds: provider AS 10 on top; AS 1 hosts the measurement client,
// AS 2 the vVP, AS 3 the tNode announcing an RPKI-invalid prefix (the ROA
// names AS 99). When rovAt2 is set, AS 2 filters invalid routes.
func world(t testing.TB, rovAt2 bool, bgRate float64) (*netsim.Network, *netsim.Host, *netsim.Host, scan.TNode) {
	t.Helper()
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 99, Prefix: pfx("10.3.0.0/16"), MaxLength: 16}})
	g := bgp.NewGraph()
	g.Link(10, 1, bgp.Customer)
	g.Link(10, 2, bgp.Customer)
	g.Link(10, 3, bgp.Customer)
	g.AS(1).Originated = []netip.Prefix{pfx("10.1.0.0/16")}
	g.AS(2).Originated = []netip.Prefix{pfx("10.2.0.0/16")}
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")} // invalid: ROA says AS 99
	if rovAt2 {
		g.AS(2).Policy = rov.Full()
		g.AS(2).VRPs = vrps
	}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork(g)
	client := netsim.NewHost(ip("10.1.0.1"), 1, ipid.Global, 11)
	vvp := netsim.NewHost(ip("10.2.0.1"), 2, ipid.Global, 12)
	vvp.BackgroundRate = bgRate
	tnode := netsim.NewHost(ip("10.3.0.1"), 3, ipid.Global, 13, 443)
	n.AddHost(client)
	n.AddHost(vvp)
	n.AddHost(tnode)
	tn := scan.TNode{Addr: tnode.Addr, ASN: 3, Port: 443, Prefix: pfx("10.3.0.0/16")}
	return n, client, vvp, tn
}

func TestNoFiltering(t *testing.T) {
	n, client, vvp, tn := world(t, false, 2)
	res := MeasurePair(n, client, vvp.Addr, tn, 5, 0)
	if !res.Usable {
		t.Fatalf("result unusable: FN=%v", res.FNRate)
	}
	if res.Outcome != NoFiltering {
		t.Fatalf("outcome = %v, want no-filtering (ids=%v)", res.Outcome, res.IDs)
	}
}

func TestOutboundFilteringViaROV(t *testing.T) {
	n, client, vvp, tn := world(t, true, 2)
	res := MeasurePair(n, client, vvp.Addr, tn, 5, 0)
	if !res.Usable {
		t.Fatalf("result unusable: FN=%v", res.FNRate)
	}
	if res.Outcome != OutboundFiltering {
		t.Fatalf("outcome = %v, want outbound-filtering (ids=%v)", res.Outcome, res.IDs)
	}
}

func TestInboundFilteringViaIngress(t *testing.T) {
	n, client, vvp, tn := world(t, false, 2)
	// vVP's AS drops everything arriving from the tNode's prefix.
	n.IngressFilter[2] = func(pkt netsim.Packet) bool {
		return tn.Prefix.Contains(pkt.Src)
	}
	res := MeasurePair(n, client, vvp.Addr, tn, 5, 0)
	if !res.Usable {
		t.Fatalf("result unusable: FN=%v", res.FNRate)
	}
	if res.Outcome != InboundFiltering {
		t.Fatalf("outcome = %v, want inbound-filtering (ids=%v)", res.Outcome, res.IDs)
	}
}

func TestInboundFilteringViaTNodeEgress(t *testing.T) {
	// The same signal arises from egress filtering at the tNode's AS.
	n, client, vvp, tn := world(t, false, 2)
	n.EgressFilter[3] = func(pkt netsim.Packet) bool { return pkt.Dst == vvp.Addr }
	res := MeasurePair(n, client, vvp.Addr, tn, 5, 0)
	if res.Outcome != InboundFiltering {
		t.Fatalf("outcome = %v, want inbound-filtering", res.Outcome)
	}
}

func TestNoisyVVPExcluded(t *testing.T) {
	n, client, vvp, tn := world(t, false, 800) // 400 pkt per 0.5s interval
	res := MeasurePair(n, client, vvp.Addr, tn, 5, 0)
	if res.Usable {
		t.Fatalf("noisy vVP should be unusable (FN=%v)", res.FNRate)
	}
	if res.Outcome != Inconclusive {
		t.Fatalf("outcome = %v, want inconclusive", res.Outcome)
	}
}

func TestLostProbesInconclusive(t *testing.T) {
	n, client, vvp, tn := world(t, false, 2)
	// Half the client's probes never reach the vVP.
	count := 0
	n.IngressFilter[2] = func(pkt netsim.Packet) bool {
		if pkt.Src == client.Addr {
			count++
			return count%2 == 0
		}
		return false
	}
	res := MeasurePair(n, client, vvp.Addr, tn, 5, 0)
	if res.Usable || res.Outcome != Inconclusive {
		t.Fatalf("res = %+v, want unusable/inconclusive", res.Outcome)
	}
}

func TestOutcomeDeterministic(t *testing.T) {
	for i := 0; i < 3; i++ {
		n, client, vvp, tn := world(t, true, 5)
		res := MeasurePair(n, client, vvp.Addr, tn, 42, 0)
		if res.Outcome != OutboundFiltering {
			t.Fatalf("run %d: outcome = %v", i, res.Outcome)
		}
	}
}

func TestModerateBackgroundStillDetects(t *testing.T) {
	// The paper's cutoff keeps vVPs at ≤10 pkt/s; detection should work
	// throughout that range.
	for _, rate := range []float64{0, 1, 5, 10} {
		n, client, vvp, tn := world(t, true, rate)
		res := MeasurePair(n, client, vvp.Addr, tn, 21, 0)
		if !res.Usable {
			t.Fatalf("rate %v: unusable (FN=%v)", rate, res.FNRate)
		}
		if res.Outcome != OutboundFiltering {
			t.Fatalf("rate %v: outcome = %v, want outbound", rate, res.Outcome)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		NoFiltering: "no-filtering", InboundFiltering: "inbound-filtering",
		OutboundFiltering: "outbound-filtering", Inconclusive: "inconclusive",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

// TestRoundSchedule: the paper's round fits together — the burst falls
// between the pre and post windows, and the RTO echo, one interval either
// side, lands inside the post window, where classify looks for it.
func TestRoundSchedule(t *testing.T) {
	const rtoIdx = int(rto / probeInterval)
	if preProbes != 10 || postProbes != 14 || spoofCount != 10 || probeInterval != 0.5 || rto != 3.0 || alpha != 0.05 {
		t.Fatal("the round's constants are not the paper's (§4.3, Appendix A)")
	}
	if rtoIdx+2 >= postProbes {
		t.Fatalf("RTO echo index %d (+2) is past the %d post-burst samples", rtoIdx, postProbes)
	}
}

// TestMeasurePairIsolatedAllocs is an allocation-regression guard for the
// parallel executor's per-pair primitive. A measurement works entirely in
// its pooled arena (simulator, host clones, overlay, detector scratch) and
// allocates only what it returns: the IDs and Times slices, 2 allocations,
// and none when the caller does not keep the samples. The ceiling leaves
// room for the pool handing out a fresh arena after a GC (amortised over the
// runs) while still catching any reintroduced per-pair allocation, let alone
// a per-packet one.
func TestMeasurePairIsolatedAllocs(t *testing.T) {
	const ceiling = 10
	n, client, vvp, tn := world(t, false, 2)
	// Warm the shared network's path cache so the steady state is measured.
	MeasurePairIsolated(n, client, vvp.Addr, tn, 5, 0, true)
	for _, samples := range []bool{true, false} {
		got := testing.AllocsPerRun(10, func() {
			MeasurePairIsolated(n, client, vvp.Addr, tn, 5, 0, samples)
		})
		if got > ceiling {
			t.Fatalf("MeasurePairIsolated(samples=%v) allocates %v per run, ceiling %d", samples, got, ceiling)
		}
	}
}

// TestMeasurePairIsolatedSamples: keeping the samples changes nothing but
// the samples — the verdict is read from the arena's copy either way — and
// a caller that drops them gets no copy.
func TestMeasurePairIsolatedSamples(t *testing.T) {
	n, client, vvp, tn := world(t, false, 2)
	kept := MeasurePairIsolated(n, client, vvp.Addr, tn, 5, 0, true)
	dropped := MeasurePairIsolated(n, client, vvp.Addr, tn, 5, 0, false)
	if len(kept.IDs) == 0 || len(kept.IDs) != len(kept.Times) {
		t.Fatalf("kept samples: %d IDs, %d times", len(kept.IDs), len(kept.Times))
	}
	if dropped.IDs != nil || dropped.Times != nil {
		t.Fatalf("dropped samples still returned: %d IDs, %d times", len(dropped.IDs), len(dropped.Times))
	}
	kept.IDs, kept.Times = nil, nil
	if !reflect.DeepEqual(kept, dropped) {
		t.Fatalf("results differ beyond the samples: kept %+v, dropped %+v", kept, dropped)
	}
}
