package baselines

import (
	"net/netip"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// build: AS 1 provider (filters when rov1), customers 2 (ROV) and 3 (none);
// AS 4 originates the RPKI-invalid test prefix via provider 1.
func build(t *testing.T, rov1, rov2 bool) (*bgp.Graph, *rpki.VRPSet) {
	t.Helper()
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 999, Prefix: pfx("103.21.244.0/24"), MaxLength: 24}})
	g := bgp.NewGraph()
	g.Link(1, 2, bgp.Customer)
	g.Link(1, 3, bgp.Customer)
	g.Link(1, 4, bgp.Customer)
	g.AS(2).Originated = []netip.Prefix{pfx("10.2.0.0/16")}
	g.AS(3).Originated = []netip.Prefix{pfx("10.3.0.0/16")}
	g.AS(4).Originated = []netip.Prefix{pfx("103.21.244.0/24")}
	if rov1 {
		g.AS(1).Policy = rov.Full()
		g.AS(1).VRPs = vrps
	}
	if rov2 {
		g.AS(2).Policy = rov.Full()
		g.AS(2).VRPs = vrps
	}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	return g, vrps
}

func TestSinglePrefixVerdicts(t *testing.T) {
	g, _ := build(t, false, true)
	v := SinglePrefix(g, ip("103.21.244.1"), []inet.ASN{2, 3})
	if v[2] != Safe {
		t.Fatalf("ROV AS labelled %v", v[2])
	}
	if v[3] != Unsafe {
		t.Fatalf("non-ROV AS labelled %v", v[3])
	}
}

func TestSinglePrefixCustomerExemptionFalseNegative(t *testing.T) {
	// The AT&T story (Figure 10): provider 1 filters except from customers;
	// the test-prefix owner becomes its customer, so every other customer
	// reaches the test prefix and is misclassified unsafe.
	vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 999, Prefix: pfx("103.21.244.0/24"), MaxLength: 24}})
	g := bgp.NewGraph()
	g.Link(1, 2, bgp.Customer)
	g.Link(1, 13335, bgp.Customer) // "Cloudflare" as a customer
	g.AS(2).Originated = []netip.Prefix{pfx("10.2.0.0/16")}
	g.AS(13335).Originated = []netip.Prefix{pfx("103.21.244.0/24")}
	g.AS(1).Policy = rov.CustomerExempt()
	g.AS(1).VRPs = vrps
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	verdicts := SinglePrefix(g, ip("103.21.244.1"), []inet.ASN{1, 2})
	if verdicts[1] != Unsafe || verdicts[2] != Unsafe {
		t.Fatalf("verdicts = %v, want both unsafe", verdicts)
	}
	// RoVista-style scores would rate AS 1 high (it filters everything
	// except this one customer route): that is the false negative.
	scores := map[inet.ASN]float64{1: 97.8, 2: 0}
	r := CompareSinglePrefix(verdicts, scores)
	if r.FalseNegatives != 1 {
		t.Fatalf("FN = %d, want 1", r.FalseNegatives)
	}
	if r.FalsePositives != 0 {
		t.Fatalf("FP = %d", r.FalsePositives)
	}
}

func TestCompareSinglePrefixFalsePositive(t *testing.T) {
	verdicts := map[inet.ASN]Verdict{7: Safe}
	scores := map[inet.ASN]float64{7: 0} // RoVista: no protection at all
	r := CompareSinglePrefix(verdicts, scores)
	if r.FalsePositives != 1 || r.Compared != 1 {
		t.Fatalf("r = %+v", r)
	}
	if r.FPRate() != 1 || r.FNRate() != 0 {
		t.Fatalf("rates = %v %v", r.FPRate(), r.FNRate())
	}
}

func TestCompareSinglePrefixSkipsUnscored(t *testing.T) {
	verdicts := map[inet.ASN]Verdict{7: Safe}
	r := CompareSinglePrefix(verdicts, nil)
	if r.Compared != 0 || r.FPRate() != 0 {
		t.Fatalf("r = %+v", r)
	}
}

func TestPassiveInference(t *testing.T) {
	g, vrps := build(t, false, true)
	coll := &collectors.Collector{Feeders: []inet.ASN{1, 3}}
	view := coll.Snapshot(g)
	labels := PassiveInference(view, vrps, []inet.ASN{1, 2, 3})
	// AS 1 and 3 are on the invalid path (1 transits it, 3 holds it);
	// AS 2 filtered it, so it never appears — labelled filtering.
	if labels[1] || labels[3] {
		t.Fatalf("transit/holder labelled as filtering: %v", labels)
	}
	if !labels[2] {
		t.Fatal("ROV AS should be labelled filtering")
	}
}

func TestPassiveInferenceLimitedVisibility(t *testing.T) {
	// A non-ROV AS that simply is not on any observed invalid path gets
	// (mis)labelled as filtering — the §2.3 failure mode.
	g, vrps := build(t, false, false)
	coll := &collectors.Collector{Feeders: []inet.ASN{4}} // only the origin feeds
	view := coll.Snapshot(g)
	labels := PassiveInference(view, vrps, []inet.ASN{3})
	if !labels[3] {
		t.Fatal("expected the passive method to misclassify the unseen AS")
	}
	// Yet the data plane shows AS 3 can reach the invalid prefix.
	if v := SinglePrefix(g, ip("103.21.244.1"), []inet.ASN{3}); v[3] != Unsafe {
		t.Fatal("AS 3 should actually reach the invalid prefix")
	}
}

func TestVerdictString(t *testing.T) {
	if Safe.String() != "safe" || Unsafe.String() != "unsafe" {
		t.Fatal("verdict strings wrong")
	}
}

func TestSortEntries(t *testing.T) {
	es := []CrowdEntry{{ASN: 9}, {ASN: 1}, {ASN: 5}}
	SortEntries(es)
	if es[0].ASN != 1 || es[1].ASN != 5 || es[2].ASN != 9 {
		t.Fatalf("sorted = %+v", es)
	}
}
