package rpki

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func testAuthority(t *testing.T) *Authority {
	t.Helper()
	res := ResourceSet{
		Prefixes: []netip.Prefix{pfx("10.0.0.0/8"), pfx("172.16.0.0/12")},
		ASNs:     []ASNRange{{1, 65000}},
	}
	return NewAuthority(RIPE, 42, res, 0, 1000)
}

func TestTrustAnchorSelfSigned(t *testing.T) {
	a := testAuthority(t)
	ta := a.Repo.TrustAnchor
	if !verify(ta.PublicKey, ta.encodeTBS(), ta.Signature) {
		t.Fatal("trust anchor self-signature should verify")
	}
	if ta.IssuerSubject != ta.Subject {
		t.Fatal("trust anchor must be self-issued")
	}
}

func TestIssueCAAndValidate(t *testing.T) {
	a := testAuthority(t)
	res := ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}
	cert, err := a.IssueCA("isp-1", "", res, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !verify(a.Repo.TrustAnchor.PublicKey, cert.encodeTBS(), cert.Signature) {
		t.Fatal("issued cert should verify against TA key")
	}

	rp := &RelyingParty{Day: 100}
	_, errs := rp.Validate([]*Repository{a.Repo})
	if len(errs) != 0 {
		t.Fatalf("unexpected validation errors: %v", errs)
	}
}

func TestIssueCADuplicateSubject(t *testing.T) {
	a := testAuthority(t)
	res := ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}
	if _, err := a.IssueCA("dup", "", res, 0, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := a.IssueCA("dup", "", res, 0, 500); err == nil {
		t.Fatal("expected duplicate-subject error")
	}
}

func TestIssueCAUnknownParent(t *testing.T) {
	a := testAuthority(t)
	if _, err := a.IssueCA("x", "ghost", ResourceSet{}, 0, 1); err == nil {
		t.Fatal("expected unknown-parent error")
	}
}

func TestROAEndToEnd(t *testing.T) {
	a := testAuthority(t)
	res := ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}
	if _, err := a.IssueCA("isp-1", "", res, 0, 500); err != nil {
		t.Fatal(err)
	}
	_, err := a.IssueROA("isp-1", 64500, []ROAPrefix{{pfx("10.1.0.0/16"), 24}}, 0, 500)
	if err != nil {
		t.Fatal(err)
	}

	rp := &RelyingParty{Day: 10}
	vrps, errs := rp.Validate([]*Repository{a.Repo})
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if vrps.Len() != 1 {
		t.Fatalf("got %d VRPs, want 1", vrps.Len())
	}

	// RFC 6811 decision table.
	cases := []struct {
		p      string
		origin inet.ASN
		want   Validity
	}{
		{"10.1.0.0/16", 64500, Valid},
		{"10.1.2.0/24", 64500, Valid},   // within maxLength
		{"10.1.2.0/25", 64500, Invalid}, // too specific
		{"10.1.0.0/16", 64501, Invalid}, // wrong origin
		{"10.2.0.0/16", 64500, NotFound},
	}
	for _, c := range cases {
		if got := vrps.Validate(pfx(c.p), c.origin); got != c.want {
			t.Errorf("Validate(%s, %v) = %v, want %v", c.p, c.origin, got, c.want)
		}
	}
}

func TestROAResourceContainmentEnforced(t *testing.T) {
	a := testAuthority(t)
	res := ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}
	if _, err := a.IssueCA("isp-1", "", res, 0, 500); err != nil {
		t.Fatal(err)
	}
	// ROA for space the CA does not hold must be rejected at validation.
	if _, err := a.IssueROA("isp-1", 64500, []ROAPrefix{{pfx("192.168.0.0/16"), 24}}, 0, 500); err != nil {
		t.Fatal(err)
	}
	rp := &RelyingParty{Day: 10}
	vrps, errs := rp.Validate([]*Repository{a.Repo})
	if vrps.Len() != 0 {
		t.Fatalf("over-claiming ROA produced VRPs: %v", vrps.All())
	}
	if len(errs) == 0 {
		t.Fatal("expected a validation error for over-claiming ROA")
	}
}

func TestCAResourceContainmentEnforced(t *testing.T) {
	a := testAuthority(t)
	// CA claiming space outside the TA's holdings.
	over := ResourceSet{Prefixes: []netip.Prefix{pfx("8.0.0.0/8")}}
	if _, err := a.IssueCA("greedy", "", over, 0, 500); err != nil {
		t.Fatal(err)
	}
	rp := &RelyingParty{Day: 10}
	_, errs := rp.Validate([]*Repository{a.Repo})
	found := false
	for _, e := range errs {
		if e.Object == "greedy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected containment error for greedy CA, got %v", errs)
	}
}

func TestExpiredObjectsRejected(t *testing.T) {
	a := testAuthority(t)
	res := ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}
	a.IssueCA("isp-1", "", res, 0, 500)
	a.IssueROA("isp-1", 64500, []ROAPrefix{{pfx("10.1.0.0/16"), 16}}, 0, 50)

	rp := &RelyingParty{Day: 100} // ROA expired at day 50
	vrps, errs := rp.Validate([]*Repository{a.Repo})
	if vrps.Len() != 0 {
		t.Fatal("expired ROA should produce no VRPs")
	}
	if len(errs) == 0 {
		t.Fatal("expected an expiry error")
	}
}

func TestTamperedROARejected(t *testing.T) {
	a := testAuthority(t)
	res := ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}
	a.IssueCA("isp-1", "", res, 0, 500)
	roa, _ := a.IssueROA("isp-1", 64500, []ROAPrefix{{pfx("10.1.0.0/16"), 16}}, 0, 500)
	roa.ASID = 666 // attacker flips the origin after signing

	rp := &RelyingParty{Day: 10}
	vrps, errs := rp.Validate([]*Repository{a.Repo})
	if vrps.Len() != 0 {
		t.Fatal("tampered ROA must not yield VRPs")
	}
	if len(errs) == 0 {
		t.Fatal("expected signature error")
	}
}

func TestChainedCAs(t *testing.T) {
	a := testAuthority(t)
	a.IssueCA("lir", "", ResourceSet{Prefixes: []netip.Prefix{pfx("10.0.0.0/9")}}, 0, 500)
	a.IssueCA("customer", "lir", ResourceSet{Prefixes: []netip.Prefix{pfx("10.64.0.0/16")}}, 0, 500)
	a.IssueROA("customer", 65001, []ROAPrefix{{pfx("10.64.0.0/16"), 20}}, 0, 500)

	rp := &RelyingParty{Day: 1}
	vrps, errs := rp.Validate([]*Repository{a.Repo})
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if got := vrps.Validate(pfx("10.64.0.0/18"), 65001); got != Valid {
		t.Fatalf("chained validation = %v, want valid", got)
	}
}

func TestRevokeROA(t *testing.T) {
	a := testAuthority(t)
	a.IssueCA("isp-1", "", ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}, 0, 500)
	roa, _ := a.IssueROA("isp-1", 64500, []ROAPrefix{{pfx("10.1.0.0/16"), 16}}, 0, 500)
	if !a.RevokeROA(roa) {
		t.Fatal("revoke should succeed")
	}
	if a.RevokeROA(roa) {
		t.Fatal("double revoke should fail")
	}
	rp := &RelyingParty{Day: 1}
	vrps, _ := rp.Validate([]*Repository{a.Repo})
	if vrps.Len() != 0 {
		t.Fatal("revoked ROA should not yield VRPs")
	}
}

func TestMalformedROA(t *testing.T) {
	a := testAuthority(t)
	a.IssueCA("isp-1", "", ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}, 0, 500)
	// maxLength shorter than the prefix is malformed per RFC 6482.
	a.IssueROA("isp-1", 64500, []ROAPrefix{{pfx("10.1.0.0/16"), 8}}, 0, 500)
	rp := &RelyingParty{Day: 1}
	vrps, errs := rp.Validate([]*Repository{a.Repo})
	if vrps.Len() != 0 || len(errs) == 0 {
		t.Fatalf("malformed ROA handled wrong: %d vrps, errs=%v", vrps.Len(), errs)
	}
}

func TestMultipleRepositories(t *testing.T) {
	a1 := NewAuthority(RIPE, 1, ResourceSet{Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}, ASNs: []ASNRange{{1, 100000}}}, 0, 999)
	a2 := NewAuthority(ARIN, 2, ResourceSet{Prefixes: []netip.Prefix{pfx("20.0.0.0/8")}, ASNs: []ASNRange{{1, 100000}}}, 0, 999)
	a1.IssueCA("e1", "", ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}}, 0, 999)
	a2.IssueCA("e2", "", ResourceSet{Prefixes: []netip.Prefix{pfx("20.1.0.0/16")}}, 0, 999)
	a1.IssueROA("e1", 100, []ROAPrefix{{pfx("10.1.0.0/16"), 16}}, 0, 999)
	a2.IssueROA("e2", 200, []ROAPrefix{{pfx("20.1.0.0/16"), 16}}, 0, 999)

	rp := &RelyingParty{Day: 5}
	vrps, errs := rp.Validate([]*Repository{a1.Repo, a2.Repo})
	if len(errs) != 0 || vrps.Len() != 2 {
		t.Fatalf("multi-repo validation: %d vrps, errs=%v", vrps.Len(), errs)
	}
}

func TestVRPSetDedupe(t *testing.T) {
	v := VRP{ASN: 1, Prefix: pfx("10.0.0.0/8"), MaxLength: 8}
	s := NewVRPSet([]VRP{v, v, v})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after dedupe", s.Len())
	}
}

func TestValidityString(t *testing.T) {
	if Valid.String() != "valid" || Invalid.String() != "invalid" || NotFound.String() != "not-found" {
		t.Fatal("Validity strings wrong")
	}
}

func TestRIRString(t *testing.T) {
	want := map[RIR]string{APNIC: "APNIC", RIPE: "RIPE NCC", ARIN: "ARIN", AFRINIC: "AFRINIC", LACNIC: "LACNIC"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestSLURMFilter(t *testing.T) {
	base := NewVRPSet([]VRP{
		{ASN: 100, Prefix: pfx("10.1.0.0/16"), MaxLength: 24},
		{ASN: 200, Prefix: pfx("10.2.0.0/16"), MaxLength: 16},
	})
	s := &SLURM{PrefixFilters: []PrefixFilter{{Prefix: pfx("10.1.0.0/16")}}}
	out := s.Apply(base)
	if out.Len() != 1 {
		t.Fatalf("Len = %d, want 1", out.Len())
	}
	if out.Validate(pfx("10.1.0.0/16"), 100) != NotFound {
		t.Fatal("filtered VRP should be gone")
	}
	if out.Validate(pfx("10.2.0.0/16"), 200) != Valid {
		t.Fatal("unrelated VRP should survive")
	}
}

func TestSLURMFilterByASN(t *testing.T) {
	base := NewVRPSet([]VRP{
		{ASN: 100, Prefix: pfx("10.1.0.0/16"), MaxLength: 16},
		{ASN: 200, Prefix: pfx("10.2.0.0/16"), MaxLength: 16},
	})
	s := &SLURM{PrefixFilters: []PrefixFilter{{ASN: 200}}}
	out := s.Apply(base)
	if out.Len() != 1 || out.Validate(pfx("10.2.0.0/16"), 200) != NotFound {
		t.Fatal("ASN filter failed")
	}
}

func TestSLURMAssertion(t *testing.T) {
	base := NewVRPSet(nil)
	s := &SLURM{PrefixAssertions: []PrefixAssertion{{Prefix: pfx("192.0.2.0/24"), ASN: 300}}}
	out := s.Apply(base)
	if out.Validate(pfx("192.0.2.0/24"), 300) != Valid {
		t.Fatal("asserted VRP should validate")
	}
	if out.Validate(pfx("192.0.2.0/25"), 300) != Invalid {
		t.Fatal("maxLength should default to prefix length")
	}
}

func TestSLURMNil(t *testing.T) {
	base := NewVRPSet([]VRP{{ASN: 1, Prefix: pfx("10.0.0.0/8"), MaxLength: 8}})
	var s *SLURM
	if got := s.Apply(base); got != base {
		t.Fatal("nil SLURM should be identity")
	}
}

func TestResourceSetContainment(t *testing.T) {
	s := ResourceSet{
		Prefixes: []netip.Prefix{pfx("10.0.0.0/8")},
		ASNs:     []ASNRange{{100, 200}},
	}
	if !s.ContainsPrefix(pfx("10.5.0.0/16")) {
		t.Fatal("should contain sub-prefix")
	}
	if s.ContainsPrefix(pfx("11.0.0.0/8")) {
		t.Fatal("should not contain disjoint prefix")
	}
	if s.ContainsPrefix(pfx("0.0.0.0/0")) {
		t.Fatal("should not contain covering prefix")
	}
	if !s.ContainsASN(150) || s.ContainsASN(99) || s.ContainsASN(201) {
		t.Fatal("ASN range containment wrong")
	}
	if !s.ContainsAll(ResourceSet{Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}, ASNs: []ASNRange{{120, 130}}}) {
		t.Fatal("ContainsAll should hold")
	}
	if s.ContainsAll(ResourceSet{ASNs: []ASNRange{{150, 250}}}) {
		t.Fatal("partially-out-of-range ASNs must fail containment")
	}
}

// TestVRPSetAllOrder: All sorts as a comparator that formats both prefixes
// on every comparison does — by prefix text, then ASN, then max length —
// on random sets that repeat prefixes under other ASNs and max lengths and
// hold unindexed entries (IPv6, invalid) the set keeps as often as given.
// RTR snapshots and the RTR source's diff read this order.
func TestVRPSetAllOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 50 {
		var vrps []VRP
		for range 1 + rng.Intn(200) {
			bits := 8 + rng.Intn(17)
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + rng.Intn(12)), byte(rng.Intn(3) * 64), 0, 0}), bits)
			switch rng.Intn(10) {
			case 0:
				p = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(2))}), 32+bits)
			case 1:
				p = netip.Prefix{}
			}
			vrps = append(vrps, VRP{ASN: inet.ASN(64500 + rng.Intn(4)), Prefix: p, MaxLength: bits + rng.Intn(3)})
		}
		set := NewVRPSet(vrps)
		want := slices.Clone(set.all)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Prefix != want[j].Prefix {
				return want[i].Prefix.String() < want[j].Prefix.String()
			}
			if want[i].ASN != want[j].ASN {
				return want[i].ASN < want[j].ASN
			}
			return want[i].MaxLength < want[j].MaxLength
		})
		if got := set.All(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: All() = %v, want %v", trial, got, want)
		}
	}
}
