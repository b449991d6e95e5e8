package rpki

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"github.com/netsec-lab/rovista/internal/inet"
)

func randomVRP(rng *rand.Rand) VRP {
	plen := 8 + rng.Intn(17) // /8../24
	addr := inet.V4(uint32(rng.Intn(64)) << 24)
	p, _ := addr.Prefix(plen)
	return VRP{
		ASN:       inet.ASN(1 + rng.Intn(50)),
		Prefix:    p,
		MaxLength: plen + rng.Intn(33-plen),
	}
}

func randomQuery(rng *rand.Rand) (netip.Prefix, inet.ASN) {
	plen := 8 + rng.Intn(25)
	addr := inet.V4(rng.Uint32() & 0x3fffffff)
	p, _ := addr.Prefix(plen)
	return p, inet.ASN(1 + rng.Intn(50))
}

// TestValidationMonotonicityProperty: adding VRPs can only move an outcome
// "toward knowledge" — NotFound may become Valid or Invalid, Invalid may
// become Valid (a matching VRP appeared), but Valid can never regress and
// nothing returns to NotFound.
func TestValidationMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]VRP, rng.Intn(20))
		for i := range base {
			base[i] = randomVRP(rng)
		}
		extra := make([]VRP, 1+rng.Intn(10))
		for i := range extra {
			extra[i] = randomVRP(rng)
		}
		small := NewVRPSet(base)
		big := NewVRPSet(append(append([]VRP{}, base...), extra...))
		for q := 0; q < 50; q++ {
			p, origin := randomQuery(rng)
			before := small.Validate(p, origin)
			after := big.Validate(p, origin)
			switch before {
			case Valid:
				if after != Valid {
					t.Logf("Valid regressed to %v for %v/%v", after, p, origin)
					return false
				}
			case Invalid:
				if after == NotFound {
					t.Logf("Invalid returned to NotFound for %v/%v", p, origin)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestValidationAgreesWithBruteForce: the indexed validator must agree
// with a direct scan of the VRP list.
func TestValidationAgreesWithBruteForce(t *testing.T) {
	brute := func(vrps []VRP, p netip.Prefix, origin inet.ASN) Validity {
		covered, matched := false, false
		for _, v := range vrps {
			if v.Prefix.Contains(p.Masked().Addr()) && v.Prefix.Bits() <= p.Bits() {
				covered = true
				if v.ASN == origin && p.Bits() <= v.MaxLength {
					matched = true
				}
			}
		}
		switch {
		case matched:
			return Valid
		case covered:
			return Invalid
		default:
			return NotFound
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vrps := make([]VRP, rng.Intn(30))
		for i := range vrps {
			vrps[i] = randomVRP(rng)
		}
		set := NewVRPSet(vrps)
		for q := 0; q < 60; q++ {
			p, origin := randomQuery(rng)
			if set.Validate(p, origin) != brute(vrps, p, origin) {
				t.Logf("disagreement for %v origin %v", p, origin)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSLURMFilterNeverAddsValidity: a filter-only SLURM can only remove
// knowledge — Valid may become Invalid (its matching VRP was filtered but a
// covering one remains) or NotFound; nothing becomes Valid.
func TestSLURMFilterNeverAddsValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vrps := make([]VRP, 5+rng.Intn(20))
		for i := range vrps {
			vrps[i] = randomVRP(rng)
		}
		base := NewVRPSet(vrps)
		s := &SLURM{}
		for i := 0; i < 1+rng.Intn(3); i++ {
			v := vrps[rng.Intn(len(vrps))]
			s.PrefixFilters = append(s.PrefixFilters, PrefixFilter{Prefix: v.Prefix})
		}
		filtered := s.Apply(base)
		for q := 0; q < 40; q++ {
			p, origin := randomQuery(rng)
			before := base.Validate(p, origin)
			after := filtered.Validate(p, origin)
			if before != Valid && after == Valid {
				t.Logf("filter conjured Valid for %v/%v", p, origin)
				return false
			}
			if before == NotFound && after != NotFound {
				t.Logf("filter conjured coverage for %v/%v", p, origin)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRelyingPartyDeterministic: validation output is a pure function of
// the repositories and the day.
func TestRelyingPartyDeterministic(t *testing.T) {
	a := NewAuthority(ARIN, 5, ResourceSet{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		ASNs:     []ASNRange{{1, 1000}},
	}, 0, 100)
	for i := 0; i < 10; i++ {
		sub := netip.PrefixFrom(inet.V4(uint32(10)<<24|uint32(i)<<16), 16)
		name := sub.String()
		a.IssueCA(name, "", ResourceSet{Prefixes: []netip.Prefix{sub}}, 0, 100)
		a.IssueROA(name, inet.ASN(i+1), []ROAPrefix{{Prefix: sub, MaxLength: 24}}, i, 100)
	}
	for day := 0; day <= 12; day += 3 {
		rp := &RelyingParty{Day: day}
		v1, _ := rp.Validate([]*Repository{a.Repo})
		v2, _ := rp.Validate([]*Repository{a.Repo})
		all1, all2 := v1.All(), v2.All()
		if len(all1) != len(all2) {
			t.Fatalf("day %d: nondeterministic VRP count", day)
		}
		for i := range all1 {
			if all1[i] != all2[i] {
				t.Fatalf("day %d: VRP %d differs", day, i)
			}
		}
	}
	// VRP count grows with the day (ROAs phase in).
	rp0 := &RelyingParty{Day: 0}
	rp9 := &RelyingParty{Day: 9}
	v0, _ := rp0.Validate([]*Repository{a.Repo})
	v9, _ := rp9.Validate([]*Repository{a.Repo})
	if v9.Len() <= v0.Len() {
		t.Fatalf("VRPs did not grow: %d -> %d", v0.Len(), v9.Len())
	}
}
