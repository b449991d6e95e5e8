package rpki

import (
	"net/netip"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
)

// fuzzRecLen is the size of one fuzz record: kind, four address bytes,
// prefix length, max length, ASN.
const fuzzRecLen = 8

// fuzzVRP decodes one record into a VRP whose prefix is of a class the
// index sees: IPv4 with host bits possibly set (kinds 0–4), IPv4-mapped
// IPv6 (5), IPv6 (6) or invalid (7).
func fuzzVRP(b []byte) VRP {
	a4 := [4]byte(b[1:5])
	var p netip.Prefix
	switch b[0] % 8 {
	case 5:
		p = netip.PrefixFrom(netip.AddrFrom16(netip.AddrFrom4(a4).As16()), 96+int(b[5])%33)
	case 6:
		var a16 [16]byte
		copy(a16[:], a4[:])
		p = netip.PrefixFrom(netip.AddrFrom16(a16), int(b[5])%129)
	case 7:
		if b[5]&1 == 1 {
			p = netip.PrefixFrom(netip.AddrFrom4(a4), 33+int(b[5])%8)
		}
	default:
		p = netip.PrefixFrom(netip.AddrFrom4(a4), int(b[5])%33)
	}
	return VRP{ASN: inet.ASN(b[7] % 4), Prefix: p, MaxLength: int(b[6])}
}

// fuzzRec encodes a record for the seed corpus.
func fuzzRec(kind byte, addr string, plen, maxLen, asn byte) []byte {
	a := netip.MustParseAddr(addr).As4()
	return []byte{kind, a[0], a[1], a[2], a[3], plen, maxLen, asn}
}

// FuzzVRPSetCovering: the first record is the query prefix, the rest are the
// VRPs. NewVRPSet keeps every VRP in insertion order, masked, dropping only
// repeats of an IPv4 one; Covering(q) is exactly the kept VRPs whose prefix
// contains q at no more bits than q, least specific first (a stable sort
// of that order); an append to its result does not reach the index; and
// Validate agrees with ValidateCovering over that list for every origin.
func FuzzVRPSetCovering(f *testing.F) {
	// Every prefix length 0–32, each a cover of the next, host bits set.
	every := fuzzRec(0, "10.1.2.3", 32, 32, 1)
	for l := byte(0); l <= 32; l++ {
		every = append(every, fuzzRec(0, "10.1.2.3", l, l+l%3, l)...)
	}
	f.Add(every)
	// Nested covers at several lengths, repeats, siblings, a more-specific
	// and the non-IPv4 classes, against a /24 query.
	nested := slices.Concat(
		fuzzRec(0, "10.1.2.0", 24, 0, 1),
		fuzzRec(0, "10.0.0.0", 8, 24, 1),
		fuzzRec(3, "10.0.0.0", 8, 16, 2),
		fuzzRec(4, "10.0.0.0", 8, 8, 3),
		fuzzRec(1, "10.1.0.0", 16, 16, 2),
		fuzzRec(2, "10.1.0.0", 16, 16, 2),
		fuzzRec(0, "10.1.2.0", 24, 24, 1),
		fuzzRec(0, "10.1.2.0", 24, 32, 3),
		fuzzRec(0, "10.1.2.128", 25, 25, 1),
		fuzzRec(0, "10.1.3.0", 24, 24, 1),
		fuzzRec(0, "11.0.0.0", 8, 8, 1),
		fuzzRec(5, "10.1.2.0", 24, 128, 1),
		fuzzRec(6, "10.1.2.0", 24, 128, 1),
		fuzzRec(6, "10.1.2.0", 24, 128, 1),
		fuzzRec(7, "10.1.2.0", 1, 24, 1),
		fuzzRec(7, "10.1.2.0", 0, 24, 1),
	)
	f.Add(nested)
	// The same VRPs against a query only the three /8 VRPs cover (one stored
	// slice with spare capacity), then an IPv4-mapped, an IPv6 and an
	// invalid query.
	for _, q := range [][]byte{
		fuzzRec(0, "10.9.0.0", 16, 0, 2),
		fuzzRec(5, "10.1.2.0", 24, 0, 1),
		fuzzRec(6, "10.1.2.0", 24, 0, 1),
		fuzzRec(7, "10.1.2.0", 1, 0, 1),
	} {
		f.Add(slices.Concat(q, nested[fuzzRecLen:]))
	}
	f.Add(fuzzRec(0, "0.0.0.0", 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzRecLen {
			return
		}
		q := fuzzVRP(data).Prefix
		var vrps []VRP
		for i := fuzzRecLen; i+fuzzRecLen <= len(data) && len(vrps) < 256; i += fuzzRecLen {
			vrps = append(vrps, fuzzVRP(data[i:]))
		}
		set := NewVRPSet(vrps)

		var all []VRP
		seen := make(map[VRP]bool)
		for _, v := range vrps {
			v.Prefix = v.Prefix.Masked()
			if v.Prefix.IsValid() && v.Prefix.Addr().Is4() {
				if seen[v] {
					continue
				}
				seen[v] = true
			}
			all = append(all, v)
		}
		if !slices.Equal(set.all, all) || set.Len() != len(all) {
			t.Fatalf("NewVRPSet(%v) kept %v, want %v", vrps, set.all, all)
		}

		var want []VRP
		if q.IsValid() && q.Addr().Is4() {
			for _, v := range all {
				if v.Prefix.Contains(q.Addr()) && v.Prefix.Bits() <= q.Bits() {
					want = append(want, v)
				}
			}
			slices.SortStableFunc(want, func(a, b VRP) int { return a.Prefix.Bits() - b.Prefix.Bits() })
		}
		got := set.Covering(q)
		if !slices.Equal(got, want) {
			t.Fatalf("Covering(%v) = %v, want %v (VRPs %v)", q, got, want, all)
		}
		// Two callers appending to their results must not share storage.
		x := append(got, VRP{ASN: 98})
		y := append(set.Covering(q), VRP{ASN: 99})
		if x[len(x)-1].ASN != 98 || y[len(y)-1].ASN != 99 {
			t.Fatalf("appends to two Covering(%v) results share storage", q)
		}
		if again := set.Covering(q); !slices.Equal(again, want) {
			t.Fatalf("Covering(%v) after appends to its result = %v, want %v", q, again, want)
		}
		if set.CoversPrefix(q) != (len(want) > 0) {
			t.Fatalf("CoversPrefix(%v) = %v with %d covering VRPs", q, set.CoversPrefix(q), len(want))
		}
		for origin := inet.ASN(0); origin <= 4; origin++ {
			if v, w := set.Validate(q, origin), ValidateCovering(want, q, origin); v != w {
				t.Fatalf("Validate(%v, %v) = %v, ValidateCovering says %v", q, origin, v, w)
			}
		}
	})
}
