package rpki

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"sort"

	"github.com/netsec-lab/rovista/internal/inet"
)

// VRP is a Validated ROA Payload: the (ASN, prefix, max length) tuple the
// relying party hands to routers.
type VRP struct {
	ASN       inet.ASN
	Prefix    netip.Prefix
	MaxLength int
}

// String implements fmt.Stringer.
func (v VRP) String() string {
	return fmt.Sprintf("%v-%d => %v", v.Prefix, v.MaxLength, v.ASN)
}

// Validity is the RFC 6811 route-origin validation outcome.
type Validity uint8

// RFC 6811 validation states.
const (
	// NotFound: no VRP covers the announced prefix.
	NotFound Validity = iota
	// Valid: some covering VRP matches both origin and length constraint.
	Valid
	// Invalid: covered by at least one VRP but matched by none.
	Invalid
)

// String implements fmt.Stringer.
func (v Validity) String() string {
	switch v {
	case NotFound:
		return "not-found"
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("Validity(%d)", uint8(v))
	}
}

// VRPSet indexes VRPs for origin validation by their packed prefix key
// (inet.PrefixKey, the key bgp.PrefixTable interns under), so a covering
// check makes one map probe per prefix length some VRP has.
type VRPSet struct {
	byKey map[uint64][]VRP
	lens  uint64 // bit l set when some indexed VRP has prefix length l
	all   []VRP
}

// NewVRPSet builds an index over the given VRPs.
func NewVRPSet(vrps []VRP) *VRPSet {
	s := &VRPSet{byKey: make(map[uint64][]VRP)}
	for _, v := range vrps {
		s.add(v)
	}
	return s
}

// add masks v's prefix and indexes it once. A non-IPv4 or invalid prefix
// is kept in all but not indexed, so it covers nothing.
func (s *VRPSet) add(v VRP) {
	v.Prefix = v.Prefix.Masked()
	if v.Prefix.IsValid() && v.Prefix.Addr().Is4() {
		k := inet.PrefixKey(v.Prefix)
		existing := s.byKey[k]
		if slices.Contains(existing, v) {
			return
		}
		s.byKey[k] = append(existing, v)
		s.lens |= 1 << v.Prefix.Bits()
	}
	s.all = append(s.all, v)
}

// Equal reports whether both sets hold the same VRPs in the same insertion
// order — what two validations of unchanged repositories produce. State
// derived from a set is stamped with the set's pointer identity, so a
// refresh that changed nothing keeps the old pointer (World.AdvanceTo).
func (s *VRPSet) Equal(o *VRPSet) bool {
	if s == nil || o == nil {
		return s == o
	}
	return slices.Equal(s.all, o.all)
}

// Len returns the number of VRPs in the set.
func (s *VRPSet) Len() int { return len(s.all) }

// All returns the VRPs in deterministic order: by the prefix's text, then
// ASN, then max length. Each prefix is formatted once, before the sort.
func (s *VRPSet) All() []VRP {
	type keyed struct {
		text string
		v    VRP
	}
	ks := make([]keyed, len(s.all))
	for i, v := range s.all {
		ks[i] = keyed{v.Prefix.String(), v}
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		if a.v.Prefix != b.v.Prefix {
			return a.text < b.text
		}
		if a.v.ASN != b.v.ASN {
			return a.v.ASN < b.v.ASN
		}
		return a.v.MaxLength < b.v.MaxLength
	})
	out := make([]VRP, len(ks))
	for i := range ks {
		out[i] = ks[i].v
	}
	return out
}

// Covering returns all VRPs whose prefix covers p, least specific first; a
// nil set, an invalid p or a non-IPv4 p covers nothing. The slice may alias
// the index and is read-only; appending to it copies.
func (s *VRPSet) Covering(p netip.Prefix) []VRP {
	if s == nil || !p.IsValid() || !p.Addr().Is4() {
		return nil
	}
	addr := inet.V4Int(p.Addr())
	var out []VRP
	for m := s.lens & (2<<p.Bits() - 1); m != 0; m &= m - 1 {
		e := s.byKey[inet.MaskKey(addr, bits.TrailingZeros64(m))]
		if out == nil {
			out = e[:len(e):len(e)] // full slice expression: the append below copies
		} else {
			out = append(out, e...)
		}
	}
	return out
}

// Validate implements RFC 6811 origin validation for an announcement of
// prefix p originated by origin.
func (s *VRPSet) Validate(p netip.Prefix, origin inet.ASN) Validity {
	return ValidateCovering(s.Covering(p), p, origin)
}

// ValidateCovering is Validate against an already resolved Covering(p)
// list, for callers that validate several origins of one prefix and want to
// resolve the covering VRPs once.
func ValidateCovering(covering []VRP, p netip.Prefix, origin inet.ASN) Validity {
	if len(covering) == 0 {
		return NotFound
	}
	for _, v := range covering {
		if v.ASN == origin && p.Bits() <= v.MaxLength {
			return Valid
		}
	}
	return Invalid
}

// CoversPrefix reports whether any VRP covers p (i.e. validation would not
// return NotFound).
func (s *VRPSet) CoversPrefix(p netip.Prefix) bool {
	return len(s.Covering(p)) > 0
}
