// Package collectors models the public BGP observation infrastructure the
// paper builds on: RouteViews/RIS-style collectors that receive full tables
// from a limited set of feeder ASes (so their view of the Internet is
// deliberately partial — the source of RoVista's "false tNode" problem and
// its coverage limitation), and RIPE-Atlas-style probe fleets used for
// traceroute cross-validation.
package collectors

import (
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// RouteObs is one observed route at a collector.
type RouteObs struct {
	Prefix netip.Prefix
	Path   []inet.ASN // as exported by the feeder (feeder first, origin last)
	Feeder inet.ASN
}

// Origin returns the route's origin AS.
func (r RouteObs) Origin() inet.ASN {
	if len(r.Path) == 0 {
		return r.Feeder
	}
	return r.Path[len(r.Path)-1]
}

// Collector is a RouteViews-style vantage point.
type Collector struct {
	Name    string
	Feeders []inet.ASN
}

// View is a collector RIB snapshot.
type View struct {
	byPrefix map[netip.Prefix][]RouteObs
}

// Snapshot collects each feeder's current best routes.
func (c *Collector) Snapshot(g *bgp.Graph) *View {
	v := &View{byPrefix: make(map[netip.Prefix][]RouteObs)}
	for _, f := range c.Feeders {
		a := g.AS(f)
		if a == nil {
			continue
		}
		for _, r := range a.Routes() {
			path := make([]inet.ASN, 0, len(r.Path)+1)
			path = append(path, f)
			path = append(path, r.Path...)
			v.byPrefix[r.Prefix] = append(v.byPrefix[r.Prefix], RouteObs{
				Prefix: r.Prefix,
				Path:   path,
				Feeder: f,
			})
		}
	}
	return v
}

// NewView returns the view that holds exactly obs — an MRT dump read back,
// say — grouped by prefix in the order given.
func NewView(obs []RouteObs) *View {
	v := &View{byPrefix: make(map[netip.Prefix][]RouteObs)}
	for _, o := range obs {
		o.Prefix = o.Prefix.Masked()
		v.byPrefix[o.Prefix] = append(v.byPrefix[o.Prefix], o)
	}
	return v
}

// Prefixes returns every observed prefix in deterministic order.
func (v *View) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(v.byPrefix))
	for p := range v.byPrefix {
		out = append(out, p)
	}
	sortPrefixes(out)
	return out
}

// sortPrefixes orders prefixes by address, then length.
func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr() != ps[j].Addr() {
			return ps[i].Addr().Less(ps[j].Addr())
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

// Routes returns all observations for a prefix.
func (v *View) Routes(p netip.Prefix) []RouteObs { return v.byPrefix[p.Masked()] }

// Origins returns the distinct origin ASes observed for a prefix.
func (v *View) Origins(p netip.Prefix) []inet.ASN {
	seen := map[inet.ASN]bool{}
	var out []inet.ASN
	for _, r := range v.byPrefix[p.Masked()] {
		o := r.Origin()
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ValidityStats summarizes a snapshot against a VRP set (Figure 1's series).
type ValidityStats struct {
	Total     int // distinct prefixes observed
	Covered   int // covered by at least one VRP
	Invalid   int // at least one origin validates Invalid
	Exclusive int // every observed origin is Invalid ("exclusively invalid")
}

// Classify computes coverage/invalidity statistics for the snapshot.
func (v *View) Classify(vrps *rpki.VRPSet) ValidityStats {
	var st ValidityStats
	for p, obs := range v.byPrefix {
		st.Total++
		if vrps.CoversPrefix(p) {
			st.Covered++
		}
		anyInvalid, allInvalid := false, true
		for _, r := range obs {
			switch vrps.Validate(p, r.Origin()) {
			case rpki.Invalid:
				anyInvalid = true
			default:
				allInvalid = false
			}
		}
		if anyInvalid {
			st.Invalid++
			if allInvalid {
				st.Exclusive++
			}
		}
	}
	return st
}

// ExclusivelyInvalid returns the prefixes for which every observed origin is
// RPKI-invalid — the paper's test prefixes (§3.2): traffic for them cannot
// be rescued by a legitimate announcement of the same prefix.
func (v *View) ExclusivelyInvalid(vrps *rpki.VRPSet) []netip.Prefix {
	var out []netip.Prefix
	for p, obs := range v.byPrefix {
		if len(obs) == 0 {
			continue
		}
		all := true
		for _, r := range obs {
			if vrps.Validate(p, r.Origin()) != rpki.Invalid {
				all = false
				break
			}
		}
		if all {
			out = append(out, p)
		}
	}
	sortPrefixes(out)
	return out
}

// Probe is a RIPE-Atlas-style measurement probe hosted inside an AS.
type Probe struct {
	ID  int
	ASN inet.ASN
}

// Fleet is a set of probes, indexable by AS.
type Fleet struct {
	Probes []Probe
	byASN  map[inet.ASN][]Probe
}

// NewFleet builds a fleet with n probes per AS for the given ASes.
func NewFleet(asns []inet.ASN, perAS int) *Fleet {
	f := &Fleet{byASN: make(map[inet.ASN][]Probe)}
	id := 1
	for _, asn := range asns {
		for i := 0; i < perAS; i++ {
			p := Probe{ID: id, ASN: asn}
			id++
			f.Probes = append(f.Probes, p)
			f.byASN[asn] = append(f.byASN[asn], p)
		}
	}
	return f
}

// ASNs lists the covered ASes in ascending order.
func (f *Fleet) ASNs() []inet.ASN {
	out := make([]inet.ASN, 0, len(f.byASN))
	for a := range f.byASN {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExclusiveSet maintains ExclusivelyInvalid incrementally for one collector
// over one graph. Per interned prefix it keeps the "observed, and every
// feeder-observed origin is RPKI-invalid" verdict together with the stamp
// the verdict was computed under: the prefix's affected routing epoch (a
// feeder's Loc-RIB slot for a prefix only changes when that epoch moves)
// and the identity of the VRP set (sets are immutable once built). A
// verdict is valid while its stamp is unchanged, so Update re-evaluates
// only prefixes whose epoch moved — every prefix when the VRP set was
// swapped — and reads the feeders' Loc-RIB slots in place, never building
// a View. The zero value is ready to use.
//
// Update's result is always equal to c.Snapshot(g).ExclusivelyInvalid(vrps);
// the reference stays the untouched path other callers use.
type ExclusiveSet struct {
	c       *Collector
	g       *bgp.Graph
	vrps    *rpki.VRPSet
	version uint64
	feeders []*bgp.AS
	// stamp[id] is AffectedEpoch(id)+1 at the last evaluation (0: never
	// evaluated); member[id] the verdict.
	stamp  []uint64
	member []bool
	// sorted is the current result. It is replaced, never edited, when
	// membership changes, so slices handed out earlier stay intact.
	sorted []netip.Prefix
}

// Update brings the set up to date with the graph and VRP set and returns
// the exclusively-invalid prefixes in ExclusivelyInvalid's order, plus how
// many prefixes it had to re-evaluate. The returned slice is shared with
// later calls and must not be modified.
func (s *ExclusiveSet) Update(c *Collector, g *bgp.Graph, vrps *rpki.VRPSet) (prefixes []netip.Prefix, reevaluated int) {
	tab := g.Prefixes()
	if s.c != c || s.g != g {
		*s = ExclusiveSet{c: c, g: g}
	} else if s.vrps == vrps && s.version == g.Version() && len(s.stamp) == tab.Len() {
		return s.sorted, 0
	}
	s.feeders = s.feeders[:0]
	for _, f := range c.Feeders {
		if a := g.AS(f); a != nil {
			s.feeders = append(s.feeders, a)
		}
	}
	if s.vrps != vrps {
		s.vrps = vrps
		clear(s.stamp)
	}
	s.version = g.Version()
	if grown := tab.Len() - len(s.stamp); grown > 0 {
		s.stamp = append(s.stamp, make([]uint64, grown)...)
		s.member = append(s.member, make([]bool, grown)...)
	}
	changed := false
	for id := range s.stamp {
		st := g.AffectedEpoch(bgp.PrefixID(id)) + 1
		if s.stamp[id] == st {
			continue
		}
		s.stamp[id] = st
		reevaluated++
		if m := s.exclusive(tab.Prefix(bgp.PrefixID(id)), bgp.PrefixID(id)); m != s.member[id] {
			s.member[id] = m
			changed = true
		}
	}
	if changed {
		var out []netip.Prefix
		for id, m := range s.member {
			if m {
				out = append(out, tab.Prefix(bgp.PrefixID(id)))
			}
		}
		sortPrefixes(out)
		s.sorted = out
	}
	return s.sorted, reevaluated
}

// exclusive evaluates one prefix: observed by at least one feeder, and
// every observed origin validates Invalid.
func (s *ExclusiveSet) exclusive(p netip.Prefix, id bgp.PrefixID) bool {
	var covering []rpki.VRP
	observed := false
	for _, a := range s.feeders {
		origin, ok := a.RouteOrigin(id)
		if !ok {
			continue
		}
		if !observed {
			observed = true
			if covering = s.vrps.Covering(p); len(covering) == 0 {
				return false // NotFound for every origin
			}
		}
		if rpki.ValidateCovering(covering, p, origin) != rpki.Invalid {
			return false
		}
	}
	return observed
}
