// Package hijack reproduces the paper's §7.5 BGPStream study: it generates
// BGP hijacking events (prefix and sub-prefix, against RPKI-covered and
// uncovered victims), injects them into a world, observes their propagation
// through the collector, and joins the resulting AS paths with ROV
// protection scores to estimate how many attacks ROV (or a missing ROA)
// would have prevented.
package hijack

import (
	"math/rand"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
)

// Event is one reported hijack attempt.
type Event struct {
	Day       int
	Prefix    netip.Prefix // the prefix the attacker announces
	Victim    inet.ASN     // legitimate holder
	Attacker  inet.ASN
	SubPrefix bool // true: more-specific hijack of the victim's space
}

// Generate draws n hijack events against random victims. coveredFrac of
// the victims hold a ROA for the attacked space (the paper observed 14% of
// BGPStream reports were RPKI-covered).
func Generate(w *core.World, n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	asns := w.Topo.ASNs
	var out []Event
	for i := 0; i < n; i++ {
		victim := asns[rng.Intn(len(asns))]
		attacker := asns[rng.Intn(len(asns))]
		if attacker == victim {
			continue
		}
		vps := w.Topo.Info[victim].Prefixes
		if len(vps) == 0 {
			continue // transit-only AS (Topology.OriginFrac): nothing to hijack
		}
		vp := vps[0]
		ev := Event{
			Day:      rng.Intn(w.Cfg.Days + 1),
			Victim:   victim,
			Attacker: attacker,
		}
		if rng.Float64() < 0.5 {
			// Sub-prefix hijack: announce a /24 inside the victim's /16.
			ev.Prefix = subnet24(vp, rng)
			ev.SubPrefix = true
		} else {
			ev.Prefix = vp
		}
		out = append(out, ev)
	}
	return out
}

func subnet24(p netip.Prefix, rng *rand.Rand) netip.Prefix {
	n := 1 << (24 - p.Bits())
	idx := rng.Intn(n)
	base := p.Masked().Addr().As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += uint32(idx) << 8
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), 24)
}

// Report is the §7.5 per-event analysis row.
type Report struct {
	Event
	// RPKICovered: a VRP covers the hijacked prefix at the event's day.
	RPKICovered bool
	// SpreadASes is how many ASes accepted a route to the attacker's
	// announcement (its blast radius).
	SpreadASes int
	// PathScored / PathLen count ASes with a RoVista score on one observed
	// propagation path and its total length.
	PathScored, PathLen int
	// AllScored: every AS on the observed path had a score.
	AllScored bool
	// MaxScore is the highest score among path ASes.
	MaxScore float64
	// HighScoreOnPath: some path AS scored above 90 yet propagated the
	// announcement (customer-exemption signature, §7.5).
	HighScoreOnPath bool
}

// Analyze injects each event into the world (at the world's current day),
// measures its propagation, and joins with the given scores. The world's
// routing state is restored after each event.
func Analyze(w *core.World, scores map[inet.ASN]float64, events []Event) []Report {
	out := make([]Report, 0, len(events))
	for _, ev := range events {
		rep := Report{Event: ev}
		if w.VRPs != nil {
			rep.RPKICovered = w.VRPs.CoversPrefix(ev.Prefix)
		}

		// Inject the hijack as a route event: the engine scopes the
		// re-convergence to the announced prefix.
		w.Apply(core.Msg{Events: []bgp.RouteEvent{{Kind: bgp.EvAnnounce, AS: ev.Attacker, Prefix: ev.Prefix}}})

		// Blast radius: ASes whose best route for the hijacked prefix leads
		// to the attacker.
		for _, asn := range w.Topo.ASNs {
			if r, ok := w.Graph.AS(asn).BestRoute(ev.Prefix); ok && r.Origin() == ev.Attacker {
				rep.SpreadASes++
			}
		}

		// Observed path: the collector's view of the hijacked announcement.
		view := w.Collector.Snapshot(w.Graph)
		for _, r := range view.Routes(ev.Prefix) {
			if r.Origin() != ev.Attacker {
				continue
			}
			rep.PathLen = len(r.Path)
			for _, hop := range r.Path {
				if hop == ev.Attacker {
					continue
				}
				if s, ok := scores[hop]; ok {
					rep.PathScored++
					if s > rep.MaxScore {
						rep.MaxScore = s
					}
					if s > 90 {
						rep.HighScoreOnPath = true
					}
				}
			}
			rep.AllScored = rep.PathLen > 1 && rep.PathScored == rep.PathLen-1
			break
		}

		// Withdraw the hijack and restore routing (the withdraw event
		// re-converges the same prefix cone back to its pre-hijack state —
		// the restoration regression test pins bit-identity down).
		w.Apply(core.Msg{Events: []bgp.RouteEvent{{Kind: bgp.EvWithdraw, AS: ev.Attacker, Prefix: ev.Prefix}}})
		out = append(out, rep)
	}
	return out
}

// Summary aggregates reports the way §7.5 does.
type Summary struct {
	Total            int
	RPKICovered      int
	CoveredAllScored int // covered events with full path score info
	// CoveredHighScore: covered events that nevertheless crossed a >90%
	// AS (customers exempted from filtering).
	CoveredHighScore int
	// UncoveredHighScore: uncovered events that crossed a >90% AS — the
	// attacks a ROA would have prevented.
	UncoveredHighScore int
	// MeanSpreadCovered / MeanSpreadUncovered compare blast radii.
	MeanSpreadCovered, MeanSpreadUncovered float64
}

// Summarize folds reports into the paper's headline quantities.
func Summarize(reports []Report) Summary {
	var s Summary
	nCov, nUncov := 0, 0
	for _, r := range reports {
		s.Total++
		if r.RPKICovered {
			s.RPKICovered++
			nCov++
			s.MeanSpreadCovered += float64(r.SpreadASes)
			if r.AllScored {
				s.CoveredAllScored++
			}
			if r.HighScoreOnPath {
				s.CoveredHighScore++
			}
		} else {
			nUncov++
			s.MeanSpreadUncovered += float64(r.SpreadASes)
			if r.HighScoreOnPath {
				s.UncoveredHighScore++
			}
		}
	}
	if nCov > 0 {
		s.MeanSpreadCovered /= float64(nCov)
	}
	if nUncov > 0 {
		s.MeanSpreadUncovered /= float64(nUncov)
	}
	return s
}
