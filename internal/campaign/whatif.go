package campaign

import (
	"fmt"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rov"
)

// maxWhatIfProbes caps the number of prefixes a single query evaluates.
const maxWhatIfProbes = 8

// WhatIfQuery is one counterfactual question against the live world.
type WhatIfQuery struct {
	// Action selects the counterfactual: "deploy-rov" (ASN adopts
	// drop-invalid filtering), "drop-route" (ASN loses its route for
	// Prefix), "hijack" (Attacker originates Prefix; if Victim is non-zero
	// the announcement forges Victim as wire origin), or "leak" (ASN starts
	// re-exporting provider/peer routes).
	Action   string
	ASN      inet.ASN
	Attacker inet.ASN
	Victim   inet.ASN
	Prefix   netip.Prefix
}

// PrefixImpact reports how one probed prefix's forwarding changed in the
// counterfactual world relative to the live one.
type PrefixImpact struct {
	Prefix string `json:"prefix"`
	Probe  string `json:"probe"`
	// ChangedOrigins counts ASes whose traffic toward Probe terminates at a
	// different origin than in the live world.
	ChangedOrigins int `json:"changed_origins"`
	// ExposedASes counts ASes whose traffic now terminates at the attacker
	// (hijack queries only).
	ExposedASes int `json:"exposed_ases"`
}

// WhatIfResult is the answer to a WhatIfQuery.
type WhatIfResult struct {
	Action string `json:"action"`
	// BaseVersion is the live graph's routing epoch the overlay forked from.
	BaseVersion uint64 `json:"base_version"`
	// MaterializedASes is how many of the overlay's ASes needed private
	// routing state; the rest still share the base world's memory.
	MaterializedASes int `json:"materialized_ases"`
	TotalASes        int `json:"total_ases"`
	// Re-convergence stats for the counterfactual batch.
	DirtyPrefixes int            `json:"dirty_prefixes"`
	Rounds        int            `json:"rounds"`
	ASesTouched   int            `json:"ases_touched"`
	Impacts       []PrefixImpact `json:"impacts"`
}

// WhatIfEngine answers counterfactual queries over copy-on-write overlays of
// a live world. Each query forks a fresh overlay, applies the counterfactual
// event batch there, and diffs forwarding against the base — the base graph
// is never written. Callers must serialize Query against base-world
// mutations (the overlay shares the base's memory and is only coherent while
// the base is frozen); rovistad holds its world mutex across both.
type WhatIfEngine struct {
	W *core.World
}

// Query answers one counterfactual. It performs only reads on the base
// world.
func (e *WhatIfEngine) Query(q WhatIfQuery) (*WhatIfResult, error) {
	events, probes, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	return e.answer(q, events, probes)
}

// answer applies the planned batch to a fresh overlay and diffs forwarding
// toward the probes against the base.
func (e *WhatIfEngine) answer(q WhatIfQuery, events []bgp.RouteEvent, probes []netip.Prefix) (*WhatIfResult, error) {
	ov := bgp.NewOverlay(e.W.Graph)
	var res bgp.EventResult
	var err error
	if q.Action == "drop-route" {
		// No event encodes a local route drop; edit the overlay's clone of
		// the AS directly (DropRoute materializes it first).
		if ov.Graph().AS(q.ASN).DropRoute(q.Prefix) {
			ov.Graph().BumpVersion()
			res.ASesTouched = 1
		}
	} else if res, err = ov.ApplyEvents(events); err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	out := &WhatIfResult{
		Action:           q.Action,
		BaseVersion:      e.W.Graph.Version(),
		MaterializedASes: ov.MaterializedASes(),
		TotalASes:        len(e.W.Topo.ASNs),
		DirtyPrefixes:    res.DirtyPrefixes,
		Rounds:           res.Rounds,
		ASesTouched:      res.ASesTouched,
	}
	og := ov.Graph()
	for _, p := range probes {
		probe := inet.NthAddr(p, 1)
		imp := PrefixImpact{Prefix: p.String(), Probe: probe.String()}
		for _, asn := range e.W.Topo.ASNs {
			b, bok := e.W.Graph.OriginOf(asn, probe)
			o, ook := og.OriginOf(asn, probe)
			if b != o || bok != ook {
				imp.ChangedOrigins++
			}
			if q.Action == "hijack" && ook && o == q.Attacker && asn != q.Attacker {
				imp.ExposedASes++
			}
		}
		out.Impacts = append(out.Impacts, imp)
	}
	return out, nil
}

// plan validates the query and builds its counterfactual event batch plus
// the prefixes whose forwarding the answer should diff.
func (e *WhatIfEngine) plan(q WhatIfQuery) ([]bgp.RouteEvent, []netip.Prefix, error) {
	switch q.Action {
	case "deploy-rov":
		if e.W.Graph.AS(q.ASN) == nil {
			return nil, nil, fmt.Errorf("whatif: unknown AS %v", q.ASN)
		}
		ev := bgp.RouteEvent{Kind: bgp.EvPolicyChange, AS: q.ASN, Policy: rov.Full(), VRPs: e.W.VRPs}
		return []bgp.RouteEvent{ev}, e.invalidProbes(), nil
	case "drop-route":
		if e.W.Graph.AS(q.ASN) == nil {
			return nil, nil, fmt.Errorf("whatif: unknown AS %v", q.ASN)
		}
		if !q.Prefix.IsValid() {
			return nil, nil, fmt.Errorf("whatif: drop-route needs a prefix")
		}
		return nil, []netip.Prefix{q.Prefix.Masked()}, nil
	case "hijack":
		if e.W.Graph.AS(q.Attacker) == nil {
			return nil, nil, fmt.Errorf("whatif: unknown attacker %v", q.Attacker)
		}
		if !q.Prefix.IsValid() {
			return nil, nil, fmt.Errorf("whatif: hijack needs a prefix")
		}
		ev := bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: q.Attacker, Prefix: q.Prefix}
		if q.Victim != 0 {
			ev.ForgedOrigin = q.Victim
		}
		return []bgp.RouteEvent{ev}, []netip.Prefix{q.Prefix.Masked()}, nil
	case "leak":
		if e.W.Graph.AS(q.ASN) == nil {
			return nil, nil, fmt.Errorf("whatif: unknown AS %v", q.ASN)
		}
		ev := bgp.RouteEvent{Kind: bgp.EvLeakChange, AS: q.ASN, Leak: true}
		probes := e.invalidProbes()
		if len(probes) == 0 {
			probes = e.originProbes(4)
		}
		return []bgp.RouteEvent{ev}, probes, nil
	default:
		return nil, nil, fmt.Errorf("whatif: unknown action %q (want deploy-rov, drop-route, hijack, or leak)", q.Action)
	}
}

// invalidProbes returns the prefixes of currently-active RPKI-invalid
// announcements — the routes a new ROV deployment would actually filter.
func (e *WhatIfEngine) invalidProbes() []netip.Prefix {
	var out []netip.Prefix
	for _, inv := range e.W.Invalids {
		if !inv.ActiveAt(e.W.Day) {
			continue
		}
		out = append(out, inv.Prefix.Masked())
		if len(out) == maxWhatIfProbes {
			break
		}
	}
	return out
}

// originProbes returns up to n legitimate origin prefixes as a fallback
// probe set.
func (e *WhatIfEngine) originProbes(n int) []netip.Prefix {
	var out []netip.Prefix
	for _, asn := range e.W.Topo.ASNs {
		for _, p := range e.W.Topo.Info[asn].Prefixes {
			out = append(out, p.Masked())
			if len(out) == n {
				return out
			}
		}
	}
	return out
}
