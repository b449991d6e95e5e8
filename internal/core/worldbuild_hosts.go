package core

import (
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/tcpsim"
	"github.com/netsec-lab/rovista/internal/topology"
)

// hostPlan is one pre-drawn host construction unit: everything a worker
// needs to build the host without touching the generator rng. The serial
// planning pass draws in the historical stream order; execution is free to
// run in any order because each plan fills exactly one slot of a
// plan-indexed slice.
type hostPlan struct {
	addr netip.Addr
	asn  inet.ASN
	pol  ipid.Policy
	seed int64
	rate float64
	// tnode hosts listen on 443/80; brokenMode ≥ 0 selects one of the
	// §4.1-violating behaviours (pre-drawn, since breaking draws from rng).
	tnode      bool
	brokenMode int
}

// build constructs the planned host. Pure function of the plan: safe to run
// from any worker.
func (p hostPlan) build() *netsim.Host {
	var h *netsim.Host
	if p.tnode {
		h = netsim.NewHost(p.addr, p.asn, p.pol, p.seed, 443, 80)
	} else {
		h = netsim.NewHost(p.addr, p.asn, p.pol, p.seed)
	}
	h.BackgroundRate = p.rate
	if p.brokenMode >= 0 {
		breakTNodeMode(h, p.brokenMode)
	}
	return h
}

// buildHosts attaches candidate end hosts to every AS and tNode hosts under
// each invalid prefix. Planning (all rng draws) is serial; host synthesis —
// TCP endpoint and counter construction, the bulk of the work at 50k+ ASes —
// fans out across the build workers; the merge attaches hosts in plan order
// so the network's host population and generation counter evolve exactly as
// in the serial build.
func (w *World) buildHosts() {
	var plans []hostPlan
	for _, asn := range w.Topo.ASNs {
		info := w.Topo.Info[asn]
		if len(info.Prefixes) == 0 {
			continue // transit-only AS (Topology.OriginFrac): no address space
		}
		base := info.Prefixes[0]
		for i := 0; i < w.Cfg.HostsPerAS; i++ {
			addr := inet.NthAddr(base, uint32(10+i))
			pol := w.samplePolicy()
			seed := w.nextHostSeed()
			plans = append(plans, hostPlan{
				addr: addr, asn: asn, pol: pol, seed: seed,
				rate: w.sampleBackground(), brokenMode: -1,
			})
		}
	}
	// tNode hosts live inside the wrong-origin AS, addressed from the
	// invalid prefix. Covered invalids carry a single tNode: their traffic
	// can be diverted by non-filtering transit (§7.4), and in the wild such
	// prefixes are a small minority of the tNode population (TDC reached 3
	// of its ~38 tNodes) — weighting them like ordinary invalids would
	// drown every filtering AS's score in collateral damage.
	for _, inv := range w.Invalids {
		perInv := max(1, w.Cfg.TNodesPerInvalid)
		if inv.Covered {
			perInv = 1
		}
		for i := 0; i < perInv; i++ {
			addr := inet.NthAddr(inv.Prefix, uint32(20+i))
			seed := w.nextHostSeed()
			rate := w.rng.Float64() * 3
			mode := -1
			if w.rng.Float64() < w.Cfg.TNodeBrokenFrac {
				mode = w.rng.Intn(3)
			}
			plans = append(plans, hostPlan{
				addr: addr, asn: inv.Origin, pol: ipid.Global, seed: seed,
				rate: rate, tnode: true, brokenMode: mode,
			})
		}
		if w.rng.Float64() < w.Cfg.InboundFilterFrac {
			// The wrong-origin AS egress-filters responses from the
			// invalid prefix (the paper's inbound-filtering confound).
			p := inv.Prefix
			prev := w.Net.EgressFilter[inv.Origin]
			w.Net.EgressFilter[inv.Origin] = func(pkt netsim.Packet) bool {
				if prev != nil && prev(pkt) {
					return true
				}
				return p.Contains(pkt.Src)
			}
		}
	}
	hosts := make([]*netsim.Host, len(plans))
	w.buildPool().ForEach(len(plans), func(i int) {
		hosts[i] = plans[i].build()
	})
	for _, h := range hosts {
		w.Net.AddHost(h)
	}
}

// breakTNodeMode gives a tNode host one of the §4.1-violating behaviours.
func breakTNodeMode(h *netsim.Host, mode int) {
	cfg := tcpsim.DefaultConfig(443, 80)
	switch mode {
	case 0: // never retransmits (fails qualification condition b)
		cfg.Behavior = tcpsim.NoRetransmit
		h.TCP = tcpsim.New(cfg)
	case 1: // keeps retransmitting after RST (fails condition c)
		cfg.Behavior = tcpsim.IgnoreRST
		h.TCP = tcpsim.New(cfg)
	default: // entirely silent (fails condition a)
		h.Handler = func(*netsim.Sim, netsim.Packet) bool { return true }
	}
}

// samplePolicy draws an IP-ID policy from the configured mix.
func (w *World) samplePolicy() ipid.Policy {
	r := w.rng.Float64()
	switch {
	case r < w.Cfg.GlobalCounterFrac:
		return ipid.Global
	case r < w.Cfg.GlobalCounterFrac+0.25:
		return ipid.PerDestination
	case r < w.Cfg.GlobalCounterFrac+0.40:
		return ipid.Random
	default:
		return ipid.Constant
	}
}

// sampleBackground draws a background rate from the low/med/high mix.
func (w *World) sampleBackground() float64 {
	r := w.rng.Float64()
	switch {
	case r < w.Cfg.BGLowFrac:
		return w.rng.Float64() * 9
	case r < w.Cfg.BGLowFrac+w.Cfg.BGMedFrac:
		return 10 + w.rng.Float64()*20
	default:
		return 30 + w.rng.Float64()*70
	}
}

// buildClients places the two measurement clients in clean (never-filtering,
// cleanly-uplinked) stub ASes far apart in the numbering: like the paper's
// clients, they must be able to reach the RPKI-invalid test prefixes.
func (w *World) buildClients(clean map[inet.ASN]bool) {
	// Clients need address space to live in, so transit-only ASes (worlds
	// with Topology.OriginFrac set) are never candidates.
	addressable := func(asn inet.ASN) bool { return len(w.Topo.Info[asn].Prefixes) > 0 }
	var stubASes []inet.ASN
	for _, asn := range w.Topo.ASNs {
		if w.Topo.Info[asn].Tier == topology.Stub && clean[asn] && addressable(asn) {
			stubASes = append(stubASes, asn)
		}
	}
	if len(stubASes) < 2 {
		// Fall back to any clean AS, then to any never-filtering AS: the
		// paper's clients just need reachability to the test prefixes and
		// the ability to spoof.
		for _, asn := range w.Topo.ASNs {
			if clean[asn] && addressable(asn) {
				stubASes = append(stubASes, asn)
			}
		}
	}
	if len(stubASes) < 2 {
		for _, asn := range w.Topo.ASNs {
			if w.Truth[asn].DeployDay < 0 && addressable(asn) {
				stubASes = append(stubASes, asn)
			}
		}
	}
	if len(stubASes) < 2 {
		panic("core: no never-filtering ASes available for measurement clients")
	}
	a, b := stubASes[0], stubASes[len(stubASes)-1]
	w.ClientA = netsim.NewHost(inet.NthAddr(w.Topo.Info[a].Prefixes[0], 250), a, ipid.Global, w.nextHostSeed())
	w.ClientB = netsim.NewHost(inet.NthAddr(w.Topo.Info[b].Prefixes[0], 250), b, ipid.Global, w.nextHostSeed())
	w.Net.AddHost(w.ClientA)
	w.Net.AddHost(w.ClientB)
}

// buildCollector wires a RouteViews-style collector fed by the tier-1
// clique plus a sample of tier-2s: realistic partial visibility.
func (w *World) buildCollector() {
	feeders := append([]inet.ASN(nil), w.Topo.Tier1...)
	for _, asn := range w.Topo.ASNs {
		if w.Topo.Info[asn].Tier == topology.Tier2 && w.rng.Float64() < 0.6 {
			feeders = append(feeders, asn)
		}
	}
	w.Collector = &collectors.Collector{Name: "routeviews", Feeders: feeders}
}

// sortedNeighbors returns an AS's neighbors in ascending order.
func sortedNeighbors(a *bgp.AS) []inet.ASN {
	out := make([]inet.ASN, 0, len(a.Neighbors))
	for n := range a.Neighbors {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
