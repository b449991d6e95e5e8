package core

import (
	"fmt"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// Msg is one change to a live world, from a closed vocabulary: a day advance
// of the world's own schedule, a replacement VRP snapshot (an RTR delta sync)
// and a batch of route events. World.Apply interprets it. Seq and Time belong
// to the transport that carries it (the stream package's stages) and mean
// nothing to the world.
type Msg struct {
	// Seq is the message's sequence number within its producing stage.
	Seq uint64
	// Time is the message's position on the stream's virtual clock, in
	// seconds since stream start. The coalescer batches on this clock, not
	// the wall clock, so a replay is deterministic at any speed.
	Time float64
	// Events is the route-event batch (may be empty on pure VRP messages).
	Events []bgp.RouteEvent
	// VRPs, when non-nil, is a full replacement VRP snapshot, installed
	// with RefreshVRPViews before Events (which then carry the EvROAChange
	// dirty scope).
	VRPs *rpki.VRPSet
	// Serial is the RTR serial accompanying VRPs.
	Serial uint32
	// Advance marks a day message: the world moves to Day with AdvanceTo.
	Advance bool
	Day     int
}

// Apply installs one message in a fixed order: the day advance (AdvanceTo),
// then the VRP replacement (RefreshVRPViews), then Events as one
// Graph.ApplyEvents batch. After setup it, with its day case AdvanceTo, is
// the only way a live world changes, so the log of applied messages is its
// history; overlays and what-ifs fork the graph instead.
func (w *World) Apply(m Msg) error {
	if m.Advance {
		if err := w.AdvanceTo(m.Day); err != nil {
			return err
		}
	}
	if m.VRPs != nil {
		w.RefreshVRPViews(m.VRPs)
	}
	if len(m.Events) == 0 {
		return nil
	}
	_, err := w.Graph.ApplyEvents(m.Events)
	return err
}

// AdvanceTo moves the world to the given day. The relying party re-validates
// the repositories and every validating AS receives its (possibly
// SLURM-filtered) view of the day's VRPs; then, instead of re-converging
// every schedule participant, the day transition is diffed against the last
// advanced day and only the actual changes — ROV deployments or rollbacks,
// misconfigured announcements starting or stopping, ROAs whose validity
// window opened or closed — are applied as RouteEvents in one batch. The
// first call performs the full from-scratch convergence; repeated calls for
// the same day (the round driver's steady state) coalesce to nothing.
func (w *World) AdvanceTo(day int) error {
	if day < 0 || day > w.Cfg.Days {
		return fmt.Errorf("core: day %d outside timeline [0, %d]", day, w.Cfg.Days)
	}
	prevDay := w.lastDay
	first := !w.converged
	w.Day = day

	// Relying-party validation at this day. The relying party lives as long
	// as the world, so it re-checks every object's windows and resources but
	// verifies only signatures it has not seen good the day before.
	w.rp.Day = day
	repos := make([]*rpki.Repository, 0, len(w.Authorities))
	for _, r := range rpki.AllRIRs {
		repos = append(repos, w.Authorities[r].Repo)
	}
	vrps, _ := w.rp.Validate(repos)
	sameVRPs := vrps.Equal(w.VRPs)
	if sameVRPs {
		// Re-validating unchanged repositories (the round driver advancing
		// to the day it is on, or a day no ROA window opened or closed):
		// keep the set's identity, which everything derived from it is
		// stamped with.
		vrps = w.VRPs
	}
	w.VRPs = vrps

	var events []bgp.RouteEvent

	// ROV schedule. Only filtering ASes hold a VRP view: origin validation
	// at import costs a trie walk per announcement, and non-validating ASes
	// by definition do not perform it. Deployment flips travel as
	// policy-change events (the engine scopes their dirty set to the
	// prefixes with an Invalid origination); an AS whose deployment state
	// did not change has its view rebuilt from the new set — the views
	// differ at most by the day's ROA diff, which the roa-change event below
	// re-validates — and keeps the view it has when the set is the same one.
	for asn, tr := range w.Truth {
		a := w.Graph.AS(asn)
		deployed := tr.DeployedAt(day)
		switch {
		case first:
			a.Policy, a.VRPs = nil, nil
			if deployed {
				a.Policy, a.VRPs = tr.Policy, filteredView(tr, vrps)
			}
		case deployed != tr.DeployedAt(prevDay):
			ev := bgp.RouteEvent{Kind: bgp.EvPolicyChange, AS: asn}
			if deployed {
				ev.Policy, ev.VRPs = tr.Policy, filteredView(tr, vrps)
			}
			events = append(events, ev)
		case deployed && !sameVRPs:
			a.VRPs = filteredView(tr, vrps)
		}
	}

	// Misconfigured-announcement schedule: only start/stop transitions
	// become events; the engine coalesces them with everything else in the
	// batch.
	for _, inv := range w.Invalids {
		active := inv.ActiveAt(day)
		if first {
			w.setOriginated(inv.Origin, inv.Prefix, active)
			if inv.Shared {
				w.setOriginated(inv.Victim, inv.Prefix, active)
			}
			continue
		}
		if active == inv.ActiveAt(prevDay) {
			continue
		}
		kind := bgp.EvWithdraw
		if active {
			kind = bgp.EvAnnounce
		}
		events = append(events, bgp.RouteEvent{Kind: kind, AS: inv.Origin, Prefix: inv.Prefix})
		if inv.Shared {
			events = append(events, bgp.RouteEvent{Kind: kind, AS: inv.Victim, Prefix: inv.Prefix})
		}
	}

	// ROA validity windows that opened or closed between the two days travel
	// as one roa-change event: the engine re-converges every interned prefix
	// the listed space overlaps, which re-runs import-time validation exactly
	// where it can differ.
	var roaDiff []netip.Prefix
	if !first {
		for p, d0 := range w.roaDayByPrefix {
			if (prevDay >= d0) != (day >= d0) {
				roaDiff = append(roaDiff, p)
			}
		}
	}
	if len(roaDiff) > 0 {
		events = append(events, bgp.RouteEvent{Kind: bgp.EvROAChange, Prefixes: roaDiff})
	}

	// Converge: full the first time, one incremental event batch afterwards.
	if first {
		if _, err := w.Graph.Converge(); err != nil {
			return err
		}
		w.converged = true
	} else if len(events) > 0 {
		if _, err := w.Graph.ApplyEvents(events); err != nil {
			return err
		}
	}
	w.lastDay = day
	return nil
}

// coveringFilter widens an invalid /20 to the /16 that holds its covering
// ROA, so the SLURM filter removes the VRP that would invalidate it.
func coveringFilter(p netip.Prefix) netip.Prefix {
	wide, _ := p.Addr().Prefix(16)
	return wide
}

// filteredView computes one AS's view of the VRP set: the global set, minus
// any RFC 8416 local exception. VRPs covering the whitelisted prefix are
// filtered out of this AS's view, so the route validates NotFound and
// passes the filter (§7.1).
func filteredView(tr *Truth, vrps *rpki.VRPSet) *rpki.VRPSet {
	if !tr.SLURMException.IsValid() {
		return vrps
	}
	slurm := &rpki.SLURM{PrefixFilters: []rpki.PrefixFilter{{Prefix: coveringFilter(tr.SLURMException)}}}
	return slurm.Apply(vrps)
}

// RefreshVRPViews replaces the world's VRP set — e.g. with a snapshot
// synchronized from a live RTR cache — and refreshes the (possibly
// SLURM-filtered) view of every AS currently deploying ROV. It does not
// re-converge: the roa-change events naming the prefixes whose validity may
// have changed travel in the same Msg, which Apply installs right after. Its
// one caller besides Apply is the benchmark's traced copy of the sink.
func (w *World) RefreshVRPViews(vrps *rpki.VRPSet) {
	w.VRPs = vrps
	for asn, tr := range w.Truth {
		if !tr.DeployedAt(w.Day) {
			continue
		}
		w.Graph.AS(asn).VRPs = filteredView(tr, vrps)
	}
}

// setOriginated adds or removes p from asn's originated prefixes.
func (w *World) setOriginated(asn inet.ASN, p netip.Prefix, active bool) {
	a := w.Graph.AS(asn)
	idx := -1
	for i, own := range a.Originated {
		if own == p {
			idx = i
			break
		}
	}
	switch {
	case active && idx < 0:
		a.Originated = append(a.Originated, p)
	case !active && idx >= 0:
		a.Originated = append(a.Originated[:idx], a.Originated[idx+1:]...)
	}
}
