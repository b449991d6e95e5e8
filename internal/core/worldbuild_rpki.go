package core

import (
	"fmt"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/topology"
)

// buildRPKI creates the five RIR authorities, one CA per AS, and the ROA
// schedule (encoded in the objects' NotBefore days).
//
// Object emission runs one worker per RIR: an Authority is entirely
// self-contained (per-subject key derivation seeded from issuance order
// *within* that authority, serial numbers counted per repository, no shared
// rng), so as long as each RIR's objects are issued in the same relative
// order as the serial build, the five repositories come out bit-for-bit
// identical at any worker count. The generator-rng draws for the ROA
// schedule all happen in a serial planning pass, in the historical order.
func (w *World) buildRPKI() {
	horizon := w.Cfg.Days + 1
	// Per-RIR CA issuance plans, in global ASN order (the per-authority
	// order the serial build used).
	byRIR := make(map[rpki.RIR][]inet.ASN, len(rpki.AllRIRs))
	for _, asn := range w.Topo.ASNs {
		r := w.Topo.Info[asn].RIR
		byRIR[r] = append(byRIR[r], asn)
	}
	auths := make([]*rpki.Authority, len(rpki.AllRIRs))
	w.buildPool().ForEach(len(rpki.AllRIRs), func(i int) {
		r := rpki.AllRIRs[i]
		var res rpki.ResourceSet
		// Each RIR holds its forty /8 blocks; grant a generous ASN range.
		for j := 0; j < 40; j++ {
			base := 8 + int(r)*40 + j
			res.Prefixes = append(res.Prefixes, netip.PrefixFrom(inet.V4(uint32(base)<<24), 8))
		}
		res.ASNs = []rpki.ASNRange{{Lo: 1, Hi: 1 << 30}}
		auth := rpki.NewAuthority(r, w.Cfg.Seed+int64(r), res, 0, horizon)
		// One CA per AS holding its allocated prefixes.
		for _, asn := range byRIR[r] {
			subject := fmt.Sprintf("as%d", asn)
			_, err := auth.IssueCA(subject, "", rpki.ResourceSet{Prefixes: w.Topo.Info[asn].Prefixes}, 0, horizon)
			if err != nil {
				panic(fmt.Sprintf("core: issuing CA for %v: %v", asn, err))
			}
		}
		auths[i] = auth
	})
	for i, r := range rpki.AllRIRs {
		w.Authorities[r] = auths[i]
	}
	// ROA schedule: a random subset of prefixes is covered from day 0, the
	// rest of the target set phases in linearly. Plan serially (shuffle and
	// day draws in the historical stream order), then emit per RIR.
	type slot struct {
		asn inet.ASN
		p   netip.Prefix
		day int
	}
	var all []slot
	for _, asn := range w.Topo.ASNs {
		for _, p := range w.Topo.Info[asn].Prefixes {
			all = append(all, slot{asn: asn, p: p})
		}
	}
	w.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	nStart := int(w.Cfg.ROACoverStart * float64(len(all)))
	nEnd := int(w.Cfg.ROACoverEnd * float64(len(all)))
	if nEnd > len(all) {
		nEnd = len(all)
	}
	roaPlans := make(map[rpki.RIR][]slot, len(rpki.AllRIRs))
	for i := 0; i < nEnd; i++ {
		s := all[i]
		if i >= nStart {
			s.day = 1 + w.rng.Intn(w.Cfg.Days-1)
		}
		r := w.Topo.Info[s.asn].RIR
		roaPlans[r] = append(roaPlans[r], s)
		w.roaDayByPrefix[s.p] = s.day
	}
	w.buildPool().ForEach(len(rpki.AllRIRs), func(i int) {
		r := rpki.AllRIRs[i]
		auth := w.Authorities[r]
		for _, s := range roaPlans[r] {
			_, err := auth.IssueROA(fmt.Sprintf("as%d", s.asn), s.asn,
				[]rpki.ROAPrefix{{Prefix: s.p, MaxLength: s.p.Bits()}}, s.day, horizon)
			if err != nil {
				panic(fmt.Sprintf("core: issuing ROA for %v: %v", s.asn, err))
			}
		}
	})
}

// buildROVSchedule decides which ASes deploy ROV, when, and in what mode.
// Adoption is strongly tier-weighted, matching the paper's observation that
// the core filters far more than the edge (Table 1: 16 of 17 tier-1s have a
// 100% score). A well-filtered core also contains invalid more-specifics,
// which is what keeps collateral damage (§7.4) the exception rather than
// the rule.
func (w *World) buildROVSchedule() {
	byRank := w.Topo.ByRank()
	n := len(byRank)
	nEnd := int(w.Cfg.ROVEnd * float64(n))
	nStart := int(w.Cfg.ROVStart * float64(n))

	// Calibrated against the paper's aggregate shape: a near-universally
	// filtering clique (Table 1), but a transit layer whose spotty adoption
	// lets invalid routes propagate widely — without that, collateral
	// benefit over-protects the edge and "fully protected" swells far past
	// the paper's 12.3%.
	tierProb := map[topology.Tier]float64{
		topology.Tier2: 0.40,
		topology.Tier3: 0.22,
		topology.Stub:  0.10,
	}
	// Scale edge probabilities so the expected adopter count matches the
	// configured end-of-timeline fraction; tier-1/2 rates stay put (the
	// clique's near-universal deployment is structural, not a dial).
	fixed, scalable := float64(len(w.Topo.Tier1)-1), 0.0
	for _, asn := range byRank {
		tier := w.Topo.Info[asn].Tier
		if tier == topology.Tier2 {
			fixed += tierProb[tier]
		} else if tier != topology.Tier1 {
			scalable += tierProb[tier]
		}
	}
	scale := 1.0
	if scalable > 0 {
		scale = (float64(nEnd) - fixed) / scalable
		if scale < 0 {
			scale = 0
		}
	}
	// The clique adopts deterministically with exactly one holdout — the
	// paper's Table 1 shape (16 of 17 protected; Deutsche Telekom at 0%).
	holdout := w.Topo.Tier1[w.rng.Intn(len(w.Topo.Tier1))]
	var adopters []inet.ASN
	for _, asn := range byRank {
		tier := w.Topo.Info[asn].Tier
		if tier == topology.Tier1 {
			if asn != holdout {
				adopters = append(adopters, asn)
				w.Truth[asn] = &Truth{ASN: asn, DeployDay: 0}
			}
			continue
		}
		p := tierProb[tier]
		if tier == topology.Tier3 || tier == topology.Stub {
			p *= scale
		}
		if w.rng.Float64() < p {
			adopters = append(adopters, asn)
			w.Truth[asn] = &Truth{ASN: asn, DeployDay: 0}
		}
	}
	// Assign deployment days: the first nStart filter from day 0.
	w.rng.Shuffle(len(adopters), func(i, j int) { adopters[i], adopters[j] = adopters[j], adopters[i] })
	for i, asn := range adopters {
		tr := w.Truth[asn]
		if i >= nStart {
			tr.DeployDay = 1 + w.rng.Intn(w.Cfg.Days-1)
		}
		roll := w.rng.Float64()
		switch {
		case w.Topo.Info[asn].Tier == topology.Tier1:
			// In a compressed topology every tier-1's customer cone contains
			// some invalid origin, so an exempting tier-1 would leak most
			// test prefixes — unlike the real clique, where the paper's
			// exempting tier-1s still measured 100% because the observed
			// invalid origins were not on their customer paths. Keep the
			// clique's adopters full-filtering; exemptions live in the
			// transit tiers (and scenario casts set them explicitly).
			tr.Policy, tr.Kind = rov.Full(), "full"
		case roll < w.Cfg.CustomerExemptFrac:
			tr.Policy, tr.Kind = rov.CustomerExempt(), "customer-exempt"
		case roll < w.Cfg.CustomerExemptFrac+w.Cfg.PreferValidFrac:
			tr.Policy, tr.Kind = rov.PreferValid(), "prefer-valid"
		case roll < w.Cfg.CustomerExemptFrac+w.Cfg.PreferValidFrac+w.Cfg.EquipmentIssueFrac:
			// A full deployment minus one router: the session toward one
			// random neighbor bypasses validation entirely.
			nbrs := sortedNeighbors(w.Graph.AS(asn))
			if len(nbrs) > 0 {
				bad := nbrs[w.rng.Intn(len(nbrs))]
				tr.Policy = &rov.Policy{Default: rov.ModeDrop, ByASN: map[inet.ASN]rov.Mode{bad: rov.ModeAccept}}
				tr.Kind = "equipment-partial"
				tr.PartialNeighbor = bad
			} else {
				tr.Policy, tr.Kind = rov.Full(), "full"
			}
		default:
			tr.Policy, tr.Kind = rov.Full(), "full"
		}
		if w.Topo.Info[asn].Tier != topology.Tier1 && w.rng.Float64() < w.Cfg.RollbackFrac {
			// Equipment-driven rollbacks (the BIT story) happen at the edge;
			// a clique member retracting would dominate a compressed world.
			tr.RollbackDay = tr.DeployDay + 1 + w.rng.Intn(w.Cfg.Days-tr.DeployDay)
		}
		if w.rng.Float64() < w.Cfg.DefaultRouteLeakFrac {
			tr.DefaultLeak = true // wired up after invalids exist
		} else if w.rng.Float64() < w.Cfg.SLURMExceptionFrac {
			// Marked now, bound to a concrete invalid prefix once the
			// invalid schedule exists (applySLURMExceptions).
			tr.SLURMException = netip.PrefixFrom(inet.V4(0), 0)
		}
	}
	// Fill in non-adopters.
	for _, asn := range w.Topo.ASNs {
		if w.Truth[asn] == nil {
			w.Truth[asn] = &Truth{ASN: asn, DeployDay: -1, Kind: "none"}
		}
	}
}
