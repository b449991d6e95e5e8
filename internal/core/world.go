// Package core assembles the full RoVista system: it builds simulated
// Internets (topology + RPKI + hosts + adoption schedules), advances them
// through time, and runs the complete measurement pipeline — collector
// snapshots, tNode selection, vVP discovery, IP-ID side-channel rounds, and
// ROV protection scoring — reproducing the system of §3–§6 of the paper.
package core

import (
	"fmt"
	"math/rand"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/collectors"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/topology"
)

// WorldConfig controls world generation. Fractions are in [0, 1].
type WorldConfig struct {
	Seed     int64
	Topology topology.Config

	// BuildWorkers caps the parallelism of the world-build stages (RPKI
	// object emission, host synthesis, cone computation); 0 means
	// GOMAXPROCS. Built worlds are bit-for-bit identical at any worker
	// count: all generator-rng draws happen in a serial planning pass and
	// workers only execute pre-drawn plans (see World.buildPool).
	BuildWorkers int

	// Days is the simulated timeline length (the paper measures ~628 days;
	// worlds usually compress this).
	Days int

	// HostsPerAS is the number of candidate end hosts attached per AS.
	HostsPerAS int
	// GlobalCounterFrac is the fraction of hosts with a global IP-ID
	// counter (vVP candidates); the rest split between per-destination,
	// random and constant counters.
	GlobalCounterFrac float64
	// BGLowFrac / BGMedFrac control the background-traffic mix: low is
	// U(0,10) pkt/s (usable), med U(10,30), the rest U(30,100).
	BGLowFrac, BGMedFrac float64

	// ROACoverStart/End: fraction of prefixes covered by a ROA at day 0 and
	// at Days (Figure 1 top grows 34% → 48%).
	ROACoverStart, ROACoverEnd float64

	// ROVStart/End: fraction of ASes filtering invalids at day 0 and Days;
	// adoption is rank-weighted (big ASes adopt more, §7.2).
	ROVStart, ROVEnd float64
	// CustomerExemptFrac / PreferValidFrac of adopters use those modes.
	CustomerExemptFrac, PreferValidFrac float64
	// RollbackFrac of adopters retract ROV mid-timeline (equipment issues,
	// the BIT story in §6.3.2).
	RollbackFrac float64
	// DefaultRouteLeakFrac of adopters keep a default route to a
	// non-validating provider (§7.6), capping their real protection.
	DefaultRouteLeakFrac float64
	// SLURMExceptionFrac of adopters carry an RFC 8416 local filter that
	// whitelists one invalid prefix (§7.1: operators use SLURM to keep
	// accepting specific RPKI-invalid routes).
	SLURMExceptionFrac float64
	// EquipmentIssueFrac of full adopters have routers that do not support
	// ROV on one neighbor session (the NTT story in §7.6: ~900 invalids
	// kept propagating through unsupporting routers).
	EquipmentIssueFrac float64

	// InvalidAnnouncements is the number of persistent misconfigured
	// announcements of *unannounced* (but ROA-covered) space — the dominant
	// real-world shape of exclusively-invalid prefixes: a filtering AS
	// simply has no route to them.
	InvalidAnnouncements int
	// CoveredInvalidAnnouncements carve a sub-prefix out of space whose
	// covering prefix the victim legitimately announces; they stay
	// exclusively invalid, but traffic from filtering ASes follows the
	// covering route and can be diverted by non-filtering transit — the
	// §7.4 collateral-damage generator.
	CoveredInvalidAnnouncements int
	// SharedInvalidAnnouncements are invalid announcements whose prefix the
	// legitimate owner also announces — reachable from ROV ASes and
	// therefore unusable as test prefixes (§3.2's false-tNode hazard).
	SharedInvalidAnnouncements int
	// TNodesPerInvalid hosts per invalid prefix.
	TNodesPerInvalid int
	// TNodeBrokenFrac of tNode hosts violate the §4.1 qualification
	// conditions (no RTO, RST-ignoring, or silent).
	TNodeBrokenFrac float64
	// InboundFilterFrac of invalid-origin ASes egress-filter their tNodes'
	// responses (the paper's inbound-filtering case).
	InboundFilterFrac float64

	// Faults, when enabled, arms the fault-injection profile on the built
	// network as the final construction stage, so the stable per-host
	// perturbations (per-CPU counter splits) exist before any scan observes
	// the hosts. It is every round's profile: a Runner reads it off the
	// network and arms nothing. The zero value builds a clean world.
	Faults faults.Profile
}

// DefaultWorldConfig returns a mid-size world tuned so every phenomenon in
// the paper occurs at observable rates.
func DefaultWorldConfig(seed int64) WorldConfig {
	return WorldConfig{
		Seed:                        seed,
		Topology:                    topology.DefaultConfig(seed),
		Days:                        600,
		HostsPerAS:                  4,
		GlobalCounterFrac:           0.55,
		BGLowFrac:                   0.60,
		BGMedFrac:                   0.25,
		ROACoverStart:               0.34,
		ROACoverEnd:                 0.48,
		ROVStart:                    0.05,
		ROVEnd:                      0.14,
		CustomerExemptFrac:          0.12,
		PreferValidFrac:             0.05,
		RollbackFrac:                0.05,
		DefaultRouteLeakFrac:        0.05,
		SLURMExceptionFrac:          0.05,
		EquipmentIssueFrac:          0.05,
		InvalidAnnouncements:        14,
		CoveredInvalidAnnouncements: 2,
		SharedInvalidAnnouncements:  4,
		TNodesPerInvalid:            3,
		TNodeBrokenFrac:             0.2,
		InboundFilterFrac:           0.1,
	}
}

// SmallWorldConfig returns a fast world for tests.
func SmallWorldConfig(seed int64) WorldConfig {
	cfg := DefaultWorldConfig(seed)
	cfg.Topology = topology.Config{
		Seed:          seed,
		NumTier1:      4,
		NumTier2:      10,
		NumTier3:      30,
		NumStub:       80,
		PrefixesPerAS: 1.2,
		Tier2PeerProb: 0.3,
		Tier3PeerProb: 0.05,
		MultihomeProb: 0.4,
	}
	cfg.Days = 100
	cfg.HostsPerAS = 3
	cfg.InvalidAnnouncements = 6
	cfg.CoveredInvalidAnnouncements = 1
	cfg.SharedInvalidAnnouncements = 2
	return cfg
}

// WorldConfigByName resolves the -size names the commands share: small
// (124 ASes, tests), smoke (~200 ASes: quick enough for CI's daemon smoke,
// big enough that every endpoint has data), medium (400 ASes) and large
// (DefaultWorldConfig).
func WorldConfigByName(size string, seed int64) (WorldConfig, error) {
	switch size {
	case "small":
		return SmallWorldConfig(seed), nil
	case "smoke":
		cfg := SmallWorldConfig(seed)
		cfg.Topology = topology.Config{
			Seed: seed, NumTier1: 4, NumTier2: 16, NumTier3: 60, NumStub: 120,
			PrefixesPerAS: 1.2, Tier2PeerProb: 0.3, Tier3PeerProb: 0.04, MultihomeProb: 0.4,
		}
		return cfg, nil
	case "medium":
		cfg := DefaultWorldConfig(seed)
		cfg.Topology = topology.Config{
			Seed: seed, NumTier1: 6, NumTier2: 24, NumTier3: 90, NumStub: 280,
			PrefixesPerAS: 1.3, Tier2PeerProb: 0.3, Tier3PeerProb: 0.03, MultihomeProb: 0.45,
		}
		return cfg, nil
	case "large":
		return DefaultWorldConfig(seed), nil
	default:
		return WorldConfig{}, fmt.Errorf("core: unknown world size %q (want small, smoke, medium or large)", size)
	}
}

// BuildNamed resolves the measuring commands' shared flags — -size, -seed,
// -faults, -workers — into a built world, armed with the named profile, and
// the runner configuration that goes with it. The rounds take their
// robustness countermeasures from the armed profile (runner.go).
func BuildNamed(size string, seed int64, faultsName string, workers int) (*World, RunnerConfig, error) {
	cfg, err := WorldConfigByName(size, seed)
	if err != nil {
		return nil, RunnerConfig{}, err
	}
	if cfg.Faults, err = faults.ByName(faultsName); err != nil {
		return nil, RunnerConfig{}, err
	}
	w, err := BuildWorld(cfg)
	if err != nil {
		return nil, RunnerConfig{}, err
	}
	rcfg := DefaultRunnerConfig(seed)
	rcfg.Workers = workers
	return w, rcfg, nil
}

// LargeWorldConfig returns a paper-scale world: nASes ASes in a realistic
// tier split, with a fixed-size routed prefix population of ~250 regardless
// of scale (Topology.OriginFrac). That matches the paper's measurement
// shape — tens of thousands of vantage ASes ranked against a few hundred
// exclusively-invalid test prefixes — and it is what makes 50k+ ASes
// tractable: full-table state is ASes × prefixes, so growing both together
// is quadratic while growing vantage count alone is linear. One candidate
// host per originating AS keeps host synthesis proportional to the routed
// edge rather than the transit core.
func LargeWorldConfig(seed int64, nASes int) WorldConfig {
	cfg := DefaultWorldConfig(seed)
	nT1 := 10
	nT2 := max(nASes/100, 4)
	nT3 := max(nASes/12, 10)
	cfg.Topology = topology.Config{
		Seed:          seed,
		NumTier1:      nT1,
		NumTier2:      nT2,
		NumTier3:      nT3,
		NumStub:       max(nASes-nT1-nT2-nT3, 0),
		PrefixesPerAS: 1.0,
		OriginFrac:    250.0 / float64(nASes),
		Tier2PeerProb: 0.05,
		Tier3PeerProb: 0.005,
		MultihomeProb: 0.45,
	}
	cfg.Days = 100
	cfg.HostsPerAS = 1
	return cfg
}

// FullInternetConfig returns the full-Internet-scale preset: 74k ASes, the
// routed AS count the paper measures against. It is LargeWorldConfig at
// n = 74,000 — the same fixed ~250-prefix routed population, so full-table
// state stays ASes-linear and a from-scratch convergence plus event-driven
// incremental re-convergence fit comfortably in memory.
func FullInternetConfig(seed int64) WorldConfig {
	return LargeWorldConfig(seed, 74_000)
}

// Truth is the generator-side ground truth about one AS — what a perfectly
// informed operator survey would say (§6.3).
type Truth struct {
	ASN         inet.ASN
	Policy      *rov.Policy // the policy once (if ever) deployed
	DeployDay   int         // -1: never deploys
	RollbackDay int         // 0: never rolls back
	Kind        string      // "full", "customer-exempt", "prefer-valid", "none"
	DefaultLeak bool        // keeps a default route to a non-ROV provider
	// SLURMException, when valid, is an invalid prefix this AS locally
	// whitelists via an RFC 8416 filter (it validates as NotFound there).
	SLURMException netip.Prefix
	// PartialNeighbor, when nonzero, is a neighbor whose session bypasses
	// validation (a router that does not support ROV — equipment issues).
	PartialNeighbor inet.ASN
}

// DeployedAt reports whether the AS filters at the given day.
func (t *Truth) DeployedAt(day int) bool {
	if t.DeployDay < 0 || day < t.DeployDay {
		return false
	}
	if t.RollbackDay > 0 && day >= t.RollbackDay {
		return false
	}
	return true
}

// InvalidAnn is one misconfigured announcement in the schedule.
type InvalidAnn struct {
	Prefix   netip.Prefix
	Origin   inet.ASN // the wrong origin actually announcing
	Victim   inet.ASN // the resource holder named by the ROA
	StartDay int
	EndDay   int
	// Shared: the victim also announces the same prefix (false tNode).
	Shared bool
	// Covered: the victim announces a covering (less specific) prefix, so
	// traffic from filtering ASes still has somewhere to go (§7.4).
	Covered bool
}

// ActiveAt reports whether the announcement is active at the given day.
func (a InvalidAnn) ActiveAt(day int) bool { return day >= a.StartDay && day < a.EndDay }

// World is a fully built simulated Internet plus its evolution schedule.
type World struct {
	Cfg   WorldConfig
	Topo  *topology.Topology
	Graph *bgp.Graph
	Net   *netsim.Network

	Authorities map[rpki.RIR]*rpki.Authority
	VRPs        *rpki.VRPSet

	Truth    map[inet.ASN]*Truth
	Invalids []InvalidAnn

	// Clean is the set of never-filtering ASes with never-filtering chains
	// to the core: the ASes guaranteed to hear (and reach) in-the-wild
	// invalid announcements. The runner picks its non-ROV reference probes
	// here, like the paper picked RIPE Atlas probes it had verified could
	// reach tNodes.
	Clean map[inet.ASN]bool

	// ClientA and ClientB are the two measurement clients, in distinct
	// never-filtering ASes (the paper's two-vantage setup, §4.1).
	ClientA, ClientB *netsim.Host

	// Collector is the RouteViews-style vantage with partial visibility.
	Collector *collectors.Collector

	Day       int
	converged bool
	// lastDay is the day routing state was last advanced to; AdvanceTo
	// diffs the schedule between lastDay and the target day to emit only
	// the transition RouteEvents.
	lastDay int

	// rp is the world's relying party, kept across AdvanceTo calls so each
	// day verifies only the signatures that day introduced.
	rp rpki.RelyingParty

	roaDayByPrefix map[netip.Prefix]int
	rng            *rand.Rand
	hostSeq        int64
}

// BuildWorld constructs a world from cfg by running every builder stage in
// canonical order (see WorldBuilder in worldbuild.go). The world starts
// un-advanced; call AdvanceTo to reach a day and converge routing.
func BuildWorld(cfg WorldConfig) (*World, error) {
	b, err := NewWorldBuilder(cfg)
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// nextHostSeed derives per-host seeds. The derivation is part of a world's
// identity: every calibrated expectation downstream depends on host state,
// so it must never change for a given (seed, construction order).
func (w *World) nextHostSeed() int64 {
	w.hostSeq++
	return w.Cfg.Seed*31 + w.hostSeq
}

// AddCandidateHosts attaches n additional measurement-friendly hosts
// (global IP-ID counter, low background traffic) to an AS, guaranteeing it
// is observable by the vVP pipeline. Experiment casts use this the way the
// paper relies on ASes having enough qualifying hosts. The network's
// generation counter advances, so cached vVP discoveries refresh on the
// next round.
func (w *World) AddCandidateHosts(asn inet.ASN, n int) {
	info, ok := w.Topo.Info[asn]
	if !ok || len(info.Prefixes) == 0 {
		return
	}
	base := info.Prefixes[0]
	for i := 0; i < n; i++ {
		addr := inet.NthAddr(base, uint32(100+i))
		if _, ok := w.Net.HostAt(addr); ok {
			continue
		}
		h := netsim.NewHost(addr, asn, ipid.Global, w.nextHostSeed())
		h.BackgroundRate = 1 + float64(i%3)
		w.Net.AddHost(h)
	}
}
