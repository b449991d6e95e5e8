package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/seedmix"
	"github.com/netsec-lab/rovista/internal/topology"
)

// buildPool is the executor behind the world builder's plan/execute split
// (BuildWorkers wide; 0 means GOMAXPROCS): a serial planning pass performs
// every generator-rng draw in the canonical order (the draw stream is part
// of a world's identity), producing self-contained unit plans; the pool
// executes them, each writing only its own slot of a plan-indexed result;
// a serial merge applies results in plan order. Scheduling is
// nondeterministic but the result is not — a world built with any worker
// count is bit-for-bit identical to the serial build.
func (w *World) buildPool() *pipeline.Executor {
	n := w.Cfg.BuildWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &pipeline.Executor{Workers: n}
}

// buildStage tracks a WorldBuilder's progress through the canonical
// construction order.
type buildStage int

const (
	stageNew buildStage = iota
	stageRPKI
	stageROV
	stageInvalids
	stageHosts
	stageClients
	stageDone
)

// stageNames, indexed by the stage each method *advances to*.
var stageNames = [...]string{
	stageRPKI:     "RPKI",
	stageROV:      "ROVSchedule",
	stageInvalids: "Invalids",
	stageHosts:    "Hosts",
	stageClients:  "ClientsAndCollector",
	stageDone:     "Build",
}

// WorldBuilder assembles a World in explicit stages:
//
//	RPKI → ROVSchedule → Invalids → Hosts → ClientsAndCollector
//
// Each stage method runs exactly one focused builder (worldbuild_rpki.go,
// worldbuild_invalids.go, worldbuild_hosts.go) and returns the builder for
// chaining; Build runs whatever stages remain and returns the finished
// world. The order is load-bearing — the stages share one generator rng, so
// each draw's position in the stream is part of a world's identity — and the
// builder enforces it: calling a stage out of order panics, which is always
// a bug in construction code, never a recoverable condition.
//
// Most callers just use BuildWorld. The staged form exists for tests and
// experiments that want to inspect or perturb a world mid-construction
// (e.g. examine the adoption schedule before hosts exist).
type WorldBuilder struct {
	w     *World
	clean map[inet.ASN]bool
	stage buildStage
}

// NewWorldBuilder validates cfg and prepares an empty world: topology
// generated, routing graph wired, no RPKI, hosts, or schedules yet.
func NewWorldBuilder(cfg WorldConfig) (*WorldBuilder, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("core: non-positive timeline %d", cfg.Days)
	}
	w := &World{
		Cfg:            cfg,
		Topo:           topology.Generate(cfg.Topology),
		Authorities:    make(map[rpki.RIR]*rpki.Authority),
		Truth:          make(map[inet.ASN]*Truth),
		roaDayByPrefix: make(map[netip.Prefix]int),
		rng:            rand.New(rand.NewSource(cfg.Seed ^ 0x90b1)),
	}
	w.Graph = w.Topo.Graph
	w.Net = netsim.NewNetwork(w.Graph)
	return &WorldBuilder{w: w}, nil
}

// advance asserts the canonical order and moves the builder forward.
func (b *WorldBuilder) advance(to buildStage) {
	if b.stage != to-1 {
		panic(fmt.Sprintf("core: WorldBuilder.%s called at stage %d (stages must run in order)",
			stageNames[to], b.stage))
	}
	b.stage = to
}

// RPKI creates the RIR authorities, per-AS CAs, and the ROA schedule.
func (b *WorldBuilder) RPKI() *WorldBuilder {
	b.advance(stageRPKI)
	b.w.buildRPKI()
	return b
}

// ROVSchedule decides which ASes deploy ROV, when, and in what mode, then
// derives the clean (never-filtering, cleanly-uplinked) set the later
// stages place invalid origins and measurement clients in.
func (b *WorldBuilder) ROVSchedule() *WorldBuilder {
	b.advance(stageROV)
	b.w.buildROVSchedule()
	b.clean = b.w.cleanUpSet()
	b.w.Clean = b.clean
	return b
}

// Invalids schedules the misconfigured announcements and binds the
// default-route leaks and SLURM exceptions to concrete invalid prefixes.
func (b *WorldBuilder) Invalids() *WorldBuilder {
	b.advance(stageInvalids)
	b.w.buildInvalids(b.clean)
	b.w.applyDefaultLeaks()
	b.w.applySLURMExceptions()
	return b
}

// Hosts attaches candidate end hosts to every AS and tNode hosts under each
// invalid prefix.
func (b *WorldBuilder) Hosts() *WorldBuilder {
	b.advance(stageHosts)
	b.w.buildHosts()
	return b
}

// ClientsAndCollector places the two measurement clients and wires the
// RouteViews-style collector.
func (b *WorldBuilder) ClientsAndCollector() *WorldBuilder {
	b.advance(stageClients)
	b.w.buildClients(b.clean)
	b.w.buildCollector()
	// Fault arming is the last construction act: every host exists, and the
	// per-host split-counter decisions must be in place before any scan
	// (including the runner's cached vVP discovery) observes the network.
	if cfg := b.w.Cfg; cfg.Faults.Enabled() {
		b.w.Net.ArmFaults(cfg.Faults, seedmix.Mix(cfg.Seed, faults.StreamArm))
	}
	return b
}

// World returns the world under construction (useful between stages).
func (b *WorldBuilder) World() *World { return b.w }

// Build runs every remaining stage in order and returns the finished world.
func (b *WorldBuilder) Build() *World {
	for b.stage < stageClients {
		switch b.stage {
		case stageNew:
			b.RPKI()
		case stageRPKI:
			b.ROVSchedule()
		case stageROV:
			b.Invalids()
		case stageInvalids:
			b.Hosts()
		case stageHosts:
			b.ClientsAndCollector()
		}
	}
	b.stage = stageDone
	return b.w
}

// cleanUpSet returns the ASes that (a) never filter and (b) have a provider
// chain to a never-filtering tier-1 consisting entirely of never-filtering
// ASes. Invalid announcements originated inside this set propagate to the
// core and to every other member — the survivor bias behind the invalid
// prefixes RouteViews actually observes: misconfigurations behind filtering
// transit simply never become visible (or measurable).
func (w *World) cleanUpSet() map[inet.ASN]bool {
	neverFilters := func(asn inet.ASN) bool { return w.Truth[asn].DeployDay < 0 }

	// Guarantee at least one never-filtering tier-1 (the paper's Table 1
	// has exactly one: Deutsche Telekom) so the clean set is never empty.
	hasCleanT1 := false
	for _, t1 := range w.Topo.Tier1 {
		if neverFilters(t1) {
			hasCleanT1 = true
			break
		}
	}
	if !hasCleanT1 {
		flip := w.Topo.Tier1[len(w.Topo.Tier1)-1]
		w.Truth[flip] = &Truth{ASN: flip, DeployDay: -1, Kind: "none"}
	}

	// Pre-extract provider/customer adjacency once: the fixpoint below is
	// re-run after every flip, and rebuilding (and re-sorting) neighbor
	// lists inside it made the clean-set computation quadratic at 50k ASes.
	providers := make(map[inet.ASN][]inet.ASN, len(w.Topo.ASNs))
	customers := make(map[inet.ASN][]inet.ASN, len(w.Topo.ASNs))
	for _, asn := range w.Topo.ASNs {
		for nbr, rel := range w.Graph.AS(asn).Neighbors {
			switch rel {
			case bgp.Provider:
				providers[asn] = append(providers[asn], nbr)
			case bgp.Customer:
				customers[asn] = append(customers[asn], nbr)
			}
		}
	}

	// An AS is clean when it never filters and at least one of its
	// providers is clean — i.e. it is reachable from a clean tier-1 along
	// customer edges through never-filtering ASes. BFS computes the same
	// fixpoint as the old repeated sweep in one pass over the edges.
	propagate := func() map[inet.ASN]bool {
		clean := make(map[inet.ASN]bool)
		var queue []inet.ASN
		for _, t1 := range w.Topo.Tier1 {
			if neverFilters(t1) {
				clean[t1] = true
				queue = append(queue, t1)
			}
		}
		for len(queue) > 0 {
			asn := queue[0]
			queue = queue[1:]
			for _, c := range customers[asn] {
				if !clean[c] && neverFilters(c) {
					clean[c] = true
					queue = append(queue, c)
				}
			}
		}
		return clean
	}

	clean := propagate()
	// Guarantee a minimum never-filtering region: seeds where the adoption
	// draw isolates the non-filtering tier-1 would otherwise produce worlds
	// where invalid routes cannot propagate at all — unlike any real
	// Internet epoch. Flip filtering ASes adjacent to the clean region to
	// never-filter (deterministically, core-first) until it is big enough.
	minClean := max(len(w.Topo.ASNs)/20, 6)
	byRank := w.Topo.ByRank()
	for len(clean) < minClean {
		flipped := false
		// Edge-first: growing the region downward preserves the filtered
		// core (Table 1's 16/17) while restoring propagation.
		for i := len(byRank) - 1; i >= 0; i-- {
			asn := byRank[i]
			if neverFilters(asn) {
				continue
			}
			adjacent := false
			for _, p := range providers[asn] {
				if clean[p] {
					adjacent = true
					break
				}
			}
			if !adjacent {
				continue
			}
			w.Truth[asn] = &Truth{ASN: asn, DeployDay: -1, Kind: "none"}
			flipped = true
			break
		}
		if !flipped {
			break
		}
		clean = propagate()
	}
	return clean
}
