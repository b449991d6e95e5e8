package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// baseFingerprint captures the base graph's routing state at byte level:
// every Adj-RIB-In cell, Loc-RIB index and spill entry by value (announcement
// pointers included, so even an in-place rewrite with equal contents would
// show), plus the epoch machinery and prefix table position. Overlay
// isolation means this is exactly equal before and after any overlay work.
type baseFingerprint struct {
	version, floor uint64
	tabLen         int
	tabGen         uint64
	affected       []uint64
	adjIn          map[inet.ASN][]adjCell
	best           map[inet.ASN][]uint16
	spill          map[inet.ASN][]route
	originated     map[inet.ASN][]netip.Prefix
	leaking        map[inet.ASN]bool
	forged         map[inet.ASN]map[netip.Prefix]inet.ASN
}

func fingerprintGraph(t *testing.T, g *Graph) baseFingerprint {
	checkBestInvariant(t, "fingerprint", g, false, false)
	fp := baseFingerprint{
		version:    g.version,
		floor:      g.affectedFloor,
		tabLen:     g.tab.Len(),
		tabGen:     g.tab.gen,
		affected:   append([]uint64(nil), g.affected...),
		adjIn:      make(map[inet.ASN][]adjCell),
		best:       make(map[inet.ASN][]uint16),
		spill:      make(map[inet.ASN][]route),
		originated: make(map[inet.ASN][]netip.Prefix),
		leaking:    make(map[inet.ASN]bool),
		forged:     make(map[inet.ASN]map[netip.Prefix]inet.ASN),
	}
	for asn, a := range g.ASes {
		fp.adjIn[asn] = append([]adjCell(nil), a.adjIn...)
		fp.best[asn] = append([]uint16(nil), a.best...)
		fp.spill[asn] = slices.Concat(a.spill...)
		fp.originated[asn] = append([]netip.Prefix(nil), a.Originated...)
		fp.leaking[asn] = a.Leaking
		if len(a.forged) > 0 {
			m := make(map[netip.Prefix]inet.ASN, len(a.forged))
			for p, o := range a.forged {
				m[p] = o
			}
			fp.forged[asn] = m
		}
	}
	return fp
}

func diffFingerprints(t *testing.T, label string, want, got baseFingerprint) {
	t.Helper()
	if want.version != got.version || want.floor != got.floor {
		t.Fatalf("%s: version/floor moved: %d/%d -> %d/%d", label, want.version, want.floor, got.version, got.floor)
	}
	if want.tabLen != got.tabLen || want.tabGen != got.tabGen {
		t.Fatalf("%s: prefix table moved: len %d->%d gen %d->%d", label, want.tabLen, got.tabLen, want.tabGen, got.tabGen)
	}
	if len(want.affected) != len(got.affected) {
		t.Fatalf("%s: affected length %d -> %d", label, len(want.affected), len(got.affected))
	}
	for i := range want.affected {
		if want.affected[i] != got.affected[i] {
			t.Fatalf("%s: affected[%d] %d -> %d", label, i, want.affected[i], got.affected[i])
		}
	}
	for asn := range want.adjIn {
		if la, lb := len(want.adjIn[asn]), len(got.adjIn[asn]); la != lb {
			t.Fatalf("%s: AS %v adjIn length %d -> %d", label, asn, la, lb)
		}
		for i := range want.adjIn[asn] {
			if want.adjIn[asn][i] != got.adjIn[asn][i] {
				t.Fatalf("%s: AS %v adjIn[%d] changed", label, asn, i)
			}
		}
		if !slices.Equal(want.best[asn], got.best[asn]) {
			t.Fatalf("%s: AS %v Loc-RIB index changed", label, asn)
		}
		for i := range want.spill[asn] {
			if want.spill[asn][i] != got.spill[asn][i] {
				t.Fatalf("%s: AS %v spill[%d] changed", label, asn, i)
			}
		}
		if la, lb := len(want.originated[asn]), len(got.originated[asn]); la != lb {
			t.Fatalf("%s: AS %v originated %d -> %d prefixes", label, asn, la, lb)
		}
		for i := range want.originated[asn] {
			if want.originated[asn][i] != got.originated[asn][i] {
				t.Fatalf("%s: AS %v originated[%d] changed", label, asn, i)
			}
		}
		if want.leaking[asn] != got.leaking[asn] {
			t.Fatalf("%s: AS %v leaking %v -> %v", label, asn, want.leaking[asn], got.leaking[asn])
		}
		if len(want.forged[asn]) != len(got.forged[asn]) {
			t.Fatalf("%s: AS %v forged map changed", label, asn)
		}
	}
}

// originsOf returns the ASNs that originate at least one prefix, sorted.
func originsOf(g *Graph) (asns []inet.ASN, prefixes []netip.Prefix) {
	for _, asn := range sortedASNsIn(g) {
		a := g.AS(asn)
		if len(a.Originated) > 0 {
			asns = append(asns, asn)
			prefixes = append(prefixes, a.Originated...)
		}
	}
	return asns, prefixes
}

// whatIfVRPs draws a VRP view over the graph's originated prefixes: about
// half are covered, four in five of those by a VRP naming the real
// originator, so a deployment meets Valid, Invalid and NotFound routes.
func whatIfVRPs(g *Graph, rng *rand.Rand) *rpki.VRPSet {
	asns := sortedASNsIn(g)
	var vrps []rpki.VRP
	for _, asn := range asns {
		for _, p := range g.AS(asn).Originated {
			if rng.Intn(2) == 0 {
				continue
			}
			origin := asn
			if rng.Intn(5) == 0 {
				origin = asns[rng.Intn(len(asns))]
			}
			vrps = append(vrps, rpki.VRP{ASN: origin, Prefix: p, MaxLength: p.Bits()})
		}
	}
	return rpki.NewVRPSet(vrps)
}

// rovHierarchy is randomHierarchy with ROV already deployed at three ASes,
// so a what-if policy event can replace or roll back a non-empty view as
// well as install the first one.
func rovHierarchy(t *testing.T, seed int64) *Graph {
	t.Helper()
	g := randomHierarchy(seed)
	rng := rand.New(rand.NewSource(seed * 7001))
	asns := sortedASNsIn(g)
	vrps := whatIfVRPs(g, rng)
	var evs []RouteEvent
	for _, pol := range testPolicies {
		evs = append(evs, RouteEvent{Kind: EvPolicyChange, AS: asns[rng.Intn(len(asns))], Policy: pol, VRPs: vrps})
	}
	if _, err := g.ApplyEvents(evs); err != nil {
		t.Fatal(err)
	}
	return g
}

// randomWhatIfBatch builds one randomized counterfactual event batch: origin
// hijacks, subprefix hijacks, forged-origin hijacks, leak toggles, policy
// flips (deployments over a fresh view and rollbacks) and link additions,
// against the graph's live origins.
func randomWhatIfBatch(g *Graph, rng *rand.Rand) []RouteEvent {
	asns := sortedASNsIn(g)
	origins, prefixes := originsOf(g)
	victim := origins[rng.Intn(len(origins))]
	vp := prefixes[rng.Intn(len(prefixes))]
	attacker := asns[rng.Intn(len(asns))]
	var evs []RouteEvent
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(7) {
		case 0: // exact-prefix origin hijack
			evs = append(evs, RouteEvent{Kind: EvAnnounce, AS: attacker, Prefix: vp})
		case 1: // subprefix hijack (interns a new, more specific prefix)
			sub := netip.PrefixFrom(inet.NthAddr(vp, uint32(rng.Intn(200))), 24)
			evs = append(evs, RouteEvent{Kind: EvAnnounce, AS: attacker, Prefix: sub})
		case 2: // forged-origin hijack
			evs = append(evs, RouteEvent{Kind: EvAnnounce, AS: attacker, Prefix: vp, ForgedOrigin: victim})
		case 3: // route leak
			evs = append(evs, RouteEvent{Kind: EvLeakChange, AS: attacker, Leak: rng.Intn(2) == 0})
		case 4: // ROV deployment
			evs = append(evs, RouteEvent{
				Kind: EvPolicyChange, AS: asns[rng.Intn(len(asns))],
				Policy: testPolicies[rng.Intn(len(testPolicies))], VRPs: whatIfVRPs(g, rng),
			})
		case 5: // new adjacency
			a, b := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
			if a != b {
				evs = append(evs, RouteEvent{Kind: EvLinkChange, AS: a, Peer: b, Rel: Peer})
			}
		case 6: // ROV rollback, at a deploying AS when there is one
			asn := asns[rng.Intn(len(asns))]
			for _, cand := range asns {
				if g.AS(cand).Policy != nil && rng.Intn(2) == 0 {
					asn = cand
				}
			}
			evs = append(evs, RouteEvent{Kind: EvPolicyChange, AS: asn})
		}
	}
	return evs
}

// TestOverlayIsolationProperty is the overlay's headline guarantee: any
// randomized sequence of what-if queries — each forking an overlay, applying
// an adversarial event batch, and reading data-plane answers from it — leaves
// the base graph's routing state byte-identical, down to announcement
// pointers and epoch arrays.
func TestOverlayIsolationProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := rovHierarchy(t, seed)
		rng := rand.New(rand.NewSource(seed * 977))
		before := fingerprintGraph(t, g)
		baseAnswers := collectAnswers(g)
		for q := 0; q < 8; q++ {
			ov := NewOverlay(g)
			if ov.Stale() {
				t.Fatal("fresh overlay reports stale")
			}
			res, err := ov.ApplyEvents(randomWhatIfBatch(g, rng))
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, q, err)
			}
			// Force data-plane reads through the overlay (LPM walks, path
			// computation) — these must not fault or write shared state.
			collectAnswers(ov.Graph())
			checkBestInvariant(t, fmt.Sprintf("seed %d overlay %d", seed, q), ov.Graph(), false,
				res.DirtyPrefixes == ov.Graph().Prefixes().Len())
		}
		diffFingerprints(t, fmt.Sprintf("seed %d", seed), before, fingerprintGraph(t, g))
		// The base must still answer identically, not just hold equal bytes.
		after := collectAnswers(g)
		if len(after) != len(baseAnswers) {
			t.Fatalf("seed %d: answer count changed", seed)
		}
		for k, v := range baseAnswers {
			if after[k] != v {
				t.Fatalf("seed %d: base answer %s changed: %v -> %v", seed, k, v, after[k])
			}
		}
	}
}

// collectAnswers reads a deterministic sample of data-plane answers.
func collectAnswers(g *Graph) map[string]inet.ASN {
	out := make(map[string]inet.ASN)
	asns := sortedASNsIn(g)
	_, prefixes := originsOf(g)
	for i, src := range asns {
		for j, p := range prefixes {
			if (i+j)%5 != 0 {
				continue
			}
			dst := inet.NthAddr(p, 1)
			origin, ok := g.OriginOf(src, dst)
			if !ok {
				origin = 0
			}
			out[fmt.Sprintf("%v->%v", src, dst)] = origin
		}
	}
	return out
}

// TestOverlayEqualsCloneAndMutateRebuild: a what-if answer computed on the
// copy-on-write overlay must equal the answer from a from-scratch rebuild —
// an identically-constructed world with the same events applied directly and
// then converged in full, so the reference owes nothing to the event
// engine's dirty scoping or in-place validity refresh.
func TestOverlayEqualsCloneAndMutateRebuild(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := rovHierarchy(t, seed)
		rng := rand.New(rand.NewSource(seed * 31337))
		batch := randomWhatIfBatch(g, rng)

		ov := NewOverlay(g)
		if _, err := ov.ApplyEvents(batch); err != nil {
			t.Fatalf("overlay apply: %v", err)
		}

		ref := rovHierarchy(t, seed) // identical build
		if _, err := ref.ApplyEvents(batch); err != nil {
			t.Fatalf("direct apply: %v", err)
		}
		if _, err := ref.Converge(); err != nil {
			t.Fatal(err)
		}
		diffWorlds(t, fmt.Sprintf("seed %d", seed), snapshotWorld(ref), snapshotWorld(ov.Graph()))
	}
}

// TestForgedOriginEvadesROV: a plain hijack is dropped by an ROV-deploying
// AS, but the forged-origin variant validates (the wire origin is the ROA's
// ASN) and diverts traffic to the attacker anyway.
func TestForgedOriginEvadesROV(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		g.Link(1, 2, Customer)
		g.Link(1, 3, Customer)
		g.Link(2, 4, Customer) // victim
		g.Link(3, 5, Customer) // attacker
		g.AS(4).Originated = []netip.Prefix{pfx("10.4.0.0/16")}
		vrps := rpki.NewVRPSet([]rpki.VRP{{ASN: 4, Prefix: pfx("10.4.0.0/16"), MaxLength: 16}})
		g.AS(2).Policy, g.AS(2).VRPs = rovDropPolicy{}, vrps
		if _, err := g.Converge(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	dst := ip("10.4.0.1")

	// Plain origin hijack: AS 2 validates and drops, so its cone (AS 2
	// itself) keeps routing to the victim.
	g := build()
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvAnnounce, AS: 5, Prefix: pfx("10.4.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	if origin, _ := g.OriginOf(2, dst); origin != 4 {
		t.Fatalf("plain hijack: AS 2 traffic went to %v, want victim 4", origin)
	}

	// Forged-origin hijack: the wire path ends in AS 4, validates, and AS 2's
	// path through the attacker ties at equal pref/length — the lower
	// neighbor ASN wins, so use the topology where the forged path is
	// strictly shorter: attacker path [5 4] vs legit [4] from 2's customer.
	// From AS 3 (no ROV), both hijack flavors divert; from AS 2 (ROV), only
	// the forged one can.
	g = build()
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvAnnounce, AS: 5, Prefix: pfx("10.4.0.0/16"), ForgedOrigin: 4}}); err != nil {
		t.Fatal(err)
	}
	if origin, _ := g.OriginOf(3, dst); origin != 5 {
		t.Fatalf("forged hijack: AS 3 traffic went to %v, want attacker 5", origin)
	}
	r, ok := g.AS(3).BestRoute(pfx("10.4.0.0/16"))
	if !ok || r.Origin() != 4 {
		t.Fatalf("forged announcement should carry wire origin 4, got %+v", r)
	}
	// The victim's own loop check rejects the forged path.
	if origin, _ := g.OriginOf(4, dst); origin != 4 {
		t.Fatalf("victim lost its own prefix to %v", origin)
	}
}

// TestForgedOriginChangeDirties pins the coalescing rule: re-announcing an
// already-originated prefix with a (new) forged origin must dirty the prefix
// and re-flood, even though the origination set did not change.
func TestForgedOriginChangeDirties(t *testing.T) {
	g := buildChain(t)
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvAnnounce, AS: 1, Prefix: pfx("10.9.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	r, _ := g.AS(3).BestRoute(pfx("10.9.0.0/16"))
	if r.Origin() != 1 {
		t.Fatalf("origin = %v, want 1", r.Origin())
	}
	res, err := g.ApplyEvents([]RouteEvent{{Kind: EvAnnounce, AS: 1, Prefix: pfx("10.9.0.0/16"), ForgedOrigin: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyPrefixes == 0 {
		t.Fatal("forged-origin change coalesced to a no-op")
	}
	if r, _ = g.AS(3).BestRoute(pfx("10.9.0.0/16")); r.Origin() != 9 {
		t.Fatalf("wire origin after forge = %v, want 9", r.Origin())
	}
	// Withdraw restores exactly: the origination and the forged mapping go.
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvWithdraw, AS: 1, Prefix: pfx("10.9.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.AS(3).BestRoute(pfx("10.9.0.0/16")); ok {
		t.Fatal("route survived withdraw")
	}
	if len(g.AS(1).forged) != 0 {
		t.Fatal("forged mapping survived withdraw")
	}
}

// TestLeakToggleRestoresExactly: leaking on re-exports provider routes to
// everyone; leaking off restores the pre-leak routing state exactly (the
// re-flood rebuilds announcements, so this compares logical routing state —
// full Loc-RIBs and sampled data paths — not arena pointers).
func TestLeakToggleRestoresExactly(t *testing.T) {
	g := randomHierarchy(3)
	before := snapshotWorld(g)
	asns, _ := originsOf(g)
	leaker := asns[0]
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvLeakChange, AS: leaker, Leak: true}}); err != nil {
		t.Fatal(err)
	}
	if !g.AS(leaker).Leaking {
		t.Fatal("leak did not arm")
	}
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvLeakChange, AS: leaker, Leak: false}}); err != nil {
		t.Fatal(err)
	}
	diffWorlds(t, "leak restore", before, snapshotWorld(g))
}

// TestTopologyWideEventsMoveFloor pins the AffectedEpoch contract for
// destinations no interned prefix covers: link and leak events reroute
// arbitrary destinations, so they must move the floor (and with it the
// NoPrefixID epoch), not just the per-prefix epochs.
func TestTopologyWideEventsMoveFloor(t *testing.T) {
	g := buildChain(t)
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvLinkChange, AS: 1, Peer: 9, Rel: Customer}}); err != nil {
		t.Fatal(err)
	}
	if got, want := g.AffectedEpoch(NoPrefixID), g.Version(); got != want {
		t.Fatalf("link change: NoPrefixID epoch %d, want %d", got, want)
	}
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvLeakChange, AS: 2, Leak: true}}); err != nil {
		t.Fatal(err)
	}
	if got, want := g.AffectedEpoch(NoPrefixID), g.Version(); got != want {
		t.Fatalf("leak change: NoPrefixID epoch %d, want %d", got, want)
	}
}

// TestOverlayStaleness: converging the base after a fork flips Stale.
func TestOverlayStaleness(t *testing.T) {
	g := buildChain(t)
	ov := NewOverlay(g)
	if ov.Stale() {
		t.Fatal("fresh overlay stale")
	}
	if _, err := g.ApplyEvents([]RouteEvent{{Kind: EvAnnounce, AS: 1, Prefix: pfx("10.8.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	if !ov.Stale() {
		t.Fatal("overlay not stale after base event batch")
	}
}

// TestOverlayMaterializationScopes: a subprefix hijack on an overlay should
// privatize only the cone that imports the new announcement, and a no-op
// fork should privatize nothing.
func TestOverlayMaterializationScopes(t *testing.T) {
	g := randomHierarchy(2)
	ov := NewOverlay(g)
	if n := ov.MaterializedASes(); n != 0 {
		t.Fatalf("fresh overlay materialized %d ASes", n)
	}
	asns, prefixes := originsOf(g)
	sub := netip.PrefixFrom(inet.NthAddr(prefixes[0], 0), 24)
	if _, err := ov.ApplyEvents([]RouteEvent{{Kind: EvAnnounce, AS: asns[len(asns)-1], Prefix: sub}}); err != nil {
		t.Fatal(err)
	}
	n := ov.MaterializedASes()
	if n == 0 {
		t.Fatal("subprefix hijack materialized nothing")
	}
	if n > len(g.ASes) {
		t.Fatalf("materialized %d of %d ASes", n, len(g.ASes))
	}
}

// TestOverlayFullFloodReleasesOnlyTheOverlay: a what-if's full flood
// releases every overlay AS's spill pool, including one the flood never
// wrote and that still shares its base's cells — a hub whose only prefix was
// withdrawn after an incremental batch regrew its run. The release must
// materialize that AS, not clear the run reference in the base's cell.
func TestOverlayFullFloodReleasesOnlyTheOverlay(t *testing.T) {
	const hub, s1, s2, island = inet.ASN(1), inet.ASN(2), inet.ASN(3), inet.ASN(9)
	g := NewGraph()
	g.Link(hub, s1, Customer)
	g.Link(hub, s2, Customer)
	p := pfx("10.1.0.0/16")
	g.AS(s1).Originated = []netip.Prefix{p}
	g.AS(s2).Originated = []netip.Prefix{p}
	// A second prefix nobody hears keeps p's batches incremental.
	g.AddAS(island).Originated = []netip.Prefix{pfx("10.9.0.0/16")}
	if _, err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, evs := range [][]RouteEvent{
		{{Kind: EvWithdraw, AS: s1, Prefix: p}},
		{{Kind: EvAnnounce, AS: s1, Prefix: p}},
		{{Kind: EvWithdraw, AS: s1, Prefix: p}, {Kind: EvWithdraw, AS: s2, Prefix: p}},
	} {
		if _, err := g.ApplyEvents(evs); err != nil {
			t.Fatal(err)
		}
	}
	id, _ := g.tab.IDOf(p)
	if a := g.AS(hub); a.adjIn[id].spill.c == 0 || len(a.Routes()) != 0 {
		t.Fatalf("the hub should keep an empty run and no route: cell %+v, %d routes", a.adjIn[id], len(a.Routes()))
	}
	before := fingerprintGraph(t, g)
	ov := NewOverlay(g)
	if _, err := ov.ApplyEvents([]RouteEvent{{Kind: EvLeakChange, AS: hub, Leak: true}}); err != nil {
		t.Fatal(err)
	}
	checkBestInvariant(t, "overlay", ov.Graph(), false, true)
	diffFingerprints(t, "after the overlay's full flood", before, fingerprintGraph(t, g))
}
