package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// The incremental/full equivalence property: any sequence of RouteEvent
// batches applied to a converged graph must leave routing state bit-identical
// — Loc-RIBs including paths, preferences and recorded validity, and the data
// paths derived from them — to a from-scratch rebuild of the same final
// world, at any worker count. This is the contract that lets every consumer
// (day scheduler, hijack injector, fault flaps, the serving daemon) ride the
// event path without ever re-running a full convergence.

// scriptOp is one generated mutation step: the event batch fed to the
// incremental graph, plus the out-of-band VRP view swap (the scheduler
// refreshes validating ASes' views directly and announces the delta as an
// EvROAChange, so the script reproduces that calling convention).
type scriptOp struct {
	evs  []RouteEvent
	vrps *rpki.VRPSet // when non-nil: new view for every AS with a policy
}

// The policies a script deploys: drop-invalid (bgp_test.go), depreference
// instead of dropping, and drop except from customers. Together they make an
// Invalid route's fate depend on validity, preference and relationship — and,
// per the ImportPolicy contract, nothing else's fate depend on the policy.
type rovDeprefPolicy struct{}

func (rovDeprefPolicy) Evaluate(_, _ inet.ASN, _ Relationship, _ Announcement, v rpki.Validity) ImportDecision {
	if v == rpki.Invalid {
		return ImportDecision{Accept: true, LocalPrefDelta: -1000}
	}
	return ImportDecision{Accept: true}
}

type rovCustomerExemptPolicy struct{}

func (rovCustomerExemptPolicy) Evaluate(_, _ inet.ASN, rel Relationship, _ Announcement, v rpki.Validity) ImportDecision {
	return ImportDecision{Accept: v != rpki.Invalid || rel == Customer}
}

var testPolicies = []ImportPolicy{rovDropPolicy{}, rovDeprefPolicy{}, rovCustomerExemptPolicy{}}

// TestImportPolicyContract holds this package's policies to the ImportPolicy
// contract the policy-change scope rests on (internal/rov pins its own).
func TestImportPolicyContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pol := range append([]ImportPolicy{AcceptAll{}}, testPolicies...) {
		for i := 0; i < 200; i++ {
			local, neighbor := inet.ASN(1+rng.Intn(50)), inet.ASN(1+rng.Intn(50))
			rel := Relationship(rng.Intn(3))
			ann := Announcement{Prefix: pfx("10.0.0.0/16"), Path: []inet.ASN{neighbor, inet.ASN(1 + rng.Intn(50))}}
			valid := pol.Evaluate(local, neighbor, rel, ann, rpki.Valid)
			notFound := pol.Evaluate(local, neighbor, rel, ann, rpki.NotFound)
			if valid != notFound || valid != (ImportDecision{Accept: true}) {
				t.Fatalf("%T from %v (%v): valid %+v, not-found %+v, want both accepted unadjusted", pol, neighbor, rel, valid, notFound)
			}
		}
	}
}

// genScript builds a deterministic random mutation script against the given
// converged hierarchy. It tracks the current global VRP view so policy-on
// events hand out the view a real scheduler would. Most VRPs name the
// prefix's build-time originator, as most ROAs do: covered prefixes are then
// Valid until a script event hijacks or re-homes them, so deployments and
// rollbacks meet all three of covered-and-Valid (recorded validity moves,
// routing must not), covered-and-Invalid and uncovered.
func genScript(g *Graph, seed int64, n int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	asns := sortedASNsIn(g)

	// Prefix pool: everything originated at build time plus fresh space for
	// announces, so scripts mix MOAS conflicts, hijacks and novel prefixes.
	var pool []netip.Prefix
	owner := map[netip.Prefix]inet.ASN{}
	for _, asn := range asns {
		for _, p := range g.AS(asn).Originated {
			pool = append(pool, p)
			owner[p] = asn
		}
	}
	for i := 0; i < 8; i++ {
		pool = append(pool, netip.PrefixFrom(inet.V4(uint32(200+i)<<24), 16))
	}

	mkVRPs := func() ([]rpki.VRP, *rpki.VRPSet) {
		var vrps []rpki.VRP
		for _, p := range pool {
			if rng.Float64() < 0.3 {
				asn, owned := owner[p]
				if !owned || rng.Float64() >= 0.8 {
					asn = asns[rng.Intn(len(asns))]
				}
				vrps = append(vrps, rpki.VRP{ASN: asn, Prefix: p, MaxLength: p.Bits()})
			}
		}
		return vrps, rpki.NewVRPSet(vrps)
	}
	curList, curSet := mkVRPs()

	nextStub := inet.ASN(20000)
	var script []scriptOp
	for len(script) < n {
		asn := asns[rng.Intn(len(asns))]
		p := pool[rng.Intn(len(pool))]
		switch rng.Intn(9) {
		case 0, 1: // origination change
			kind := EvAnnounce
			if rng.Intn(2) == 0 {
				kind = EvWithdraw
			}
			script = append(script, scriptOp{evs: []RouteEvent{{Kind: kind, AS: asn, Prefix: p}}})
		case 2: // coalescing flap: withdraw + re-announce in one batch
			script = append(script, scriptOp{evs: []RouteEvent{
				{Kind: EvWithdraw, AS: asn, Prefix: p},
				{Kind: EvAnnounce, AS: asn, Prefix: p},
			}})
		case 3: // mixed batch: several independent origination events
			b := scriptOp{}
			for k := 0; k < 2+rng.Intn(3); k++ {
				kind := EvAnnounce
				if rng.Intn(2) == 0 {
					kind = EvWithdraw
				}
				b.evs = append(b.evs, RouteEvent{
					Kind: kind, AS: asns[rng.Intn(len(asns))], Prefix: pool[rng.Intn(len(pool))],
				})
			}
			script = append(script, b)
		case 4: // ROV deployment
			script = append(script, scriptOp{evs: []RouteEvent{{
				Kind: EvPolicyChange, AS: asn, Policy: testPolicies[rng.Intn(len(testPolicies))], VRPs: curSet,
			}}})
		case 5: // ROV rollback
			script = append(script, scriptOp{evs: []RouteEvent{{Kind: EvPolicyChange, AS: asn}}})
		case 6: // ROA churn: swap every validating AS's view, announce the diff
			newList, newSet := mkVRPs()
			changed := map[netip.Prefix]bool{}
			for _, v := range curList {
				changed[v.Prefix] = true
			}
			for _, v := range newList {
				changed[v.Prefix] = true
			}
			var diff []netip.Prefix
			for p := range changed {
				diff = append(diff, p)
			}
			sort.Slice(diff, func(i, j int) bool { return diff[i].String() < diff[j].String() })
			curList, curSet = newList, newSet
			script = append(script, scriptOp{
				evs:  []RouteEvent{{Kind: EvROAChange, Prefixes: diff}},
				vrps: newSet,
			})
		case 7: // topology growth: a stub joins and announces fresh space
			stub := nextStub
			nextStub++
			sp := netip.PrefixFrom(inet.V4(uint32(stub)<<8), 24)
			script = append(script, scriptOp{evs: []RouteEvent{
				{Kind: EvLinkChange, AS: asn, Peer: stub, Rel: Customer},
				{Kind: EvAnnounce, AS: stub, Prefix: sp},
			}})
		case 8: // forged-origin hijack: the wire origin is the ROA's, mostly
			forged, owned := owner[p]
			if !owned || rng.Intn(4) == 0 {
				forged = asns[rng.Intn(len(asns))]
			}
			script = append(script, scriptOp{evs: []RouteEvent{{Kind: EvAnnounce, AS: asn, Prefix: p, ForgedOrigin: forged}}})
		}
	}
	return script
}

// applyIncremental replays one op through the event engine, reporting
// whether the batch was a full flood (every interned prefix dirty).
func applyIncremental(t *testing.T, g *Graph, op scriptOp) (full bool) {
	t.Helper()
	swapViews(g, op.vrps)
	res, err := g.ApplyEvents(op.evs)
	if err != nil {
		t.Fatalf("ApplyEvents(%+v): %v", op.evs, err)
	}
	return res.DirtyPrefixes == g.tab.Len()
}

// applyDirect replays one op as raw mutations, no convergence: the reference
// graph is rebuilt from scratch with one full Converge at the end.
func applyDirect(t *testing.T, g *Graph, op scriptOp) {
	t.Helper()
	swapViews(g, op.vrps)
	for _, ev := range op.evs {
		switch ev.Kind {
		case EvAnnounce:
			g.AS(ev.AS).setOriginated(ev.Prefix, true)
			forged := ev.ForgedOrigin
			if forged == ev.AS {
				forged = 0
			}
			g.AS(ev.AS).setForged(ev.Prefix, forged)
		case EvWithdraw:
			g.AS(ev.AS).setOriginated(ev.Prefix, false)
			g.AS(ev.AS).setForged(ev.Prefix, 0)
		case EvPolicyChange:
			a := g.AS(ev.AS)
			a.Policy, a.VRPs = ev.Policy, ev.VRPs
		case EvROAChange:
			// view swap already applied by swapViews
		case EvLinkChange:
			if err := g.Link(ev.AS, ev.Peer, ev.Rel); err != nil {
				t.Fatalf("Link(%v, %v): %v", ev.AS, ev.Peer, err)
			}
		case EvLeakChange:
			g.AS(ev.AS).Leaking = ev.Leak
		}
	}
}

func swapViews(g *Graph, vrps *rpki.VRPSet) {
	if vrps == nil {
		return
	}
	for _, a := range g.ASes {
		if a.Policy != nil {
			a.VRPs = vrps
		}
	}
}

func sortedASNsIn(g *Graph) []inet.ASN {
	out := make([]inet.ASN, 0, len(g.ASes))
	for asn := range g.ASes {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// snapshotWorld captures everything the equivalence property compares:
// per-AS Loc-RIBs (full Route values, so paths, learned-from, preferences
// and recorded validity all participate) and a deterministic sample of
// data-plane paths.
func snapshotWorld(g *Graph) map[string]any {
	out := make(map[string]any)
	asns := sortedASNsIn(g)
	for _, asn := range asns {
		out[fmt.Sprintf("rib:%v", asn)] = g.AS(asn).Routes()
	}
	var dsts []netip.Addr
	for _, asn := range asns {
		for _, p := range g.AS(asn).Originated {
			dsts = append(dsts, inet.NthAddr(p, 1))
		}
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i].Less(dsts[j]) })
	for i, src := range asns {
		for j := range dsts {
			if (i+j)%7 != 0 { // deterministic sample, keeps the test fast
				continue
			}
			path, ok := g.DataPath(src, dsts[j])
			out[fmt.Sprintf("path:%v->%v", src, dsts[j])] = struct {
				Path []inet.ASN
				OK   bool
			}{path, ok}
		}
	}
	return out
}

func diffWorlds(t *testing.T, label string, want, got map[string]any) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: snapshot key counts differ: %d vs %d", label, len(want), len(got))
	}
	for k, w := range want {
		if reflect.DeepEqual(w, got[k]) {
			continue
		}
		// Name the first differing route of a Loc-RIB, not both tables.
		wr, _ := w.([]Route)
		gr, _ := got[k].([]Route)
		for i := 0; i < len(wr) && i < len(gr); i++ {
			if !reflect.DeepEqual(wr[i], gr[i]) {
				t.Fatalf("%s: %s differs at route %d:\nwant %+v\ngot  %+v", label, k, i, wr[i], gr[i])
			}
		}
		t.Fatalf("%s: %s differs:\nwant %+v\ngot  %+v", label, k, w, got[k])
	}
}

// TestEventEquivalenceRandomized is the headline property test: for several
// seeds, a random script of event batches applied incrementally (at worker
// counts 1 and 4) must leave the graph, after every batch, bit-identical to
// a from-scratch rebuild of the world as it then stands. Comparing at every
// step matters: a later batch that happens to re-converge a prefix would
// otherwise repair, unseen, what an earlier one scoped too narrowly. The
// fork crossover is lowered (testForkGrain) so the small graph's rounds fork
// at 4 procs, and some must have.
func TestEventEquivalenceRandomized(t *testing.T) {
	LowerForkGrain(t, testForkGrain)
	const steps = 48
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Reference: replay each mutation raw, then one full convergence.
			ref := randomHierarchy(seed)
			var want []map[string]any
			for _, op := range genScript(ref, seed^0x5eed, steps) {
				applyDirect(t, ref, op)
				if _, err := ref.Converge(); err != nil {
					t.Fatal(err)
				}
				want = append(want, snapshotWorld(ref))
			}

			// Incremental, at two worker counts.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				inc := randomHierarchy(seed)
				for i, op := range genScript(inc, seed^0x5eed, steps) {
					full := applyIncremental(t, inc, op)
					diffWorlds(t, fmt.Sprintf("procs=%d step %d (%v)", procs, i, op.evs[0].Kind), want[i], snapshotWorld(inc))
					checkBestInvariant(t, fmt.Sprintf("procs=%d step %d", procs, i), inc, false, full)
				}
				requireForked(t, procs, inc)
			}
		})
	}
}

// TestReleasedTableEquivalence runs the equivalence property across the
// Adj-RIB-In release: a full flood (a leak toggle, a link change) leaves
// every cell holding only its selected route, and the flaps, withdrawals,
// policy and ROA changes applied to that released table must still match a
// from-scratch rebuild after every batch, as must the next full flood. As
// in TestEventEquivalenceRandomized the fork crossover is lowered, and at
// 2 procs and more some round must have forked.
func TestReleasedTableEquivalence(t *testing.T) {
	LowerForkGrain(t, testForkGrain)
	for _, seed := range []int64{2, 5, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := func(g *Graph) []scriptOp {
				rng := rand.New(rand.NewSource(seed))
				asns := sortedASNsIn(g)
				origins, prefixes := originsOf(g)
				leaker, hijacker := asns[len(asns)/3], asns[len(asns)-1]
				victim, vp := origins[0], g.AS(origins[0]).Originated[0]
				other := prefixes[len(prefixes)/2]
				// Two ROA views over overlapping halves of the prefixes, four
				// in five VRPs naming the real originator; a ROA change
				// between them names the space both cover.
				owner := map[netip.Prefix]inet.ASN{}
				for _, asn := range origins {
					for _, p := range g.AS(asn).Originated {
						owner[p] = asn
					}
				}
				view := func(space []netip.Prefix) *rpki.VRPSet {
					var vrps []rpki.VRP
					for _, p := range space {
						asn := owner[p]
						if rng.Intn(5) == 0 {
							asn = asns[rng.Intn(len(asns))]
						}
						vrps = append(vrps, rpki.VRP{ASN: asn, Prefix: p, MaxLength: p.Bits()})
					}
					return rpki.NewVRPSet(vrps)
				}
				n := len(prefixes)
				vrps, vrpsB := view(prefixes[:n/3]), view(prefixes[n/6:n/2])
				roaSpace := prefixes[:n/2]
				stub := inet.ASN(30000)
				return []scriptOp{
					{evs: []RouteEvent{{Kind: EvLeakChange, AS: leaker, Leak: true}}},
					{evs: []RouteEvent{{Kind: EvWithdraw, AS: victim, Prefix: vp}}},
					{evs: []RouteEvent{{Kind: EvAnnounce, AS: victim, Prefix: vp}}},
					{evs: []RouteEvent{{Kind: EvWithdraw, AS: victim, Prefix: vp}, {Kind: EvAnnounce, AS: victim, Prefix: vp}}},
					{evs: []RouteEvent{{Kind: EvAnnounce, AS: hijacker, Prefix: vp}}},
					{evs: []RouteEvent{{Kind: EvPolicyChange, AS: asns[1], Policy: rovDropPolicy{}, VRPs: vrps}}},
					{evs: []RouteEvent{{Kind: EvPolicyChange, AS: asns[len(asns)/2], Policy: rovDeprefPolicy{}, VRPs: vrps}}},
					{evs: []RouteEvent{{Kind: EvROAChange, Prefixes: roaSpace}}, vrps: vrpsB},
					{evs: []RouteEvent{{Kind: EvWithdraw, AS: hijacker, Prefix: vp}}},
					{evs: []RouteEvent{{Kind: EvPolicyChange, AS: asns[1]}}},
					{evs: []RouteEvent{{Kind: EvLeakChange, AS: leaker, Leak: false}}},
					{evs: []RouteEvent{{Kind: EvAnnounce, AS: hijacker, Prefix: other, ForgedOrigin: victim}}},
					{evs: []RouteEvent{
						{Kind: EvLinkChange, AS: asns[0], Peer: stub, Rel: Customer},
						{Kind: EvAnnounce, AS: stub, Prefix: netip.PrefixFrom(inet.V4(uint32(stub)<<8), 24)},
					}},
					{evs: []RouteEvent{{Kind: EvWithdraw, AS: victim, Prefix: vp}}},
					{evs: []RouteEvent{{Kind: EvROAChange, Prefixes: roaSpace}}, vrps: vrps},
					{evs: []RouteEvent{{Kind: EvAnnounce, AS: victim, Prefix: vp}}},
				}
			}
			ref := randomHierarchy(seed)
			var want []map[string]any
			for _, op := range script(ref) {
				applyDirect(t, ref, op)
				if _, err := ref.Converge(); err != nil {
					t.Fatal(err)
				}
				want = append(want, snapshotWorld(ref))
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				inc := randomHierarchy(seed)
				checkBestInvariant(t, fmt.Sprintf("procs=%d cold", procs), inc, false, true)
				fulls := 0
				for i, op := range script(inc) {
					full := applyIncremental(t, inc, op)
					if full {
						fulls++
					}
					label := fmt.Sprintf("procs=%d step %d (%v)", procs, i, op.evs[0].Kind)
					diffWorlds(t, label, want[i], snapshotWorld(inc))
					checkBestInvariant(t, label, inc, false, full)
				}
				if fulls != 3 {
					t.Fatalf("procs=%d: %d full floods, the script has 3", procs, fulls)
				}
				requireForked(t, procs, inc)
			}
		})
	}
}

// testForkGrain is the fork crossover the equivalence tests run at: low
// enough that the small random hierarchies' rounds fork, high enough that
// the smallest stay on the calling goroutine.
const testForkGrain = 16

// requireForked fails the test unless g's rounds forked at procs >= 2 (and
// only then): an equivalence shown at several worker counts proves nothing
// about the forked path if every round ran serially.
func requireForked(t *testing.T, procs int, g *Graph) {
	t.Helper()
	forked, serial := g.Stats().ForkedRounds.Load(), g.Stats().SerialRounds.Load()
	if forked+serial != g.Stats().Rounds.Load() {
		t.Fatalf("procs=%d: %d forked + %d serial rounds, %d rounds in all", procs, forked, serial, g.Stats().Rounds.Load())
	}
	if (procs > 1) != (forked > 0) {
		t.Fatalf("procs=%d: %d of %d rounds forked", procs, forked, forked+serial)
	}
}

// TestEventFlapCoalesces pins the microsecond-flap contract: a batch that
// withdraws and re-announces the same origination must coalesce to zero
// dirty prefixes, run no propagation, and leave the graph version untouched
// (so not even cache epochs move).
func TestEventFlapCoalesces(t *testing.T) {
	g := randomHierarchy(3)
	asns := sortedASNsIn(g)
	var origin inet.ASN
	var p netip.Prefix
	for _, asn := range asns {
		if own := g.AS(asn).Originated; len(own) > 0 {
			origin, p = asn, own[0]
			break
		}
	}
	before := snapshotWorld(g)
	verBefore := g.Version()

	res, err := g.ApplyEvents([]RouteEvent{
		{Kind: EvWithdraw, AS: origin, Prefix: p},
		{Kind: EvAnnounce, AS: origin, Prefix: p},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyPrefixes != 0 || res.Rounds != 0 || res.ASesTouched != 0 {
		t.Fatalf("flap did not coalesce: %+v", res)
	}
	if g.Version() != verBefore {
		t.Fatalf("flap bumped graph version %d -> %d", verBefore, g.Version())
	}
	diffWorlds(t, "flap", before, snapshotWorld(g))
}

// TestEventBatchErrorReportsNoWork: a batch naming an unknown AS fails
// without claiming any convergence work.
func TestEventBatchErrorReportsNoWork(t *testing.T) {
	g := randomHierarchy(4)
	res, err := g.ApplyEvents([]RouteEvent{{Kind: EvAnnounce, AS: 999999, Prefix: pfx("10.0.0.0/16")}})
	if err == nil {
		t.Fatal("expected error for unknown AS")
	}
	if res.DirtyPrefixes != 0 || res.Rounds != 0 {
		t.Fatalf("failed batch reported work: %+v", res)
	}
}
