package collectors

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rov"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// TestExclusiveSetMatchesSnapshot pins the incrementally maintained set to
// the reference, Collector.Snapshot(g).ExclusivelyInvalid(vrps), after every
// batch of a seeded announce/withdraw/ROA-change sequence — including a
// floor bump (BumpVersion after a surgical DropRoute), more-specific
// prefixes interned mid-sequence, a VRP set swapped with no routing event,
// and an event batch that interns a prefix but coalesces to no routing
// change.
func TestExclusiveSetMatchesSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two tier-1 feeders, four mid-tier ASes (one of them validating, so
		// a ROA change moves real routes), sixteen stubs homed to two mids.
		g := bgp.NewGraph()
		g.Link(1, 2, bgp.Peer)
		mids := []inet.ASN{3, 4, 5, 6}
		for _, m := range mids {
			g.Link(1, m, bgp.Customer)
			g.Link(2, m, bgp.Customer)
		}
		var stubs []inet.ASN
		for s := inet.ASN(10); s < 26; s++ {
			stubs = append(stubs, s)
			g.Link(mids[rng.Intn(2)], s, bgp.Customer)
			g.Link(mids[2+rng.Intn(2)], s, bgp.Customer)
		}
		// The prefix pool: one /16 per stub and a /20 inside it that nothing
		// announces at first, so it is interned only when an event names it.
		pool := make([]netip.Prefix, 0, 2*len(stubs))
		for i, s := range stubs {
			wide := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
			g.AS(s).Originated = []netip.Prefix{wide}
			pool = append(pool, wide, netip.PrefixFrom(wide.Addr(), 20))
		}
		// A VRP set authorises, per /16, either its stub (valid), another AS
		// (invalid), or nobody (not found); the draw is the ROA churn.
		drawVRPs := func() *rpki.VRPSet {
			var vrps []rpki.VRP
			for i, s := range stubs {
				switch rng.Intn(3) {
				case 0:
					vrps = append(vrps, rpki.VRP{ASN: s, Prefix: pool[2*i], MaxLength: 16})
				case 1:
					vrps = append(vrps, rpki.VRP{ASN: 99, Prefix: pool[2*i], MaxLength: 24})
				}
			}
			return rpki.NewVRPSet(vrps)
		}
		vrps := drawVRPs()
		g.AS(3).Policy, g.AS(3).VRPs = rov.Full(), vrps
		if _, err := g.Converge(); err != nil {
			t.Fatal(err)
		}

		c := &Collector{Name: "rv", Feeders: []inet.ASN{1, 2, 999}}
		var set ExclusiveSet
		reevaluated, sawMembers, sawPartial := 0, false, false
		check := func(step string) {
			t.Helper()
			got, n := set.Update(c, g, vrps)
			reevaluated += n
			sawMembers = sawMembers || len(got) > 0
			sawPartial = sawPartial || (n > 0 && n < g.Prefixes().Len())
			if want := c.Snapshot(g).ExclusivelyInvalid(vrps); !slices.Equal(got, want) {
				t.Fatalf("seed %d, after %s: incremental set %v, reference %v", seed, step, got, want)
			}
			if _, again := set.Update(c, g, vrps); again != 0 {
				t.Fatalf("seed %d, after %s: a second Update with nothing changed re-evaluated %d prefixes", seed, step, again)
			}
		}
		apply := func(evs ...bgp.RouteEvent) {
			t.Helper()
			if _, err := g.ApplyEvents(evs); err != nil {
				t.Fatal(err)
			}
		}
		check("initial convergence")
		all := reevaluated

		for step := 0; step < 60; step++ {
			switch k := rng.Intn(10); {
			case k < 5: // announce/withdraw batch, some by a foreign origin
				var evs []bgp.RouteEvent
				for n := 1 + rng.Intn(3); n > 0; n-- {
					kind := bgp.EvAnnounce
					if rng.Intn(2) == 0 {
						kind = bgp.EvWithdraw
					}
					evs = append(evs, bgp.RouteEvent{Kind: kind, AS: stubs[rng.Intn(len(stubs))], Prefix: pool[rng.Intn(len(pool))]})
				}
				apply(evs...)
				check("announce/withdraw batch")
			case k < 7: // ROA change: swap the set, then re-validate its space
				vrps = drawVRPs()
				g.AS(3).VRPs = vrps
				apply(bgp.RouteEvent{Kind: bgp.EvROAChange, Prefixes: pool})
				check("ROA change")
			case k == 7: // the collector's set alone is swapped: no epoch moves
				vrps = drawVRPs()
				check("VRP set swap without events")
			default: // surgical edit outside the engine + floor bump
				g.AS(1).DropRoute(pool[2*rng.Intn(len(stubs))])
				g.BumpVersion()
				check("DropRoute + BumpVersion")
			}
		}
		// Interning without a routing change: withdrawing a prefix nobody
		// announces coalesces to nothing but grows the table.
		fresh := netip.MustParsePrefix("10.200.0.0/24")
		version := g.Version()
		apply(bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: stubs[0], Prefix: fresh})
		if g.Version() != version {
			t.Fatal("no-op batch moved the routing version; the case below is vacuous")
		}
		check("no-op batch interning a prefix")
		if reevaluated <= all || !sawMembers || !sawPartial {
			t.Fatalf("seed %d: vacuous run (re-evaluated %d after the first %d, members seen %v, partial re-evaluation seen %v)",
				seed, reevaluated-all, all, sawMembers, sawPartial)
		}
	}
}
