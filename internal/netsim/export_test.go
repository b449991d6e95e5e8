package netsim

import (
	"fmt"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
)

// StateDigest renders everything about h a simulation can change: the IP-ID
// counter, the TCP endpoint's flows, the background clock and the position
// of the background rng, the response rate limiter, the armed wake-up and
// the packet handler. Reading the rng's position draws from it, so a host
// is digested once, when the comparison is due.
func (h *Host) StateDigest() string {
	return fmt.Sprintf("ipid=%+v tcp=%+v bg=%v rng=%d rl=%v/%v/%v tick=%v/%d/%v handler=%p",
		*h.IPID, *h.TCP, h.lastBG, h.rng.Int63(), h.rlTokens, h.rlLast, h.rlInit,
		h.tickTok != nil, h.tickGen, h.tickAt, h.Handler)
}

// CachedRoute is one forwarding path the cache holds: its source AS and the
// interned prefix id of its destination.
type CachedRoute struct {
	Src inet.ASN
	Dst bgp.PrefixID
}

// CachedRoutes lists what the forwarding-path cache holds: every path it
// memoized, and every destination address it resolved to a prefix id. A
// simulation resolves each of its flows through the cache, so after
// InvalidatePathCache they are the flows of what ran since.
func (n *Network) CachedRoutes() (routes []CachedRoute, dsts []netip.Addr) {
	c := n.paths
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k := range c.m {
		routes = append(routes, CachedRoute{k.src, k.dst})
	}
	for a := range c.dstID {
		dsts = append(dsts, a)
	}
	return routes, dsts
}

// InvalidatePathCache drops every memoized forwarding path, as a concurrent
// invalidation would: the tests race it against readers to pin that route
// ids and paths survive it. Routing re-convergence and Graph.BumpVersion
// invalidate the cache on their own.
func (n *Network) InvalidatePathCache() {
	n.paths.mu.Lock()
	n.paths.m = nil
	n.paths.dstID = nil
	n.paths.keyable = false
	n.paths.version = 0
	n.paths.mu.Unlock()
}
