// Package netsim is the packet-level substrate beneath RoVista's
// measurements: a deterministic discrete-event simulator that forwards TCP
// segments across the AS-level data plane computed by internal/bgp, applies
// per-AS ingress/egress packet filters, models propagation delay and loss,
// drives each host's TCP automaton (internal/tcpsim), and charges every
// transmitted packet against the host's IP-ID counter (internal/ipid) —
// including lazily-sampled Poisson background traffic, which is what the
// side channel ultimately observes.
package netsim

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"sync"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/ipid"
	"github.com/netsec-lab/rovista/internal/seedmix"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// Packet is one TCP/IPv4 segment on the simulated wire.
type Packet struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Kind             tcpsim.Kind
	IPID             uint16
}

// String implements fmt.Stringer.
func (p Packet) String() string {
	return fmt.Sprintf("%v:%d > %v:%d %v id=%d", p.Src, p.SrcPort, p.Dst, p.DstPort, p.Kind, p.IPID)
}

// PacketHandler lets a host intercept inbound packets (measurement clients
// record replies this way). Returning true consumes the packet; false hands
// it to the default TCP automaton.
type PacketHandler func(s *Sim, pkt Packet) bool

// Host is one end host attached to an AS.
type Host struct {
	Addr netip.Addr
	ASN  inet.ASN

	// TCP is the host's endpoint automaton.
	TCP *tcpsim.Endpoint
	// IPID assigns the IP identification field of transmitted packets.
	IPID *ipid.Counter

	// BackgroundRate is the host's mean background transmission rate in
	// packets/second; it advances a Global IP-ID counter between
	// observations (sampled as a Poisson process).
	BackgroundRate float64
	// BackgroundFn, when set, makes the rate time-varying (used to exercise
	// the detector's nonstationary, trend-model path). It overrides BackgroundRate.
	BackgroundFn func(t float64) float64

	// Handler optionally intercepts inbound packets.
	Handler PacketHandler

	lastBG float64
	rng    *rand.Rand
	// expNeg is exp(−expAt), the last λ poisson drew for (0: none yet).
	expAt, expNeg float64

	// Response rate-limiter state (token bucket), used only when the
	// network's fault profile sets RateLimitPPS. Clones start with a fresh
	// bucket: the limit models the remote stack, not a shared resource.
	rlTokens float64
	rlLast   float64
	rlInit   bool

	// The TCP wake-up armed for this host: tickAt is the virtual time of the
	// earliest one queued, meaningful only to the simulation whose token and
	// generation match (Sim.armed).
	tickTok *simToken
	tickGen uint64
	tickAt  float64
}

// NewHost builds a host with a compliant TCP endpoint listening on ports.
// All host randomness (the IP-ID offset and the background-traffic stream)
// comes from O(1)-seeded splitmix64 sources: hosts are also constructed on
// clone-per-pair hot paths, where math/rand's lag-table seeding is the
// single most expensive thing a round can do.
func NewHost(addr netip.Addr, asn inet.ASN, policy ipid.Policy, seed int64, ports ...uint16) *Host {
	return &Host{
		Addr: addr,
		ASN:  asn,
		TCP:  tcpsim.New(tcpsim.DefaultConfig(ports...)),
		IPID: ipid.NewCounter(policy, seed),
		rng:  rand.New(seedmix.NewSource(seed ^ 0x5eed)),
	}
}

// CloneInto makes dst an isolated copy of the host for one measurement
// context: same address, AS, TCP configuration, IP-ID policy, background
// model and packet handler, but fresh connection state and independent
// seed-derived randomness. Clones share nothing mutable with the original,
// so rounds running against clones of the same host cannot interfere — the
// property the parallel pair-measurement executor is built on. dst's own
// endpoint, counter and rng (whatever host it cloned before) are reused: the
// endpoint's flows are cleared, the counter re-initialised with the draws
// Fork makes, the rng re-seeded, and the background clock, rate limiter and
// armed wake-up zeroed, so a used dst ends as a zero one does. The
// measurement arena clones the same three hosts for every pair it measures.
func (h *Host) CloneInto(dst *Host, seed int64) {
	tcp, id, rng := dst.TCP, dst.IPID, dst.rng
	if tcp == nil {
		tcp, id, rng = new(tcpsim.Endpoint), new(ipid.Counter), rand.New(seedmix.NewSource(0))
	}
	h.TCP.CloneInto(tcp)
	h.IPID.ForkInto(id, seedmix.Mix(seed, 1))
	rng.Seed(seedmix.Mix(seed, 2))
	*dst = Host{
		Addr:           h.Addr,
		ASN:            h.ASN,
		TCP:            tcp,
		IPID:           id,
		BackgroundRate: h.BackgroundRate,
		BackgroundFn:   h.BackgroundFn,
		Handler:        h.Handler,
		rng:            rng,
	}
}

// advanceBackground charges background traffic accumulated since the last
// transmission against the global counter. The fault profile scales the rate
// (cross traffic the vVP's qualification never saw) and can add bursts; both
// are gated on the profile so clean runs draw nothing extra from h.rng —
// calibrated expectations depend on exact stream positions.
func (h *Host) advanceBackground(now float64, fp *faults.Profile) {
	if now < h.lastBG {
		// A fresh simulation restarted virtual time: begin a new background
		// epoch rather than freezing until the old timestamp is passed.
		h.lastBG = now
		return
	}
	if now == h.lastBG {
		return
	}
	rate := h.BackgroundRate
	if h.BackgroundFn != nil {
		// Midpoint rate over the interval approximates the time-varying
		// intensity well at our sub-second sampling.
		rate = h.BackgroundFn((h.lastBG + now) / 2)
	}
	if fp.CrossTrafficFactor > 0 {
		rate *= 1 + fp.CrossTrafficFactor
	}
	if rate > 0 {
		h.IPID.Advance(h.poisson(rate * (now - h.lastBG)))
	}
	if fp.CrossBurstProb > 0 && fp.CrossBurstMax > 0 && h.rng.Float64() < fp.CrossBurstProb {
		h.IPID.Advance(1 + h.rng.Intn(fp.CrossBurstMax))
	}
	h.lastBG = now
}

// allowResponse consumes one token from the host's response rate limiter,
// refilled at pps with capacity burst. Callers gate on pps > 0.
func (h *Host) allowResponse(now float64, pps float64, burst int) bool {
	if burst < 1 {
		burst = 1
	}
	if !h.rlInit || now < h.rlLast {
		// First use, or a fresh simulation restarted virtual time.
		h.rlInit = true
		h.rlLast = now
		h.rlTokens = float64(burst)
	}
	h.rlTokens += (now - h.rlLast) * pps
	if h.rlTokens > float64(burst) {
		h.rlTokens = float64(burst)
	}
	h.rlLast = now
	if h.rlTokens < 1 {
		return false
	}
	h.rlTokens--
	return true
}

// poisson samples a Poisson variate from the host's rng; for large λ it
// falls back to a normal approximation (λ here is at most a few hundred).
// exp(−λ) is memoized: a host probed at a fixed cadence sees the same λ
// transmission after transmission.
func (h *Host) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	rng := h.rng
	if lambda > 200 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	if lambda != h.expAt {
		h.expAt, h.expNeg = lambda, math.Exp(-lambda)
	}
	l := h.expNeg
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// FilterFunc drops a packet when it returns true.
type FilterFunc func(pkt Packet) bool

// Network is the static wiring: the routed AS graph, attached hosts, and
// per-AS packet filters.
type Network struct {
	Graph *bgp.Graph
	hosts map[netip.Addr]*Host
	// overlay, when non-nil, shadows hosts by address: lookups consult it
	// first. Overlay networks are read-only views created per measurement
	// context; only the base network's host population ever changes.
	overlay map[netip.Addr]*Host
	// closed makes an overlay view answer for its overlaid hosts only: every
	// other address is unattached, so nothing simulated over the view can
	// reach — and change — a host of the base network (Arena.View).
	closed bool
	// addrs is the ascending index of attached addresses, rebuilt when the
	// generation moves. Shared (by pointer) with every Overlay view.
	addrs *addrIndex
	// generation counts host-population changes; consumers that cache
	// derived views (e.g. the runner's vVP discovery) compare generations to
	// auto-invalidate.
	generation uint64

	// EgressFilter drops packets as they leave their source AS (e.g. BCP38
	// anti-spoofing, or the tNode-side egress filtering behind the paper's
	// "inbound filtering" case).
	EgressFilter map[inet.ASN]FilterFunc
	// IngressFilter drops packets as they arrive at the destination AS.
	IngressFilter map[inet.ASN]FilterFunc

	// BaseDelay and PerHopDelay define propagation latency in seconds.
	BaseDelay   float64
	PerHopDelay float64
	// Jitter adds U(0, Jitter) seconds to each packet's delay; packets sent
	// close together can therefore arrive out of order — the §4.2 concern
	// behind the scanner's one-second probe spacing.
	Jitter float64
	// LossRate is an independent per-packet drop probability.
	LossRate float64

	// Faults is the armed fault-injection profile (zero: clean network).
	// Every simulator and host consults it; set it via ArmFaults so the
	// seeded per-host decisions (counter splits) are applied consistently.
	Faults faults.Profile
	// FaultSeed roots every address-keyed fault decision. It is independent
	// of the hosts' own seeds, so the same world can be measured under
	// different fault streams.
	FaultSeed int64
	// vanished holds the addresses a Without view hides: HostAt treats them
	// as unattached. Each view owns its set, fixed when the view is made, and
	// overlays made from the view share it; a network from NewNetwork has
	// none. The measurement round hides its churned vVPs this way, and since
	// the churn draw keys on the fault seed and the address alone, the same
	// vVPs are hidden in every round while the profile stays armed.
	vanished map[netip.Addr]bool

	// DisablePathCache turns off forwarding-path memoization, forcing every
	// routed packet through a full LPM walk. Exists for the cached-vs-
	// uncached equivalence tests and for debugging; the cache never changes
	// results, only how often the pure path computation re-runs.
	DisablePathCache bool
	// paths memoizes Graph.DataPath by (srcASN, interned prefix ID),
	// invalidated by the graph's routing version. Shared (by pointer) with
	// every Overlay view.
	paths *pathCache
}

// NewNetwork wraps a converged BGP graph.
func NewNetwork(g *bgp.Graph) *Network {
	return &Network{
		Graph:         g,
		hosts:         make(map[netip.Addr]*Host),
		EgressFilter:  make(map[inet.ASN]FilterFunc),
		IngressFilter: make(map[inet.ASN]FilterFunc),
		BaseDelay:     0.005,
		PerHopDelay:   0.008,
		paths:         &pathCache{},
		addrs:         &addrIndex{},
	}
}

// ArmFaults installs a fault profile and applies its stable per-host
// decisions: hosts drawn by SplitCounterProb (keyed on the host address, so
// the decision is a property of the host, not of any one measurement) get
// per-CPU split IP-ID counters, and every other host gets none, so the
// hosts depend on the profile armed last and not on any armed before it.
// Re-arming with the same profile and seed is a no-op; any change bumps the
// network generation so cached host-derived views (the runner's vVP
// discovery) refresh.
func (n *Network) ArmFaults(p faults.Profile, seed int64) {
	if n.Faults.Name == p.Name && n.FaultSeed == seed {
		return
	}
	n.Faults = p
	n.FaultSeed = seed
	for addr, h := range n.hosts {
		ways := 0
		if faults.Bernoulli(p.SplitCounterProb, seed, faults.StreamSplit, int64(inet.V4Int(addr))) {
			ways = p.SplitWays
		}
		h.IPID.SetSplit(ways)
	}
	n.generation++
}

// IsVanished reports whether the view hides addr (Without). The
// incremental measurement round folds this into each cached pair's validity
// stamp: a result measured against a live host must not be reused while the
// host is vanished, and vice versa.
func (n *Network) IsVanished(addr netip.Addr) bool {
	return len(n.vanished) > 0 && n.vanished[addr]
}

// CloneHostInto is Host.CloneInto plus the armed profile's per-measurement
// perturbations: with ResetProb, some clones carry a scheduled mid-round
// counter reset (a reboot as seen from the wire). The draw keys on the clone
// seed, so it is a pure function of the pair identity — parallel rounds stay
// bit-for-bit deterministic. On a clean network this is exactly CloneInto.
func (n *Network) CloneHostInto(c, h *Host, seed int64) {
	h.CloneInto(c, seed)
	p := &n.Faults
	if p.ResetProb > 0 && faults.Bernoulli(p.ResetProb, n.FaultSeed, faults.StreamClone, seed) {
		span := p.ResetMaxPackets
		if span < 1 {
			span = 1
		}
		after := 1 + int(uint64(seedmix.Mix(n.FaultSeed, faults.StreamClone, seed, 1))%uint64(span))
		c.IPID.ResetAfter(after)
	}
}

// pathKey identifies one forwarding-path computation: the source AS and the
// most specific interned prefix covering the destination (NoPrefixID when no
// interned prefix covers it). Every prefix the data plane consults — FIB
// entries, originated prefixes, scoped defaults — is interned, and prefixes
// nest, so any interned prefix containing dst is a superset of dst's LPM
// prefix: two destinations with the same LPM ID are forwarded identically
// from every source. Keying on the ID instead of the address lets every host
// inside a prefix share one entry, which is what keeps the cache small at
// paper scale (many hosts, few routed prefixes).
type pathKey struct {
	src inet.ASN
	dst bgp.PrefixID
}

// pathEntry is one memoized Graph.DataPath result. The path slice is shared
// by every cache hit: consumers treat traced paths as immutable. epoch is
// the graph routing version the entry was computed at; the entry is valid
// while epoch >= Graph.AffectedEpoch(key's prefix ID). id is the route id of
// (path, delivered) (routeIDs), 0 until RouteID first asks for it.
type pathEntry struct {
	path      []inet.ASN
	delivered bool
	id        uint32
	epoch     uint64
}

// routeIDs interns forwarding-path contents: two routes get the same id
// exactly when their AS paths and delivered flags are equal. The map is
// keyed by the content's bytes, so an id never stands for two contents, and
// ids count up from 1 and are never reused — the table outlives every cache
// invalidation — so an id seen in one round names the same route in every
// later one. 0 is never assigned. The table grows with the distinct routes
// RouteID was ever asked to name, not with rounds.
type routeIDs struct {
	mu  sync.Mutex
	ids map[string]uint32
	buf []byte
}

// intern returns the id of (path, delivered), assigning the next one to a
// route not seen before.
func (t *routeIDs) intern(path []inet.ASN, delivered bool) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf[:0]
	for _, a := range path {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	if delivered {
		b = append(b, 1)
	}
	t.buf = b
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	id := uint32(len(t.ids) + 1)
	t.ids[string(b)] = id
	return id
}

// pathCache memoizes the pure AS-path computation beneath Trace. The BGP
// data plane is a function of (routing state, srcASN, dst) only. Entries are
// invalidated per prefix ID: each carries the routing version it was
// computed at and is compared against the graph's AffectedEpoch for its
// destination prefix, so an incremental re-convergence of a handful of
// prefixes (an event batch, a hijack, daily ROA churn) only invalidates the
// paths those prefixes — or their covered more-specifics — can influence,
// and the rest of the cache survives the version bump untouched. An RWMutex
// (rather than sync.Map) keeps the hit path to one read-lock: during the
// measure-pairs stage the network is read-only and every worker probes the
// same few (client, vVP, tNode) endpoints, so the cache is written a
// handful of times and read millions.
type pathCache struct {
	mu      sync.RWMutex
	version uint64
	// keyable records whether prefix-ID keying is sound for this version:
	// false when some forwarding-relevant prefix (an originated prefix or a
	// valid default scope) is not interned — possible after direct AS field
	// edits followed by BumpVersion instead of a re-converge — in which case
	// the cache is bypassed entirely until the next version. walkFloor is
	// the graph's affected floor when keyable was last computed.
	keyable   bool
	walkFloor uint64
	m         map[pathKey]pathEntry
	// dstID memoizes the address → LPM-ID resolution, rebuilt only when the
	// intern table actually grew (dstGen tracks its generation): interning
	// can move an address to a new, more specific LPM prefix.
	dstID  map[netip.Addr]bgp.PrefixID
	dstGen uint64
	// routes names the path contents RouteID was asked about.
	routes routeIDs
}

// lpmID resolves dst to the cache's destination key.
func lpmID(g *bgp.Graph, dst netip.Addr) bgp.PrefixID {
	if id, ok := g.Prefixes().LPM(dst); ok {
		return id
	}
	return bgp.NoPrefixID
}

// cacheKeyingSafe reports whether every prefix the data plane can consult is
// interned. FIB entries are interned by construction (they are indexed by
// prefix ID); originated prefixes and default scopes are interned by the
// convergence path, but direct mutation of AS fields between convergences
// can leave them out, and then two addresses sharing an LPM ID may diverge.
// Such edits are followed by Graph.BumpVersion or a convergence of what they
// touched (which interns it); BumpVersion, like every full convergence,
// moves the graph's affected floor (AffectedEpoch(NoPrefixID)), so route
// walks the ASes again only when the floor moved or while keying is unsound.
func (n *Network) cacheKeyingSafe() bool {
	tab := n.Graph.Prefixes()
	for _, a := range n.Graph.ASes {
		for _, p := range a.Originated {
			if _, ok := tab.IDOf(p); !ok {
				return false
			}
		}
		if a.HasDefault && a.DefaultScope.IsValid() {
			if _, ok := tab.IDOf(a.DefaultScope); !ok {
				return false
			}
		}
	}
	return true
}

// dataPath returns Graph.DataPath(src, dst), memoized. Safe for concurrent
// use by the parallel pair-measurement executor.
func (n *Network) dataPath(src inet.ASN, dst netip.Addr) ([]inet.ASN, bool) {
	path, delivered, _ := n.route(src, dst, false)
	return path, delivered
}

// route is dataPath plus, with wantID, the route id of its answer: 0 when
// the cache is off or cannot key this routing version. Ids are interned on
// demand, so the table holds the routes someone asked to name rather than
// every route the scans traced.
func (n *Network) route(src inet.ASN, dst netip.Addr, wantID bool) ([]inet.ASN, bool, uint32) {
	c := n.paths
	if n.DisablePathCache || c == nil {
		path, delivered := n.Graph.DataPath(src, dst)
		return path, delivered, 0
	}
	ver := n.Graph.Version()

	c.mu.RLock()
	if c.version != ver {
		// Version transition: re-check the keying invariant if the affected
		// floor moved (cacheKeyingSafe) and refresh the address→ID memo if
		// the intern table grew. Entries are NOT dropped —
		// each is validated per prefix ID against the graph's affected
		// epochs, so paths untouched by the convergence keep hitting.
		c.mu.RUnlock()
		c.mu.Lock()
		if c.version != ver {
			c.version = ver
			if floor := n.Graph.AffectedEpoch(bgp.NoPrefixID); !c.keyable || floor != c.walkFloor {
				c.keyable, c.walkFloor = n.cacheKeyingSafe(), floor
			}
			if gen := n.Graph.Prefixes().Gen(); gen != c.dstGen || c.dstID == nil {
				c.dstGen = gen
				c.dstID = make(map[netip.Addr]bgp.PrefixID, 256)
			}
			if c.m == nil {
				c.m = make(map[pathKey]pathEntry, 256)
			}
		}
		c.mu.Unlock()
		c.mu.RLock()
	}
	if c.version != ver || !c.keyable {
		// A version other than ver here is a concurrent invalidation (the
		// tests' InvalidatePathCache): the content is as exact as ever, so it
		// keeps its id.
		invalidated := c.version != ver
		c.mu.RUnlock()
		path, delivered := n.Graph.DataPath(src, dst)
		if invalidated && wantID {
			return path, delivered, c.routes.intern(path, delivered)
		}
		return path, delivered, 0
	}
	id, haveID := c.dstID[dst]
	if haveID {
		key := pathKey{src, id}
		if e, ok := c.m[key]; ok && e.epoch >= n.Graph.AffectedEpoch(id) {
			c.mu.RUnlock()
			if e.id == 0 && wantID {
				e.id = c.routes.intern(e.path, e.delivered)
				c.mu.Lock()
				if cur, ok := c.m[key]; ok && cur.epoch == e.epoch {
					c.m[key] = e
				}
				c.mu.Unlock()
			}
			return e.path, e.delivered, e.id
		}
	}
	c.mu.RUnlock()
	if !haveID {
		id = lpmID(n.Graph, dst)
	}
	path, delivered := n.Graph.DataPath(src, dst)
	var rid uint32
	if wantID {
		rid = c.routes.intern(path, delivered)
	}
	c.mu.Lock()
	if c.version == ver && c.keyable {
		c.dstID[dst] = id
		c.m[pathKey{src, id}] = pathEntry{path: path, delivered: delivered, id: rid, epoch: ver}
	}
	c.mu.Unlock()
	return path, delivered, rid
}

// RouteID names the forwarding path from src toward dst by its content: two
// calls return the same id exactly when the AS paths and delivered flags
// they answer for are equal, whenever the calls are made — ids survive every
// invalidation of the path cache and are never reused. 0 means unknown and
// equals no route: the path cache is disabled, this routing version cannot
// be keyed by prefix, or src is not an AS of the graph. Safe for concurrent
// use.
func (n *Network) RouteID(src inet.ASN, dst netip.Addr) uint32 {
	if n.Graph.AS(src) == nil {
		return 0
	}
	_, _, id := n.route(src, dst, true)
	return id
}

// PathEpoch returns the validity stamp governing every forwarding path
// toward dst: the destination's interned LPM prefix id and the routing
// version at which forwarding toward that prefix last changed. This is the
// same per-prefix epoch the forwarding-path cache validates its entries
// against — exposed so higher layers (the measurement round's result cache)
// can reuse work across routing changes instead of invalidating blanketly
// on every version bump.
func (n *Network) PathEpoch(dst netip.Addr) (bgp.PrefixID, uint64) {
	return n.Graph.ForwardingEpoch(dst)
}

// Reachable reports whether packets from src reach an AS originating a prefix
// that covers dst: Graph.Reachable through the forwarding-path cache.
func (n *Network) Reachable(src inet.ASN, dst netip.Addr) bool {
	_, delivered := n.dataPath(src, dst)
	return delivered
}

// AddHost attaches a host. It panics on duplicate addresses — always a bug
// in world construction.
func (n *Network) AddHost(h *Host) {
	if _, dup := n.hosts[h.Addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate host %v", h.Addr))
	}
	n.hosts[h.Addr] = h
	n.generation++
}

// Generation returns a counter that increases whenever the host population
// changes. Caches of host-derived state (the runner's vVP discovery, for
// one) key on it so additions like World.AddCandidateHosts invalidate them
// automatically.
func (n *Network) Generation() uint64 { return n.generation }

// OverlayInto makes view a read-only view of the network in which the given
// hosts shadow their same-addressed originals, reusing view's overlay map.
// The view shares the base graph, filters and host population; only lookups
// for the overlaid addresses differ. Measurement contexts overlay cloned
// hosts so concurrent rounds never touch shared host state. The
// forwarding-path cache is shared (by pointer) with the base network: paths
// depend only on the graph, which overlays never change, so every concurrent
// context warms one cache.
func (n *Network) OverlayInto(view *Network, hosts ...*Host) {
	m := view.overlay
	if m == nil {
		m = make(map[netip.Addr]*Host, len(hosts))
	} else {
		clear(m)
	}
	for _, h := range hosts {
		m[h.Addr] = h
	}
	*view = *n
	view.overlay = m
}

// Without returns a read-only view of the network in which the given
// addresses — and any n already hides — are unattached: HostAt reports them
// absent, so packets toward them drop with no-such-host, and overlays made
// from the view (an Arena's among them) hide them too. Everything else is
// shared with n, which is not changed: the view's vanished set is its own.
// The measurement round measures over one, without its churned vVPs.
func (n *Network) Without(addrs ...netip.Addr) *Network {
	view := *n
	view.vanished = make(map[netip.Addr]bool, len(n.vanished)+len(addrs))
	maps.Copy(view.vanished, n.vanished)
	for _, a := range addrs {
		view.vanished[a] = true
	}
	return &view
}

// HostAt returns the host bound to addr, if any, preferring overlay entries.
// Addresses the view hides (Without) are reported as absent.
func (n *Network) HostAt(addr netip.Addr) (*Host, bool) {
	if len(n.vanished) > 0 && n.vanished[addr] {
		return nil, false
	}
	if h, ok := n.overlay[addr]; ok {
		return h, true
	}
	if n.closed {
		return nil, false
	}
	h, ok := n.hosts[addr]
	return h, ok
}

// Hosts returns the number of attached hosts.
func (n *Network) Hosts() int { return len(n.hosts) }

// addrIndex is every attached address in ascending order, valid for the
// generation it was built at. A rebuild makes a new slice, so one handed out
// earlier stays intact.
type addrIndex struct {
	mu    sync.Mutex
	gen   uint64
	addrs []netip.Addr
}

// AllAddrs returns every attached host address in ascending order — the
// scanner's stand-in for sweeping the IPv4 space with ZMap (unattached
// addresses would never answer, so enumerating them adds nothing). The slice
// is the network's own index, sorted once per generation: read-only.
func (n *Network) AllAddrs() []netip.Addr {
	idx := n.addrs
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.addrs == nil || idx.gen != n.generation {
		addrs := make([]netip.Addr, 0, len(n.hosts))
		for a := range n.hosts {
			addrs = append(addrs, a)
		}
		slices.SortFunc(addrs, netip.Addr.Compare)
		idx.addrs, idx.gen = addrs, n.generation
	}
	return idx.addrs
}

// AddrsIn returns attached host addresses inside p, ascending: the run of
// AllAddrs that p covers, found by binary search and read-only like it.
func (n *Network) AddrsIn(p netip.Prefix) []netip.Addr {
	all := n.AllAddrs()
	lo, _ := slices.BinarySearchFunc(all, p.Masked().Addr(), netip.Addr.Compare)
	hi := lo + sort.Search(len(all)-lo, func(i int) bool { return !p.Contains(all[lo+i]) })
	return all[lo:hi:hi]
}

// DropReason explains why a packet did not arrive.
type DropReason string

// Drop reasons surfaced in traces.
const (
	DropNone    DropReason = ""
	DropEgress  DropReason = "egress-filter"
	DropNoRoute DropReason = "no-route"
	DropWrongAS DropReason = "delivered-to-wrong-as"
	DropNoHost  DropReason = "no-such-host"
	DropIngress DropReason = "ingress-filter"
	DropLoss    DropReason = "random-loss"
	DropSrcGone DropReason = "source-as-missing"
	DropFlap    DropReason = "bgp-flap"
)

// flow is the packet-independent half of routing one (source AS,
// destination) pair: which filters apply, the forwarding path, and the host
// at the end of it. Network.resolve computes it; flow.apply runs the
// per-packet half. Network.Trace and the simulator both route through this
// pair of functions, and a Sim keeps the flows of its few pairs in a table.
type flow struct {
	// reason is the packet-independent verdict: DropNone, or why no packet
	// of this flow arrives (DropSrcGone, DropNoRoute, DropNoHost,
	// DropWrongAS). The egress filter is consulted before it, the ingress
	// filter after — the order a packet meets them on the wire.
	reason  DropReason
	egress  FilterFunc // nil: none
	ingress FilterFunc // nil: none, or never reached
	path    []inet.ASN // shared with the forwarding-path cache: immutable
	host    *Host
}

// resolve computes the flow from srcASN toward dst.
func (n *Network) resolve(srcASN inet.ASN, dst netip.Addr) flow {
	if n.Graph.AS(srcASN) == nil {
		return flow{reason: DropSrcGone}
	}
	fl := flow{egress: n.EgressFilter[srcASN]}
	path, delivered := n.dataPath(srcASN, dst)
	fl.path = path
	if !delivered {
		fl.reason = DropNoRoute
		return fl
	}
	h, ok := n.HostAt(dst)
	if !ok {
		fl.reason = DropNoHost
		return fl
	}
	if path[len(path)-1] != h.ASN {
		// The data plane delivered the packet into an AS that originates a
		// covering prefix, but the host lives elsewhere (hijacked traffic).
		fl.reason = DropWrongAS
		return fl
	}
	fl.host, fl.ingress = h, n.IngressFilter[h.ASN]
	return fl
}

// apply decides the fate of one packet of the flow: the traversed AS path
// (nil when the packet never left its source AS), the destination host when
// delivery succeeds, and the drop reason otherwise.
func (fl *flow) apply(pkt Packet) (path []inet.ASN, dst *Host, reason DropReason) {
	if fl.egress != nil && fl.egress(pkt) {
		return nil, nil, DropEgress
	}
	if fl.reason != DropNone {
		return fl.path, nil, fl.reason
	}
	if fl.ingress != nil && fl.ingress(pkt) {
		return fl.path, nil, DropIngress
	}
	return fl.path, fl.host, DropNone
}

// Trace routes pkt from srcASN and reports the traversed AS path, the
// destination host when delivery succeeds, and the drop reason otherwise.
// This is the primitive beneath both packet delivery and the traceroute
// implementation in internal/trace. The returned path may be served from the
// forwarding-path cache and shared with other callers: treat it as
// immutable.
func (n *Network) Trace(srcASN inet.ASN, pkt Packet) (path []inet.ASN, dst *Host, reason DropReason) {
	fl := n.resolve(srcASN, pkt.Dst)
	return fl.apply(pkt)
}
