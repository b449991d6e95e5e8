package bgp

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"sort"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// route is one Adj-RIB-In entry: the announcement as received (shared across
// the sender's whole fan-out and immutable) plus the attributes fixed at
// import time. Holding the announcement pointer instead of copying
// prefix+path into a Route shrinks the entry to 16 bytes and makes the "did
// anything change" checks pointer compares in the common case. pref is an
// int16: effective LocalPrefs live in [-1000, 300] (relationship tiers plus
// the prefer-valid penalty), and importAnnRel clamps pathological policies.
// The Loc-RIB names one of these per prefix (AS.best) and stores none; the
// self route, which no cell holds, is a value bestLoc makes up around selfAnn.
type route struct {
	ann      *wireAnn
	from     inet.ASN
	pref     int16
	rel      Relationship
	validity rpki.Validity
}

// selfAnn stands in for the announcement of every self route: an empty path
// (learned announcements always carry their sender in path[0]).
var selfAnn = new(wireAnn)

// isSelf reports whether a selected route is self-originated.
func (r *route) isSelf() bool { return r.ann == selfAnn }

// adjBetter mirrors Route.better on Adj-RIB-In entries: higher LocalPref,
// then shorter AS path, then lowest neighbor ASN as the deterministic
// tiebreak.
func adjBetter(r, o *route) bool {
	if r.pref != o.pref {
		return r.pref > o.pref
	}
	if len(r.ann.path) != len(o.ann.path) {
		return len(r.ann.path) < len(o.ann.path)
	}
	return r.from < o.from
}

// spillRef addresses a run of routes inside the owning AS's spill pool: off
// packs the run's segment (high bits) and its start within it (low segShift
// bits), n is the live entries, c the run's capacity.
type spillRef struct {
	off  uint32
	n, c uint16
}

// A spill segment holds minSeg to 1<<segShift routes (64 MB), an AS at most
// maxSegs segments.
const (
	segShift = 22
	maxSegs  = 1 << (32 - segShift)
	minSeg   = 16
)

// run returns the first n entries of the run starting at off.
func (a *AS) run(off uint32, n uint16) []route {
	return a.spill[off>>segShift][off&(1<<segShift-1):][:n]
}

// adjCell is the per-prefix Adj-RIB-In: at most one route per neighbor. The
// first route lives inline — most (AS, prefix) pairs hear the prefix from a
// single neighbor — and additional neighbors spill into a run of the AS's
// slab-allocated spill pool, reused in place by incremental batches and
// released at the end of a full flood (releaseSpill), which leaves the cell
// holding only its selected route. An empty cell has a nil r0.ann; r0 is
// always populated before the spill.
type adjCell struct {
	r0    route
	spill spillRef
}

// maxSpill is the largest spill run, the top power-of-two class of a uint16
// capacity: a cell holds at most maxCellRoutes routes, one per neighbor, and
// every position in it fits a best index below bestSelf.
const (
	maxSpill      = 1 << 15
	maxCellRoutes = maxSpill + 1
)

// spillOf returns the cell's live spill entries.
func (a *AS) spillOf(c *adjCell) []route {
	if c.spill.n == 0 {
		return nil
	}
	return a.run(c.spill.off, c.spill.n)
}

// upsertCell installs or replaces the entry for r.from in the cell. Entries
// keep their position while the cell is live (a neighbor's route is
// overwritten in place, relocation copies the run in order), which is what
// lets the Loc-RIB name them by position. Spill runs grow by relocation; the
// outgrown run is recycled through the AS's per-size-class free lists, so a
// cell climbing 1→2→4→…→2^k leaves no dead space behind (per-prefix resets
// reuse runs in place and never relocate; a cell a full flood released has
// no run and climbs from one again). A first run holds one route: most
// multi-neighbor cells hear their prefix from exactly two neighbors.
func (a *AS) upsertCell(c *adjCell, r route) {
	if c.r0.ann == nil || c.r0.from == r.from {
		c.r0 = r
		return
	}
	sp := a.spillOf(c)
	for i := range sp {
		if sp[i].from == r.from {
			sp[i] = r
			return
		}
	}
	if c.spill.n < c.spill.c {
		c.spill.n++
		a.spillLive++
		a.run(c.spill.off, c.spill.n)[c.spill.n-1] = r
		return
	}
	if c.spill.c >= maxSpill {
		// Unreachable through a Graph: Link refuses the adjacency.
		panic(fmt.Sprintf("bgp: AS %v holds more than %d routes for one prefix", a.ASN, maxCellRoutes))
	}
	newCap := max(c.spill.c*2, 1)
	off := a.allocSpill(newCap)
	run := a.run(off, newCap)
	n := copy(run, sp)
	run[n] = r
	if c.spill.c > 0 {
		a.freeSpill(c.spill)
	}
	c.spill = spillRef{off: off, n: uint16(n) + 1, c: newCap}
	a.spillLive++
}

// allocSpill returns the offset of a zeroed run of exactly capacity entries
// (a power of two), preferring a same-class run recycled by freeSpill over
// extending the pool. The pool grows by whole segments and never moves one:
// a run is carved from the segment being filled or, when that is full, from
// the next — an existing one (reserveSpill's, ahead of a full flood) or a new
// one sized to the run or to an eighth of what the pool holds, whichever is
// larger, so growth copies nothing and slack stays near 12.5 %. Everything
// past a segment's length is zero (fresh from make, or cleared by a full
// reset).
func (a *AS) allocSpill(capacity uint16) uint32 {
	k := bits.TrailingZeros16(capacity)
	if head := a.spillFree[k]; head != 0 {
		off := head - 1
		first := &a.run(off, 1)[0]
		a.spillFree[k] = uint32(first.from)
		first.from = 0
		return off
	}
	n := int(capacity)
	for ; ; a.spillCur++ {
		if a.spillCur == len(a.spill) {
			if a.spillCur == maxSegs {
				panic(fmt.Sprintf("bgp: AS %v spill pool exhausted at %d routes", a.ASN, a.spillLen))
			}
			a.spill = append(a.spill, make([]route, 0, min(max(n, a.spillLen/8, minSeg), 1<<segShift)))
			a.spillCap += cap(a.spill[a.spillCur])
		}
		if s := a.spill[a.spillCur]; len(s)+n <= cap(s) {
			a.spill[a.spillCur] = s[:len(s)+n]
			a.spillLen += n
			return uint32(a.spillCur)<<segShift | uint32(len(s))
		}
	}
}

// freeSpill pushes an outgrown run onto the free list for its size class.
// The run is cleared first — it must stop pinning announcements the moment
// it leaves service — and the first entry's from field carries the next-free
// link. Links and list heads store offset+1 so the zero value means "empty".
func (a *AS) freeSpill(ref spillRef) {
	run := a.run(ref.off, ref.c)
	clear(run)
	k := bits.TrailingZeros16(ref.c)
	run[0].from = inet.ASN(a.spillFree[k])
	a.spillFree[k] = ref.off + 1
}

// clearCell empties the cell, keeping its spill run (zeroed in place) for
// the prefix's re-flood so announcement memory from a previous routing epoch
// is not pinned and the run needs no reallocation. A cell a full flood
// released has no run to keep.
func (a *AS) clearCell(c *adjCell) {
	c.r0 = route{}
	if c.spill.n > 0 {
		clear(a.spillOf(c))
		a.spillLive -= int(c.spill.n)
		c.spill.n = 0
	}
}

// releaseSpill ends a full flood for this AS: a cell whose selected route
// lies in its spill run takes that route inline (best becomes bestR0), every
// run reference goes, and the pool, its free lists and counters are dropped
// for the collector. What a cell keeps is exactly what the Loc-RIB names,
// and nothing reads the rest once the flood is quiescent: every later flood
// resets its dirty prefixes in every AS before it imports, refreshValidity
// only re-records, and DropRoute touches only best. spillLast keeps the
// pool's carved size for reserveSpill. An overlay AS materializes first, so
// a what-if never writes the base's cells.
func (a *AS) releaseSpill() {
	a.spillLast = a.spillLen
	if len(a.spill) == 0 {
		return // no run to release: a cell holds one only inside a pool
	}
	a.materialize()
	for id := range a.adjIn {
		c := &a.adjIn[id]
		if c.spill.c == 0 {
			continue
		}
		if at := a.best[id]; at > bestR0 && at != bestSelf {
			c.r0 = a.run(c.spill.off, c.spill.n)[at-bestR0-1]
			a.best[id] = bestR0
		}
		c.spill = spillRef{}
	}
	a.spill, a.spillCur, a.spillCap, a.spillLen, a.spillLive = nil, 0, 0, 0, 0
	a.spillFree = [16]uint32{}
}

// reserveSpill readies the pool for a full flood (reset phase): it
// adds one segment covering what the last full flood carved beyond the
// pool's capacity, so a repeated flood fills a segment instead of climbing
// through new ones an eighth of the pool at a time. Incremental batches do
// not reserve: they regrow only the runs of the cells they re-flood. Nor
// does an overlay AS still sharing its base's state (it holds no route, or
// the reset would have materialized it): materialize copies segments by
// length and would drop the reservation.
func (a *AS) reserveSpill() {
	if need := a.spillLast - a.spillCap; need > 0 && !a.cowState && len(a.spill) < maxSegs {
		a.spill = append(a.spill, make([]route, 0, min(need, 1<<segShift)))
		a.spillCap += cap(a.spill[len(a.spill)-1])
	}
}

// Loc-RIB index values (AS.best): 0 is "no route", bestR0 the cell's inline
// route, bestR0+k entry k-1 of its spill run, bestSelf the self-originated
// route.
const (
	bestR0   = 1
	bestSelf = 0xFFFF
)

// selfPref is the LocalPref of the self route. Learned prefs clamp to the
// same ceiling in the pathological-policy case, but a self route is never
// compared: selectBest leaves a prefix the AS originates alone.
const selfPref = 32767

// exportTarget is one precomputed fan-out destination: the neighbor's dense
// graph index (so propagation skips the ASN map), its ASN, and the
// receiver's relationship to this AS (the inverse of this AS's view), which
// the receiver's import pipeline needs and would otherwise look up per
// update.
type exportTarget struct {
	idx int32
	asn inet.ASN
	rel Relationship
}

// invertRel flips a relationship to the other endpoint's point of view.
func invertRel(rel Relationship) Relationship {
	switch rel {
	case Customer:
		return Provider
	case Provider:
		return Customer
	default:
		return Peer
	}
}

// AS is one autonomous system in the graph: its neighbors, policy, and
// routing state.
type AS struct {
	ASN       inet.ASN
	Neighbors map[inet.ASN]Relationship

	// Originated lists the prefixes this AS legitimately announces.
	Originated []netip.Prefix

	// Policy is the import policy (ROV behaviour); nil means AcceptAll.
	Policy ImportPolicy

	// VRPs is this AS's local view of the validated payloads (after any
	// SLURM processing); nil means the AS sees no VRPs (all NotFound).
	VRPs *rpki.VRPSet

	// Leaking, when set, disables Gao-Rexford export scoping: every best
	// route is exported to every neighbor, modelling a full route leak
	// (provider/peer routes re-announced to other providers and peers).
	// Toggled through EvLeakChange events so the leak re-converges and
	// restores deterministically.
	Leaking bool

	// forged maps an originated prefix to the origin ASN this AS forges when
	// announcing it (a forged-origin hijack: the wire path ends in the victim
	// so ROV validates the announcement, but traffic still terminates here).
	// Managed through EvAnnounce events carrying ForgedOrigin.
	forged map[netip.Prefix]inet.ASN

	// DefaultRoute, when set, names the neighbor that receives traffic for
	// destinations missing from the FIB (the §7.6 "default route" pitfall).
	DefaultRoute inet.ASN
	HasDefault   bool
	// DefaultScope, when valid, restricts the default route to destinations
	// inside the prefix — modelling partial leaks such as Swisscom's DDoS
	// on-ramp tunnels (§7.6), which re-exposed only some filtered space.
	DefaultScope netip.Prefix

	// tab interns prefixes to the dense IDs that index adjIn and best. Every
	// AS in a Graph shares the graph's table; a standalone AS owns one.
	tab *PrefixTable

	// adjIn (the Adj-RIB-In) and best (the Loc-RIB, as an index into adjIn's
	// cell: 0, bestR0+position or bestSelf) are indexed by PrefixID: 24 + 2
	// bytes per (AS, prefix), the engine's dominant retained memory. They
	// grow to tab.Len() during the reset phase of each convergence
	// and are reused (cleared in place, never reallocated) across runs.
	// spill backs the cells' multi-neighbor runs, 16 bytes a route, in
	// segments released at the end of every full flood (releaseSpill) and
	// regrown by the next flood that needs a run (per-prefix resets zero
	// runs in place); spillCur is the segment being filled, spillCap the
	// routes the segments have room for, spillLen the routes carved into
	// runs, spillLive the routes held in them, and spillLast the spillLen
	// the last full flood released.
	adjIn     []adjCell
	best      []uint16
	spill     [][]route
	spillCur  int
	spillCap  int
	spillLen  int
	spillLive int
	spillLast int
	// spillFree heads the per-size-class free lists of spill runs recycled
	// by relocation growth; index k holds runs of capacity 1<<k, and values
	// are offset+1 (0 = empty list).
	spillFree [16]uint32
	// lenCount tracks how many FIB entries exist per prefix length, so the
	// data-plane LPM only probes populated lengths.
	lenCount [33]int

	// export fan-out lists, precomputed at reset time. exportGen records the
	// topology generation the lists were built against and exportIdxGen the
	// graph AS-index generation; the reset phase rebuilds the lists whenever
	// either has moved (a link was added, or graph membership re-indexed).
	exportAll       []exportTarget // every neighbor
	exportCustomers []exportTarget // customer neighbors only
	topoGen         uint64
	exportGen       uint64
	exportIdxGen    uint64

	// seeds lists the self routes the last reset installed, in Originated
	// order: the originations the flood that follows seeds (seedQueue).
	seeds []PrefixID

	// cowState marks adjIn/best/spill/export lists as shared with a base
	// AS (overlay clones); materialize copies them before the first write.
	// cowTopo marks Neighbors as shared; materializeTopo copies it.
	cowState bool
	cowTopo  bool
}

// NewAS creates an AS with no neighbors.
func NewAS(asn inet.ASN) *AS {
	return &AS{
		ASN:       asn,
		Neighbors: make(map[inet.ASN]Relationship),
		tab:       NewPrefixTable(),
	}
}

// validity computes the RFC 6811 outcome of ann under this AS's VRP view.
func (a *AS) validity(ann *wireAnn) rpki.Validity {
	if a.VRPs == nil {
		return rpki.NotFound
	}
	return a.VRPs.Validate(a.tab.Prefix(ann.pid), ann.origin())
}

// ensureSized grows the ID-indexed tables to cover every interned prefix.
// Must run in the reset phase, before propagation starts (Converge runs it
// per AS on the workers, each writing only its own AS) — the parallel
// import workers index the slices without bounds growth.
func (a *AS) ensureSized() {
	a.adjIn = grown(a.adjIn, a.tab.Len())
	a.best = grown(a.best, a.tab.Len())
}

// grown returns s with at least n elements, the new ones zero. A table that
// must grow is reallocated to exactly n: these are the slices whose slack
// would be paid per (AS, prefix).
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n)
	copy(t, s)
	return t
}

// resetRoutingState clears all learned state (used before a full
// re-convergence). The spill pool is compacted to zero — every cell's run
// reference dies with the memset of adjIn — and reserved for the flood.
func (a *AS) resetRoutingState(g *Graph) {
	if a.cowState {
		// Everything is cleared below anyway; detach with fresh zeroed
		// slices instead of copying shared state just to memset it.
		a.cowState = false
		a.adjIn = make([]adjCell, len(a.adjIn))
		a.best = make([]uint16, len(a.best))
		a.spill, a.spillCap = nil, 0
		a.exportAll, a.exportCustomers = nil, nil
	}
	if a.tab == nil {
		a.tab = NewPrefixTable()
	}
	for _, p := range a.Originated {
		a.tab.Intern(p)
	}
	a.ensureSized()
	clear(a.adjIn)
	clear(a.best)
	for i, s := range a.spill {
		clear(s)
		a.spill[i] = s[:0]
	}
	a.spillCur, a.spillLen, a.spillLive = 0, 0, 0
	a.spillFree = [16]uint32{}
	a.reserveSpill()
	a.lenCount = [33]int{}
	a.seeds = a.seeds[:0]
	for _, p := range a.Originated {
		if id, ok := a.tab.IDOf(p); ok {
			a.installSelf(id)
		}
	}
	a.rebuildExportLists(g)
}

// resetPrefixes clears learned state for exactly the given prefixes and
// re-installs self routes for any originated prefix among them (membership
// is tested via the graph's mark array at generation gen). Export fan-out
// lists are rebuilt when stale, so a link added after the first full
// Converge participates in incremental re-convergence.
func (a *AS) resetPrefixes(g *Graph, pids []PrefixID, mark []uint32, gen uint32) {
	if a.cowState && a.cowNeedsWrite(g, pids, mark, gen) {
		a.materialize()
	}
	a.ensureSized()
	for _, id := range pids {
		c := &a.adjIn[id]
		if c.r0.ann != nil {
			a.clearCell(c)
		}
		if a.best[id] != 0 {
			a.best[id] = 0
			a.lenCount[a.tab.plenOf(id)]--
		}
	}
	a.seeds = a.seeds[:0]
	for _, p := range a.Originated {
		if id, ok := a.tab.IDOf(p); ok && int(id) < len(mark) && mark[id] == gen {
			a.installSelf(id)
		}
	}
	if a.exportGen != a.topoGen || a.exportIdxGen != g.indexGen ||
		(len(a.exportAll) == 0 && len(a.Neighbors) > 0) {
		a.rebuildExportLists(g)
	}
}

func (a *AS) rebuildExportLists(g *Graph) {
	a.exportAll = a.exportAll[:0]
	a.exportCustomers = a.exportCustomers[:0]
	for n, rel := range a.Neighbors {
		t := exportTarget{idx: g.indexOf(n), asn: n, rel: invertRel(rel)}
		a.exportAll = append(a.exportAll, t)
		if rel == Customer {
			a.exportCustomers = append(a.exportCustomers, t)
		}
	}
	sort.Slice(a.exportAll, func(i, j int) bool { return a.exportAll[i].asn < a.exportAll[j].asn })
	sort.Slice(a.exportCustomers, func(i, j int) bool { return a.exportCustomers[i].asn < a.exportCustomers[j].asn })
	a.exportGen = a.topoGen
	a.exportIdxGen = g.indexGen
}

// installSelf installs the self-originated route for an interned prefix
// and lists it for the flood's seed.
func (a *AS) installSelf(id PrefixID) {
	if a.best[id] == 0 {
		a.lenCount[a.tab.plenOf(id)]++
	}
	a.best[id] = bestSelf // own routes beat anything learned
	a.seeds = append(a.seeds, id)
}

// importAnnRel runs the import pipeline for one announcement from a
// neighbor, with the neighbor relationship already resolved (the sender
// precomputes it in its export targets, saving the map lookup per update).
// It returns the announcement's prefix ID and whether the best route for
// that prefix changed. The announcement (and its path slice) is retained
// without copying; senders must treat emitted announcements as immutable.
func (a *AS) importAnnRel(from inet.ASN, rel Relationship, ann *wireAnn) (PrefixID, bool) {
	id := ann.pid
	if int(id) >= len(a.adjIn) {
		// Every announcement carries a prefix interned, and every table
		// sized, during the reset phase — so this is unreachable
		// during convergence and only guards direct misuse.
		return 0, false
	}
	// Delta check against the Adj-RIB-In: a sender's whole fan-out shares
	// one announcement pointer per round, so an identical pointer means
	// this neighbor re-sent exactly what we already imported.
	if c := &a.adjIn[id]; c.r0.ann == ann && c.r0.from == from {
		return 0, false
	}
	if slices.Contains(ann.path, a.ASN) {
		return 0, false
	}
	validity := a.validity(ann)
	pref := int(rel.localPref())
	if a.Policy != nil {
		dec := a.Policy.Evaluate(a.ASN, from, rel, Announcement{Prefix: a.tab.Prefix(id), Path: ann.path}, validity)
		if !dec.Accept {
			return 0, false
		}
		pref += dec.LocalPrefDelta
		if pref > 32767 {
			pref = 32767
		} else if pref < -32768 {
			pref = -32768
		}
	}
	// The announcement is accepted: copy shared overlay state before the
	// cell/RIB writes (the pointer into adjIn must be taken afterwards).
	a.materialize()
	// The upsert may overwrite the selected route where it lies: selectBest
	// compares against a copy taken first.
	old, had := a.bestLoc(id)
	c := &a.adjIn[id]
	a.upsertCell(c, route{
		ann:      ann,
		from:     from,
		pref:     int16(pref),
		rel:      rel,
		validity: validity,
	})
	return id, a.selectBest(id, c, old, had)
}

// selectBest recomputes the best route for an interned prefix against old,
// the route selected before the cell was last written (had: there was one),
// reporting whether the installed best changed.
func (a *AS) selectBest(id PrefixID, c *adjCell, old route, had bool) bool {
	if had && old.isSelf() {
		return false // own prefixes never lose to learned routes
	}
	if c.r0.ann == nil {
		return false
	}
	// Order of iteration is irrelevant: adjBetter ends with a strict
	// neighbor-ASN tiebreak and each neighbor appears at most once, so the
	// winner is unique.
	best, at := &c.r0, bestR0
	sp := a.spillOf(c)
	for i := range sp {
		if adjBetter(&sp[i], best) {
			best, at = &sp[i], bestR0+1+i
		}
	}
	if had && old.from == best.from && old.pref == best.pref &&
		(old.ann == best.ann || pathsEqual(old.ann.path, best.ann.path)) {
		return false // same neighbor, hence same position: the index stands
	}
	if !had {
		a.lenCount[a.tab.plenOf(id)]++
	}
	a.best[id] = uint16(at)
	return true
}

func pathsEqual(x, y []inet.ASN) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// exportTargets returns the neighbors that should receive the given best
// route under Gao-Rexford export rules: routes from customers (and own
// routes) go to everyone; routes from peers/providers go to customers only.
// A leaking AS exports everything to everyone. The neighbor the route was
// learned from is included — the receiver's AS-path loop check discards the
// echo — keeping the fan-out lists static.
func (a *AS) exportTargets(l *route) []exportTarget {
	if a.exportsAll(l) {
		return a.exportAll
	}
	return a.exportCustomers
}

// exportsAll reports whether exportTargets(l) is every neighbor rather than
// the customers only.
func (a *AS) exportsAll(l *route) bool {
	return a.Leaking || l.isSelf() || l.rel == Customer
}

// Lookup performs the data-plane longest-prefix match for dst. The boolean
// reports whether a FIB entry (not the default route) matched.
func (a *AS) Lookup(dst netip.Addr) (Route, bool) {
	addr := inet.V4Int(dst)
	for plen := 32; plen >= 0; plen-- {
		if a.lenCount[plen] == 0 {
			continue
		}
		if id, ok := a.tab.idOfKey(inet.MaskKey(addr, plen)); ok {
			if l, ok := a.bestLoc(id); ok {
				return a.routeView(id, l), true
			}
		}
	}
	return Route{}, false
}

// BestRoute returns the selected route for an exact prefix.
func (a *AS) BestRoute(prefix netip.Prefix) (Route, bool) {
	if id, ok := a.tab.IDOf(prefix); ok {
		if l, ok := a.bestLoc(id); ok {
			return a.routeView(id, l), true
		}
	}
	return Route{}, false
}

// bestLoc reads the selected route for an interned prefix through the
// Loc-RIB index; ok is false when there is none.
func (a *AS) bestLoc(id PrefixID) (l route, ok bool) {
	if int(id) >= len(a.best) {
		return route{}, false
	}
	switch at := a.best[id]; at {
	case 0:
		return route{}, false
	case bestR0:
		return a.adjIn[id].r0, true
	case bestSelf:
		return route{ann: selfAnn, from: a.ASN, pref: selfPref}, true
	default:
		return a.run(a.adjIn[id].spill.off, at-bestR0)[at-bestR0-1], true
	}
}

// routeView materializes the public Route view of a selected route.
func (a *AS) routeView(id PrefixID, l route) Route {
	return Route{
		Prefix:      a.tab.Prefix(id),
		Path:        l.ann.path,
		LearnedFrom: l.from,
		Rel:         l.rel,
		Validity:    l.validity,
		LocalPref:   int(l.pref),
		selfOrigin:  l.isSelf(),
	}
}

// RouteOrigin returns the origin AS of the selected route for an interned
// prefix — what a collector fed by this AS observes as the route's origin:
// the last hop of the exported path, or the AS itself for a self-originated
// route. It reads through the Loc-RIB index and allocates nothing, which is
// what lets the collector's test-prefix set re-evaluate a prefix without
// materializing Routes().
func (a *AS) RouteOrigin(id PrefixID) (inet.ASN, bool) {
	l, ok := a.bestLoc(id)
	if !ok {
		return 0, false
	}
	if l.isSelf() {
		return a.ASN, true
	}
	return l.ann.origin(), true
}

// Routes returns all selected routes (the Loc-RIB) ordered by prefix.
func (a *AS) Routes() []Route {
	ids := make([]PrefixID, 0, len(a.best))
	for id, at := range a.best {
		if at != 0 {
			ids = append(ids, PrefixID(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return a.tab.keyOf(ids[i]) < a.tab.keyOf(ids[j]) })
	out := make([]Route, len(ids))
	for i, id := range ids {
		l, _ := a.bestLoc(id)
		out[i] = a.routeView(id, l)
	}
	return out
}

// DropRoute removes the FIB entry for prefix (used by tests and fault
// injection to model partial tables).
func (a *AS) DropRoute(prefix netip.Prefix) bool {
	id, ok := a.tab.IDOf(prefix)
	if !ok || int(id) >= len(a.best) || a.best[id] == 0 {
		return false
	}
	a.materialize()
	a.lenCount[a.tab.plenOf(id)]--
	a.best[id] = 0
	return true
}

// setForged records (or clears, for origin 0) the forged origin this AS uses
// when announcing p, reporting whether the mapping changed. ApplyEvents
// re-converges the prefix on change; direct callers must do the same.
func (a *AS) setForged(p netip.Prefix, origin inet.ASN) bool {
	p = p.Masked()
	if a.forged[p] == origin {
		return false
	}
	if origin == 0 {
		delete(a.forged, p)
		return true
	}
	if a.forged == nil {
		a.forged = make(map[netip.Prefix]inet.ASN, 1)
	}
	a.forged[p] = origin
	return true
}

// forgedFor returns the forged origin for an originated prefix (0 = none).
func (a *AS) forgedFor(p netip.Prefix) inet.ASN { return a.forged[p] }

// OriginatesCovering reports whether the AS originates a prefix containing
// dst (i.e. the packet has reached its destination network).
func (a *AS) OriginatesCovering(dst netip.Addr) bool {
	for _, p := range a.Originated {
		if p.Contains(dst) {
			return true
		}
	}
	return false
}
