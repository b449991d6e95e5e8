package bgp

import (
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
)

// Overlay is a copy-on-write fork of a converged Graph. The fork shares the
// base graph's interned prefix storage, Adj-RIB-In cells, Loc-RIB index, and
// export fan-out lists; an AS copies its routing state the first time the
// overlay's convergence engine needs to write it. That makes "what changes if
// AS X deploys ROV / drops a route / gets hijacked" queries cheap: only the
// dirty cone of the counterfactual event pays for private state, and the base
// graph is provably never written (the overlay isolation property tests pin
// this down byte-for-byte).
//
// Validity contract: an overlay forks the base's slice headers, so it is
// coherent only while the base's routing state stays frozen. Any base
// convergence, event batch, or version bump after the fork makes the overlay
// stale — Stale() reports this, and callers (the /v1/whatif path) must fork a
// fresh overlay per query and serialize forks against base mutations.
type Overlay struct {
	g           *Graph
	base        *Graph
	baseVersion uint64
	baseTabGen  uint64
}

// NewOverlay forks g. The base must have converged at least once (the fork
// captures its dense AS index; overlay convergences are incremental).
func NewOverlay(base *Graph) *Overlay {
	base.sortedASNs() // refresh the dense index if membership changed
	og := &Graph{
		ASes:          make(map[inet.ASN]*AS, len(base.ASes)),
		tab:           base.tab.fork(),
		version:       base.version,
		affectedFloor: base.affectedFloor,
		warmed:        true,
		sortedCache:   append([]inet.ASN(nil), base.sortedCache...),
		asList:        make([]*AS, len(base.asList)),
		asIndex:       make(map[inet.ASN]int32, len(base.asList)),
		indexGen:      base.indexGen,
		affected:      append([]uint64(nil), base.affected...),
		floodSpill:    base.floodSpill,
	}
	for i, a := range base.asList {
		c := a.cowClone(og.tab)
		og.ASes[c.ASN] = c
		og.asList[i] = c
		og.asIndex[c.ASN] = int32(i)
	}
	return &Overlay{g: og, base: base, baseVersion: base.version, baseTabGen: base.tab.gen}
}

// Graph returns the overlay's private graph. Reads and event batches against
// it never touch the base.
func (o *Overlay) Graph() *Graph { return o.g }

// ApplyEvents applies a counterfactual event batch to the overlay.
func (o *Overlay) ApplyEvents(events []RouteEvent) (EventResult, error) {
	return o.g.ApplyEvents(events)
}

// Stale reports whether the base graph's routing state moved since the fork,
// invalidating the overlay's shared slice headers.
func (o *Overlay) Stale() bool {
	return o.base.version != o.baseVersion || o.base.tab.gen != o.baseTabGen
}

// MaterializedASes counts ASes whose routing state went private — the size of
// the dirty cone the overlay's convergences actually touched.
func (o *Overlay) MaterializedASes() int {
	n := 0
	for _, a := range o.g.asList {
		if !a.cowState {
			n++
		}
	}
	return n
}

// fork returns a copy-on-write fork of the table. The fork clamps the shared
// slices' capacities to their lengths, so interning into either side
// reallocates privately instead of writing shared backing.
func (t *PrefixTable) fork() *PrefixTable {
	n := len(t.prefixes)
	byKey := make(map[uint64]PrefixID, n)
	for k, v := range t.byKey {
		byKey[k] = v
	}
	return &PrefixTable{
		byKey:    byKey,
		prefixes: t.prefixes[:n:n],
		keys:     t.keys[:n:n],
		lenCount: t.lenCount,
		gen:      t.gen,
	}
}

// cowClone returns a copy-on-write clone of the AS wired to the overlay's
// forked table. Routing-state slices are shared with capacity clamped to
// length (any append reallocates privately); maps and slices the engine
// mutates in place — Originated, the forged-origin map — are copied eagerly,
// and Neighbors copies lazily via materializeTopo.
func (a *AS) cowClone(tab *PrefixTable) *AS {
	c := *a
	c.tab = tab
	c.Originated = append([]netip.Prefix(nil), a.Originated...)
	c.adjIn = a.adjIn[:len(a.adjIn):len(a.adjIn)]
	c.best = a.best[:len(a.best):len(a.best)]
	c.spill = a.spill[:len(a.spill):len(a.spill)]
	c.exportAll = a.exportAll[:len(a.exportAll):len(a.exportAll)]
	c.exportCustomers = a.exportCustomers[:len(a.exportCustomers):len(a.exportCustomers)]
	c.seeds = nil // filled by the overlay's own resets
	if a.forged != nil {
		c.forged = make(map[netip.Prefix]inet.ASN, len(a.forged))
		for p, o := range a.forged {
			c.forged[p] = o
		}
	}
	c.cowState = true
	c.cowTopo = true
	return &c
}

// materialize copies the shared routing-state slices before the first write.
// Loc-RIB indices, spill-run offsets and free-list heads stay valid: they
// name positions, and the copy preserves layout segment by segment.
func (a *AS) materialize() {
	if !a.cowState {
		return
	}
	a.cowState = false
	adjIn := make([]adjCell, len(a.adjIn))
	copy(adjIn, a.adjIn)
	a.adjIn = adjIn
	a.best = append([]uint16(nil), a.best...)
	spill := make([][]route, len(a.spill))
	for i, s := range a.spill {
		spill[i] = append([]route(nil), s...)
	}
	a.spill = spill
	a.exportAll = append([]exportTarget(nil), a.exportAll...)
	a.exportCustomers = append([]exportTarget(nil), a.exportCustomers...)
}

// materializeTopo copies the shared Neighbors map before a topology write.
func (a *AS) materializeTopo() {
	if !a.cowTopo {
		return
	}
	a.cowTopo = false
	nb := make(map[inet.ASN]Relationship, len(a.Neighbors))
	for n, rel := range a.Neighbors {
		nb[n] = rel
	}
	a.Neighbors = nb
}

// cowNeedsWrite reports whether resetPrefixes would write shared state for
// this dirty set: an occupied Adj-RIB-In cell or set Loc-RIB slot among the
// dirty prefixes, a self route to reinstall, or stale export fan-out lists.
// Pure table growth is excluded — ensureSized reallocates and never writes
// shared backing.
func (a *AS) cowNeedsWrite(g *Graph, pids []PrefixID, mark []uint32, gen uint32) bool {
	for _, id := range pids {
		if int(id) >= len(a.adjIn) || int(id) >= len(a.best) {
			continue // beyond the fork point: nothing installed yet
		}
		if a.adjIn[id].r0.ann != nil || a.best[id] != 0 {
			return true
		}
	}
	for _, p := range a.Originated {
		if id, ok := a.tab.IDOf(p); ok && int(id) < len(mark) && mark[id] == gen {
			return true
		}
	}
	return a.exportGen != a.topoGen || a.exportIdxGen != g.indexGen ||
		(len(a.exportAll) == 0 && len(a.Neighbors) > 0)
}
