package bgp

import (
	"fmt"
	"net/netip"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsec-lab/rovista/internal/inet"
)

// Cold-convergence GC policy: the first Converge of a graph at or above
// coldGCCapMinASes ASes runs with the GC growth factor capped at
// coldGCPercent (see Converge for why). Small worlds — unit tests, focused
// experiments — never touch the process-wide setting.
const (
	coldGCPercent    = 60
	coldGCCapMinASes = 4096
)

// Graph is the AS-level Internet: the set of ASes and their adjacencies.
type Graph struct {
	ASes map[inet.ASN]*AS

	// tab interns every prefix that appears in routing state to a dense
	// PrefixID. It is shared by all member ASes (AddAS wires it in).
	tab *PrefixTable

	// version counts routing-state recomputations (Converge, the event
	// engine, ConvergePrefixes). Consumers that cache derived forwarding
	// state — netsim's data-path cache, for one — compare versions to
	// re-validate. Surgical RIB edits that bypass convergence (AS.DropRoute,
	// direct field mutation without a re-converge) must call BumpVersion
	// explicitly.
	version uint64

	// sortedCache memoizes sortedASNs; AddAS invalidates it. asList and
	// asIndex are the dense mirror (ascending-ASN order): propagation
	// addresses receivers by index, not by ASN map lookups, and indexGen
	// tells per-AS export lists when the indices they hold went stale.
	sortedCache []inet.ASN
	asnsDirty   bool
	asList      []*AS
	asIndex     map[inet.ASN]int32
	indexGen    uint64

	// Reusable propagation state. Each round's pending updates live
	// receiver-grouped in one flat buffer (grouped); counts/starts/fill are
	// the counting-scatter arrays (indexed like asList) and recvs the sorted
	// list of receivers with pending updates. spans locate each receiver's
	// emissions in the per-worker scratch outputs; queue is the seed buffer.
	// What scales with the update stream (grouped, queue, the workers'
	// changed lists) is reused by incremental batches and dropped after a
	// full flood (releaseFlood).
	counts  []int32
	starts  []int32
	fill    []int32
	grouped []update
	// recvs lists the receivers with pending updates this round; recvsNext
	// is the double buffer the serial emission phase fills for the next
	// round while recvs is still being read.
	recvs     []int32
	recvsNext []int32
	spans     []outSpan
	prop      []propScratch
	queue     []update
	// warmed flips after the first full convergence; it gates the cold-run
	// GC growth cap applied while the retained working set first allocates.
	warmed bool

	// floodSpill is the spill pool, summed over ASes as live, carved and
	// allocated routes, as the last full flood left it before releasing it
	// (Footprint's SpillFlood figures).
	floodSpill [3]int

	// minted[id] counts the announcements minted for prefix id since its
	// last reset and the ASNs on their paths (Footprint's announcement count
	// and bytes).
	minted []mintCount

	// pidMark is the dirty-set membership array (stamp-generation scheme:
	// pidMark[id] == pidMarkGen means id is in the current dirty set).
	pidMark    []uint32
	pidMarkGen uint32

	// affected[id] is the routing version at which prefix id — or any
	// interned prefix containing it — last changed; affectedFloor is the
	// version at which everything last changed (full converges, link
	// changes, BumpVersion). Per-prefix forwarding caches compare their
	// entry's version against AffectedEpoch instead of dropping everything
	// on every version bump.
	affected      []uint64
	affectedFloor uint64

	stats ConvergeStats
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{ASes: make(map[inet.ASN]*AS), tab: NewPrefixTable()}
}

// AddAS creates (or returns) the AS with the given number.
func (g *Graph) AddAS(asn inet.ASN) *AS {
	if a, ok := g.ASes[asn]; ok {
		return a
	}
	a := NewAS(asn)
	a.tab = g.tab // share the graph-wide intern table
	g.ASes[asn] = a
	g.asnsDirty = true
	return a
}

// AS returns the AS with the given number, or nil.
func (g *Graph) AS(asn inet.ASN) *AS { return g.ASes[asn] }

// Prefixes returns the graph-wide prefix intern table. Forwarding-state
// caches use it to resolve destination addresses to interned prefix IDs.
func (g *Graph) Prefixes() *PrefixTable { return g.tab }

// Link records a customer-provider or peering adjacency. rel is the
// relationship of b as seen from a: Link(a, b, Customer) means b is a's
// customer (and therefore a is b's provider).
func (g *Graph) Link(a, b inet.ASN, rel Relationship) error {
	if a == b {
		return fmt.Errorf("bgp: self-link on %v", a)
	}
	asA, asB := g.AddAS(a), g.AddAS(b)
	// An Adj-RIB-In cell holds one route per neighbor, maxCellRoutes at most:
	// refuse the adjacency that would let a convergence overflow one.
	if _, known := asA.Neighbors[b]; !known {
		for _, x := range [2]*AS{asA, asB} {
			if len(x.Neighbors) >= maxCellRoutes {
				return fmt.Errorf("bgp: AS %v has %d neighbors, the most a routing table cell can hear from", x.ASN, len(x.Neighbors))
			}
		}
	}
	asA.materializeTopo()
	asB.materializeTopo()
	asA.Neighbors[b] = rel
	asB.Neighbors[a] = invertRel(rel)
	// The export fan-out lists of both endpoints are stale now; the
	// generation bump forces a rebuild on the next (possibly incremental)
	// convergence.
	asA.topoGen++
	asB.topoGen++
	return nil
}

// Version returns a counter that increases whenever the graph's routing
// state is recomputed. Forwarding-path caches key on it.
func (g *Graph) Version() uint64 { return g.version }

// BumpVersion marks the routing state as changed without a convergence run.
// Call it after surgical edits (DropRoute, direct default-route toggles not
// followed by a re-converge) so path caches drop their entries. Because the
// edit bypassed the engine, every prefix's affected epoch moves forward.
func (g *Graph) BumpVersion() {
	g.version++
	g.affectedFloor = g.version
}

// AffectedEpoch returns the routing version at which forwarding toward the
// given interned prefix (or any interned prefix containing it, which its
// data paths may traverse) last changed. Cache entries computed at version
// v stay valid while v >= AffectedEpoch(id). NoPrefixID — destinations no
// interned prefix covers — is only affected by non-convergence edits and
// topology-wide changes, which move the floor.
func (g *Graph) AffectedEpoch(id PrefixID) uint64 {
	if id == NoPrefixID {
		return g.affectedFloor
	}
	if int(id) >= len(g.affected) {
		// Interned but not yet converged: stay conservative.
		return g.version
	}
	if e := g.affected[id]; e > g.affectedFloor {
		return e
	}
	return g.affectedFloor
}

// ForwardingEpoch resolves dst to its most-specific interned prefix and
// returns both the prefix's id and the routing version at which forwarding
// toward it last changed (AffectedEpoch). Together the two values form a
// complete validity stamp for any state derived from dst's forwarding paths:
// the paths changed iff the epoch moved, and the destination was repointed
// at different routes iff the id changed (interning a more specific prefix
// can do that without any epoch movement). The measurement-round result
// cache keys on exactly this pair, per destination a pair measurement
// touches.
func (g *Graph) ForwardingEpoch(dst netip.Addr) (PrefixID, uint64) {
	id, ok := g.tab.LPM(dst)
	if !ok {
		id = NoPrefixID
	}
	return id, g.AffectedEpoch(id)
}

// bumpAffected records that the given prefixes changed at the current
// version, propagating to their interned descendants (whose data paths can
// traverse the changed routes).
func (g *Graph) bumpAffected(pids []PrefixID) {
	v := g.version
	n := g.tab.Len()
	g.affected = grown(g.affected, n)
	if len(pids)*4 >= n {
		// Dense dirty set: the containment walk below would cost more than
		// bumping everything.
		for i := range g.affected {
			g.affected[i] = v
		}
		return
	}
	for _, id := range pids {
		if int(id) >= n {
			continue
		}
		g.affected[id] = v
		px := g.tab.Prefix(id)
		for j := 0; j < n; j++ {
			if g.affected[j] == v {
				continue
			}
			q := g.tab.Prefix(PrefixID(j))
			if px.Bits() <= q.Bits() && px.Contains(q.Addr()) {
				g.affected[j] = v
			}
		}
	}
}

// bumpAllAffected marks every prefix (and the uncovered-destination class)
// as changed at the current version.
func (g *Graph) bumpAllAffected() {
	n := g.tab.Len()
	if len(g.affected) < n {
		g.affected = make([]uint64, n)
	}
	for i := range g.affected {
		g.affected[i] = g.version
	}
	g.affectedFloor = g.version
}

// update is one in-flight announcement during convergence. The announcement
// is shared across the sender's fan-out and treated as immutable; toIdx is
// the receiver's dense index and rel the receiver's relationship to the
// sender, both precomputed in the sender's export targets. The sender is not
// stored: every emitted announcement prepends its sender, so ann.path[0] IS
// the sender — keeping the struct at 16 bytes, which matters because the
// peak-round update stream is the first convergence's dominant transient.
type update struct {
	ann   *wireAnn
	toIdx int32
	rel   Relationship
}

// mintCount is what one prefix's flood minted: announcements, and the ASNs
// on their paths.
type mintCount struct{ anns, asns uint32 }

func (m *mintCount) add(ann *wireAnn) {
	m.anns++
	m.asns += uint32(len(ann.path))
}

// outSpan locates one receiver's changed prefix IDs inside a worker's
// changed buffer; the serial emission phase walks spans in receiver order,
// so the next round's grouping is independent of worker count and
// scheduling.
type outSpan struct {
	w          int32
	start, end int32
}

// propScratch is one worker's reusable convergence state. Workers are
// assigned distinct entries, so no locking is needed.
type propScratch struct {
	// stamp/stampGen dedupe changed prefix IDs per receiver without a map.
	stamp    []uint32
	stampGen uint32
	// changed accumulates the round's changed prefix IDs across every
	// receiver this worker processed; outSpan regions index into it.
	changed []PrefixID
	arena   annArena
	touched int
}

// maxRounds caps convergence; Gao-Rexford-compliant policies converge far
// sooner, so hitting the cap indicates a policy bug.
const maxRounds = 256

// internAll interns every prefix that can appear in routing or forwarding
// state — originated prefixes and scoped default routes — before any AS
// sizes its ID-indexed tables. This must complete before the parallel
// propagation starts: workers index per-AS slices by ID without growth.
func (g *Graph) internAll(asns []inet.ASN) {
	for _, asn := range asns {
		a := g.ASes[asn]
		for _, p := range a.Originated {
			g.tab.Intern(p)
		}
		if a.HasDefault && a.DefaultScope.IsValid() {
			g.tab.Intern(a.DefaultScope)
		}
	}
}

// ensureProp sizes the propagation scratch for the current worker count and
// intern-table size (serial phase only).
func (g *Graph) ensureProp() {
	g.prop = grown(g.prop, runtime.GOMAXPROCS(0))
	need := g.tab.Len()
	g.minted = grown(g.minted, need)
	for i := range g.prop {
		g.prop[i].stamp = grown(g.prop[i].stamp, need)
	}
}

// Converge recomputes the global routing state from scratch: every AS
// re-originates its prefixes and announcements propagate until quiescence.
// It returns the number of rounds taken. Converge shares the propagation
// engine with the event path — it is "apply every origination" with the
// whole prefix set dirty.
func (g *Graph) Converge() (int, error) {
	g.version++
	// The first convergence at scale allocates the engine's entire retained
	// working set — dense per-AS tables, the spill pool, announcement arenas,
	// the grouped update stream. While that ramp is in flight the default GC
	// growth factor would stack the transient flood garbage on top of a heap
	// goal computed from the growing live set, roughly doubling peak RSS.
	// Cap the growth factor for the cold run only; later full converges
	// refill the retained dense tables and re-allocate only the update stream
	// and the spill pool the last flood released (into one reserved segment
	// per AS), so they run at the ambient setting and pay no extra mark cost.
	if !g.warmed {
		g.warmed = true
		if len(g.ASes) >= coldGCCapMinASes {
			if prev := debug.SetGCPercent(coldGCPercent); prev < coldGCPercent && prev > 0 {
				debug.SetGCPercent(prev)
			} else {
				defer debug.SetGCPercent(prev)
			}
		}
	}
	asns := g.sortedASNs()
	g.internAll(asns)
	for _, a := range g.asList {
		a.resetRoutingState(g)
	}
	g.ensureProp()
	clear(g.minted)
	queue := g.seedQueue(nil, 0)
	rounds, _, err := g.propagate(queue)
	g.releaseFlood()
	g.recordFootprint()
	g.bumpAllAffected()
	g.stats.FullConverges.Add(1)
	g.stats.Rounds.Add(uint64(rounds))
	return rounds, err
}

// ConvergePrefixes incrementally re-converges only the given prefixes,
// leaving all other routing state untouched. BGP routes for distinct
// prefixes never interact, so after any change that can only affect a known
// prefix set (a new hijack, a ROA appearing, an AS toggling its ROV policy —
// which only alters import decisions for RPKI-invalid announcements) this is
// equivalent to a full Converge at a fraction of the cost. It is a thin
// compatibility wrapper over the event engine's dirty-set core; new callers
// should prefer ApplyEvents, which also coalesces and scopes the dirty set
// itself.
//
// Converge must have run once before the first incremental call.
func (g *Graph) ConvergePrefixes(prefixes []netip.Prefix) (int, error) {
	if len(prefixes) == 0 {
		return 0, nil
	}
	start := time.Now()
	pids := make([]PrefixID, 0, len(prefixes))
	for _, p := range prefixes {
		pids = append(pids, g.tab.Intern(p))
	}
	rounds, touched, err := g.convergeDirty(pids)
	g.stats.IncrementalConverges.Add(1)
	g.stats.DirtyPrefixes.Add(uint64(len(pids)))
	g.stats.Rounds.Add(uint64(rounds))
	g.stats.ASesTouched.Add(uint64(touched))
	g.stats.reconverge.Record(int64(time.Since(start)))
	return rounds, err
}

// convergeDirty is the dirty-set scheduler at the heart of the engine: it
// resets exactly the dirty prefixes in every AS, reseeds their remaining
// originations, and floods to quiescence. All entry points — Converge (all
// prefixes dirty), ConvergePrefixes, ApplyEvents — reduce to it, so there
// is one propagation engine, not two.
func (g *Graph) convergeDirty(pids []PrefixID) (rounds, touched int, err error) {
	if len(pids) == 0 {
		return 0, 0, nil
	}
	g.version++
	g.sortedASNs()
	g.ensureProp()
	gen := g.markPids(pids)
	full := len(pids) >= g.tab.Len()
	for _, a := range g.asList {
		a.resetPrefixes(g, pids, g.pidMark, gen)
		if full {
			a.reserveSpill()
		}
	}
	for _, id := range pids {
		g.minted[id] = mintCount{}
	}
	queue := g.seedQueue(g.pidMark, gen)
	rounds, touched, err = g.propagate(queue)
	if full {
		g.releaseFlood()
	}
	g.recordFootprint()
	g.bumpAffected(pids)
	return rounds, touched, err
}

// releaseFlood ends a full flood (every prefix dirty: Converge, a link or
// leak change). It drops the buffers sized to the update stream — the
// incremental batches that follow need a few hundred entries and size their
// own — and, after recording the spill pool's size, releases every AS's
// Adj-RIB-In down to the selected routes (AS.releaseSpill) on the
// propagation workers.
func (g *Graph) releaseFlood() {
	g.grouped, g.queue = nil, nil
	for i := range g.prop {
		g.prop[i].changed = nil
	}
	g.floodSpill = [3]int{}
	for _, a := range g.asList {
		g.floodSpill[0] += a.spillLive
		g.floodSpill[1] += a.spillLen
		g.floodSpill[2] += a.spillCap
	}
	g.eachAS((*AS).releaseSpill)
}

// eachAS runs f over every AS on up to GOMAXPROCS workers; f must write only
// its own AS.
func (g *Graph) eachAS(f func(*AS)) {
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := min(runtime.GOMAXPROCS(0), len(g.asList)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(g.asList) {
					return
				}
				f(g.asList[i])
			}
		}()
	}
	wg.Wait()
}

// markPids stamps the dirty set into the membership array and returns the
// generation to test against.
func (g *Graph) markPids(pids []PrefixID) uint32 {
	need := g.tab.Len()
	if len(g.pidMark) < need {
		g.pidMark = make([]uint32, need)
		g.pidMarkGen = 0
	}
	g.pidMarkGen++
	if g.pidMarkGen == 0 { // generation wrap: stale stamps could collide
		clear(g.pidMark)
		g.pidMarkGen = 1
	}
	for _, id := range pids {
		if int(id) < len(g.pidMark) {
			g.pidMark[id] = g.pidMarkGen
		}
	}
	return g.pidMarkGen
}

// seedQueue emits the origination announcements for every dirty prefix (all
// originated prefixes when mark is nil), in ascending-ASN order so the
// first round is deterministic.
func (g *Graph) seedQueue(mark []uint32, gen uint32) []update {
	ar := &g.prop[0].arena
	queue := g.queue[:0]
	for _, a := range g.asList {
		for _, p := range a.Originated {
			id, ok := g.tab.IDOf(p)
			if !ok {
				continue
			}
			if mark != nil && (int(id) >= len(mark) || mark[id] != gen) {
				continue
			}
			l, ok := a.bestLoc(id)
			if !ok || !l.isSelf() {
				continue
			}
			targets := a.exportTargets(&l)
			if len(targets) == 0 {
				continue
			}
			// Self routes seed with an empty tail; a forged-origin hijack
			// instead seeds [self, victim] so receivers see the victim as the
			// wire origin (RFC 6811 validates it) while traffic terminates
			// here. The victim itself rejects the path via its loop check.
			px := g.tab.Prefix(id)
			var rest []inet.ASN
			if f := a.forgedFor(px); f != 0 && f != a.ASN {
				rest = []inet.ASN{f}
			}
			ann := ar.announcement(id, a.ASN, rest)
			g.minted[id].add(ann)
			for _, t := range targets {
				queue = append(queue, update{ann: ann, toIdx: t.idx, rel: t.rel})
			}
		}
	}
	return queue
}

// propagate floods queued updates to quiescence. Each round's pending
// updates live receiver-grouped in ONE flat buffer (g.grouped): workers
// claim receivers off an atomic cursor, import their groups, and record only
// the changed prefix IDs (per-worker buffers plus per-receiver spans); a
// serial emission phase then walks the spans in receiver order, counts each
// emission's fan-out per target, lays out next-round regions in ascending
// receiver order, and writes the new updates straight into g.grouped —
// which this round's imports have fully consumed, so it is overwritten in
// place. The update stream therefore exists exactly once at any moment
// (there is no per-worker output buffer and no separate merged queue),
// which is what bounds the first convergence's peak RSS at 74k ASes. The
// serial walk's order is fixed, so the grouping — and with it every
// tiebreak sequence — is bit-identical at any worker count while allocating
// nothing per round in steady state. touched counts receivers whose Loc-RIB
// changed at least once.
func (g *Graph) propagate(queue []update) (int, int, error) {
	nAS := len(g.asList)
	g.counts, g.starts, g.fill = grown(g.counts, nAS), grown(g.starts, nAS), grown(g.fill, nAS)
	maxWorkers := runtime.GOMAXPROCS(0)
	for i := range g.prop {
		g.prop[i].touched = 0
	}
	totalTouched := 0
	finish := func(rounds int, err error) (int, int, error) {
		for i := range g.prop {
			totalTouched += g.prop[i].touched
		}
		for _, idx := range g.recvs { // restore the counts-all-zero invariant
			g.counts[idx] = 0
		}
		g.recvs = g.recvs[:0]
		return rounds, totalTouched, err
	}

	// Group the seed by receiver, then hand its buffer back for the next
	// convergence. Updates whose target is not in the dense index are
	// dropped here, exactly as the per-round scatter drops them.
	for _, u := range queue {
		if u.toIdx >= 0 && int(u.toIdx) < nAS {
			g.counts[u.toIdx]++
		}
	}
	g.recvs = collectRecvs(g.recvs[:0], g.counts[:nAS])
	total := g.layoutGroups(g.recvs)
	for _, u := range queue {
		if u.toIdx >= 0 && int(u.toIdx) < nAS {
			g.grouped[g.fill[u.toIdx]] = u
			g.fill[u.toIdx]++
		}
	}
	g.queue = queue[:0]

	for round := 1; round <= maxRounds; round++ {
		if total == 0 {
			return finish(round-1, nil)
		}
		recvs := g.recvs
		if cap(g.spans) < len(recvs) {
			g.spans = make([]outSpan, len(recvs))
		}
		spans := g.spans[:len(recvs)]
		workers := maxWorkers
		if workers > len(recvs) {
			workers = len(recvs)
		}
		for w := 0; w < workers; w++ {
			g.prop[w].changed = g.prop[w].changed[:0]
		}
		var wg sync.WaitGroup
		var cursor atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				sc := &g.prop[wid]
				for {
					i := int(cursor.Add(1) - 1)
					if i >= len(recvs) {
						return
					}
					idx := recvs[i]
					a := g.asList[idx]
					sc.stampGen++
					if sc.stampGen == 0 {
						clear(sc.stamp)
						sc.stampGen = 1
					}
					start := int32(len(sc.changed))
					for _, u := range g.grouped[g.starts[idx] : g.starts[idx]+g.counts[idx]] {
						if id, ch := a.importAnnRel(u.ann.path[0], u.rel, u.ann); ch {
							if sc.stamp[id] != sc.stampGen {
								sc.stamp[id] = sc.stampGen
								sc.changed = append(sc.changed, id)
							}
						}
					}
					if int32(len(sc.changed)) > start {
						sc.touched++
					}
					spans[i] = outSpan{w: int32(wid), start: start, end: int32(len(sc.changed))}
				}
			}(w)
		}
		wg.Wait()

		// Serial emission: walk the changed spans in receiver order twice —
		// once counting each emission's fan-out per target, then (after the
		// layout) placing the new updates straight into g.grouped, which
		// this round's imports have fully consumed. A receiver's Loc-RIB is
		// only written while that receiver imports, so reading bestLoc here
		// sees exactly the state the worker phase left behind.
		for _, idx := range recvs {
			g.counts[idx] = 0
		}
		for i := range spans {
			sp := spans[i]
			sender := g.asList[recvs[i]]
			for _, id := range g.prop[sp.w].changed[sp.start:sp.end] {
				l, ok := sender.bestLoc(id)
				if !ok {
					continue
				}
				for _, t := range sender.exportTargets(&l) {
					if t.idx >= 0 && int(t.idx) < nAS {
						g.counts[t.idx]++
					}
				}
			}
		}
		next := collectRecvs(g.recvsNext[:0], g.counts[:nAS])
		total = g.layoutGroups(next)
		ar := &g.prop[0].arena
		for i := range spans {
			sp := spans[i]
			sender := g.asList[recvs[i]]
			for _, id := range g.prop[sp.w].changed[sp.start:sp.end] {
				l, ok := sender.bestLoc(id)
				if !ok {
					continue
				}
				var ann *wireAnn
				for _, t := range sender.exportTargets(&l) {
					if t.idx >= 0 && int(t.idx) < nAS {
						if ann == nil {
							ann = ar.announcement(id, sender.ASN, l.ann.path)
							g.minted[id].add(ann)
						}
						g.grouped[g.fill[t.idx]] = update{ann: ann, toIdx: t.idx, rel: t.rel}
						g.fill[t.idx]++
					}
				}
			}
		}
		g.recvsNext = recvs[:0]
		g.recvs = next
	}
	return finish(maxRounds, fmt.Errorf("bgp: convergence did not quiesce in %d rounds", maxRounds))
}

// layoutGroups assigns each pending receiver (recvs, sorted) a contiguous
// region of g.grouped from the counted group sizes, primes the fill cursors,
// and sizes the buffer. Every slot is written by the subsequent place pass,
// so growth never copies.
func (g *Graph) layoutGroups(recvs []int32) int {
	off := int32(0)
	for _, idx := range recvs {
		g.starts[idx] = off
		g.fill[idx] = off
		off += g.counts[idx]
	}
	if cap(g.grouped) < int(off) {
		g.grouped = make([]update, off)
	} else {
		g.grouped = g.grouped[:off]
	}
	return int(off)
}

// collectRecvs scans the per-AS pending-update counts and appends every
// dense index with a non-zero count to dst, in ascending order. A linear
// walk of the counts array is cheaper than sorting an appended receiver
// list: it is one pass over nAS int32s per round, branch-free in the hot
// counting loops, and yields the sorted order for free.
func collectRecvs(dst []int32, counts []int32) []int32 {
	for idx, c := range counts {
		if c > 0 {
			dst = append(dst, int32(idx))
		}
	}
	return dst
}

// sortedASNs returns the graph's ASNs in ascending order, rebuilding the
// dense index (asList, asIndex) when membership changed. The result is
// cached — membership changes only through AddAS, which invalidates it —
// and callers must treat it as read-only.
func (g *Graph) sortedASNs() []inet.ASN {
	if !g.asnsDirty && g.sortedCache != nil {
		return g.sortedCache
	}
	out := g.sortedCache[:0]
	for asn := range g.ASes {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	g.sortedCache = out
	g.asList = g.asList[:0]
	if g.asIndex == nil {
		g.asIndex = make(map[inet.ASN]int32, len(out))
	} else {
		clear(g.asIndex)
	}
	for i, asn := range out {
		g.asList = append(g.asList, g.ASes[asn])
		g.asIndex[asn] = int32(i)
	}
	g.indexGen++ // export lists holding old indices are stale now
	g.asnsDirty = false
	return out
}

// indexOf resolves an ASN to its dense index, -1 if absent.
func (g *Graph) indexOf(asn inet.ASN) int32 {
	if i, ok := g.asIndex[asn]; ok {
		return i
	}
	return -1
}

// maxDataPathHops bounds data-plane path computation against loops that can
// arise from default routes.
const maxDataPathHops = 64

// DataPath computes the AS-level forwarding path from src toward dst using
// each hop's longest-prefix match (falling back to the hop's default route).
// delivered reports whether the final AS originates a prefix covering dst.
func (g *Graph) DataPath(src inet.ASN, dst netip.Addr) (path []inet.ASN, delivered bool) {
	cur := src
	visited := make(map[inet.ASN]bool)
	for hop := 0; hop < maxDataPathHops; hop++ {
		a := g.ASes[cur]
		if a == nil {
			return path, false
		}
		path = append(path, cur)
		if a.OriginatesCovering(dst) {
			return path, true
		}
		if visited[cur] {
			return path, false // forwarding loop
		}
		visited[cur] = true
		next, ok := a.Lookup(dst)
		switch {
		case ok && next.selfOrigin:
			// Originated prefix but not covering dst was handled above;
			// a self route here means dst is in our space yet unreachable.
			return path, false
		case ok:
			cur = next.LearnedFrom
		case a.HasDefault && (!a.DefaultScope.IsValid() || a.DefaultScope.Contains(dst)):
			cur = a.DefaultRoute
		default:
			return path, false
		}
	}
	return path, false
}

// Reachable reports whether packets from src reach an AS originating a
// prefix that covers dst.
func (g *Graph) Reachable(src inet.ASN, dst netip.Addr) bool {
	_, ok := g.DataPath(src, dst)
	return ok
}

// OriginOf returns the AS that would receive traffic for dst sent from src
// (the last hop of the data path), which under hijacks may differ from the
// legitimate origin.
func (g *Graph) OriginOf(src inet.ASN, dst netip.Addr) (inet.ASN, bool) {
	path, ok := g.DataPath(src, dst)
	if !ok || len(path) == 0 {
		return 0, false
	}
	return path[len(path)-1], true
}
