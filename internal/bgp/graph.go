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
	// receiver-grouped in one flat buffer (grouped); counts/starts are the
	// group sizes and offsets (indexed like asList), each worker's cursor
	// its share of every group, and recvs the sorted list of receivers with
	// pending updates. spans locate each receiver's changed prefixes in the
	// per-worker scratch outputs and blocks split them among the emitting
	// workers; queue is the seed buffer. What scales with the update stream
	// or with ASes × workers (grouped, queue, the workers' changed lists and
	// cursors) is reused by incremental batches and dropped after a full
	// flood (releaseFlood).
	counts  []int32
	starts  []int32
	grouped []update
	// recvs lists the receivers with pending updates this round; recvsNext
	// is the double buffer the emission fills for the next round while
	// recvs is still being read.
	recvs     []int32
	recvsNext []int32
	spans     []outSpan
	blocks    []int
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
// traverse the changed routes). The walk reads the table's packed keys, one
// shift-and-compare per (dirty, interned) pair.
func (g *Graph) bumpAffected(pids []PrefixID) {
	v := g.version
	keys := g.tab.keys
	g.affected = grown(g.affected, len(keys))
	if len(pids)*4 >= len(keys) {
		// Dense dirty set: the containment walk below would cost more than
		// bumping everything.
		for i := range g.affected {
			g.affected[i] = v
		}
		return
	}
	for _, id := range pids {
		if int(id) >= len(keys) {
			continue
		}
		outer := keys[id]
		for j, k := range keys {
			if keyContains(outer, k) {
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

func (m *mintCount) merge(o *mintCount) {
	m.anns += o.anns
	m.asns += o.asns
}

// outSpan locates one receiver's changed prefix IDs inside a worker's
// changed buffer; the emission splits the spans, in receiver order, into
// contiguous blocks, so the next round's grouping is independent of worker
// count and scheduling.
type outSpan struct {
	w          int32
	start, end int32
	// toAll and toCustomers count the changed prefixes whose selected route
	// the receiver now exports to every neighbor and to its customers only.
	toAll, toCustomers int32
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
	// cursor (indexed like asList) is all zero between emissions. While one
	// runs it first counts this worker's updates per receiver, then holds
	// where the next of them goes in grouped.
	cursor []int32
	// minted is Graph.minted for the announcements this worker's arena
	// minted since the last merge (mergeMinted).
	minted  []mintCount
	arena   annArena
	touched int
	// writes counts the updates the round's emission will write for the
	// receivers this worker imported: each changed prefix's export list.
	writes int
}

// forkGrain is the crossover of a propagation pass's fork: the pass takes
// one worker plus one per forkGrain updates it imports or writes, at most
// GOMAXPROCS, so a pass of fewer than forkGrain updates runs on the calling
// goroutine. Basis, measured on 2 vCPUs with interleaved runs:
//   - a batch of ten flaps on the 400-AS medium topology (core's
//     BenchmarkApplyFlapBatch) floods rounds of about a thousand updates,
//     where spawning, waking and joining a worker costs more than
//     splitting saves: every grain from 2¹⁶ down to 4,096 ran it serially
//     in a median 0.72 ms, 2,048 in 0.85 ms and 1 (fork every pass) in
//     0.89 ms;
//   - a single-prefix flap on the 10k-AS topology floods rounds of 40,
//     340, 2,043, 8,790 and 5,314 updates, each dearer per update in a
//     working set that large: its withdraw-and-announce took a median
//     10.3 ms at 4,096, 11.4 ms at 8,192 (the 5,314-update round serial)
//     and 9.7 ms at 1;
//   - a Converge of the 1,218-AS default topology, rounds of 10⁴–10⁵
//     updates, took 0.34–0.39 s at every grain from 512 to 32,768 and
//     0.49–0.51 s never forking.
//
// The grain decides only how a pass is split, never what it writes (emit).
// It is a variable so tests can lower it and drive small graphs through
// the forked path.
var forkGrain = 4096

// forkWorkers is the worker count for a pass of work updates: one, plus one
// per forkGrain updates, at most maxWorkers.
func forkWorkers(work, maxWorkers int) int {
	return max(1, min(maxWorkers, 1+work/forkGrain))
}

// fork runs f(0) … f(n-1) concurrently — f(0) on the calling goroutine —
// and returns when all have; f(w) must write only worker w's state.
func fork(n int, f func(w int)) {
	if n <= 1 {
		f(0) // nothing to wait for: an incremental round's common case
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// chunks deals the indices [0, n) out in contiguous runs off one atomic
// cursor, so a worker pays one atomic add per run rather than per index
// (the cursor's cache line otherwise bounces between cores on every claim).
type chunks struct {
	cursor  atomic.Int64
	n, size int
}

// newChunks sizes the runs so each of workers claims about 16 of them,
// leaving the tail small enough to balance, and at most 32 indices long.
func newChunks(n, workers int) *chunks {
	return &chunks{n: n, size: max(1, min(32, n/(16*max(1, workers))))}
}

// next claims the next run, ok false once none is left.
func (c *chunks) next() (lo, hi int, ok bool) {
	hi = int(c.cursor.Add(int64(c.size)))
	lo = hi - c.size
	if lo >= c.n {
		return 0, 0, false
	}
	return lo, min(hi, c.n), true
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
		g.prop[i].minted = grown(g.prop[i].minted, need)
		g.prop[i].cursor = grown(g.prop[i].cursor, len(g.asList))
	}
}

// mergeMinted folds the workers' mint counts for the given prefixes (every
// interned prefix when pids is nil) into g.minted and zeroes them.
func (g *Graph) mergeMinted(pids []PrefixID) {
	for i := range g.prop {
		wm := g.prop[i].minted
		if pids == nil {
			for id := range wm {
				g.minted[id].merge(&wm[id])
			}
			clear(wm)
			continue
		}
		for _, id := range pids {
			g.minted[id].merge(&wm[id])
			wm[id] = mintCount{}
		}
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
	g.eachAS(func(a *AS) { a.resetRoutingState(g) })
	g.ensureProp()
	clear(g.minted)
	fl, err := g.propagate(g.seedQueue())
	g.mergeMinted(nil)
	g.releaseFlood()
	g.recordFootprint()
	g.bumpAllAffected()
	g.stats.FullConverges.Add(1)
	g.stats.Rounds.Add(uint64(fl.rounds))
	return fl.rounds, err
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
	fl, err := g.convergeDirty(pids)
	g.stats.IncrementalConverges.Add(1)
	g.stats.DirtyPrefixes.Add(uint64(len(pids)))
	g.stats.Rounds.Add(uint64(fl.rounds))
	g.stats.ASesTouched.Add(uint64(fl.touched))
	g.stats.reconverge.Record(int64(time.Since(start)))
	return fl.rounds, err
}

// convergeDirty is the dirty-set scheduler at the heart of the engine: it
// resets exactly the dirty prefixes in every AS, reseeds their remaining
// originations, and floods to quiescence. All entry points — Converge (all
// prefixes dirty), ConvergePrefixes, ApplyEvents — reduce to it, so there
// is one propagation engine, not two.
func (g *Graph) convergeDirty(pids []PrefixID) (flood, error) {
	if len(pids) == 0 {
		return flood{}, nil
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
	fl, err := g.propagate(g.seedQueue())
	g.mergeMinted(pids)
	if full {
		g.releaseFlood()
	}
	g.recordFootprint()
	g.bumpAffected(pids)
	return fl, err
}

// releaseFlood ends a full flood (every prefix dirty: Converge, a link or
// leak change). It drops the buffers sized to the update stream — the
// incremental batches that follow need a few hundred entries and size their
// own — and the workers' emission cursors (ASes × workers), and, after
// recording the spill pool's size, releases every AS's Adj-RIB-In down to
// the selected routes (AS.releaseSpill) on the propagation workers.
func (g *Graph) releaseFlood() {
	g.grouped, g.queue = nil, nil
	for i := range g.prop {
		g.prop[i].changed, g.prop[i].cursor = nil, nil
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
	workers := max(1, min(runtime.GOMAXPROCS(0), len(g.asList)))
	c := newChunks(len(g.asList), workers)
	fork(workers, func(int) {
		for lo, hi, ok := c.next(); ok; lo, hi, ok = c.next() {
			for _, a := range g.asList[lo:hi] {
				f(a)
			}
		}
	})
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

// seedQueue emits the origination announcements of the self routes the
// reset just installed (AS.seeds), in ascending-ASN order and each AS's
// Originated order, so the first round is deterministic.
func (g *Graph) seedQueue() []update {
	ar := &g.prop[0].arena
	queue := g.queue[:0]
	for _, a := range g.asList {
		if len(a.exportAll) == 0 {
			continue // a self route goes to every neighbor, and there are none
		}
		for _, id := range a.seeds {
			// Self routes seed with an empty tail; a forged-origin hijack
			// instead seeds [self, victim] so receivers see the victim as the
			// wire origin (RFC 6811 validates it) while traffic terminates
			// here. The victim itself rejects the path via its loop check.
			var rest []inet.ASN
			if f := a.forgedFor(g.tab.Prefix(id)); f != 0 && f != a.ASN {
				rest = []inet.ASN{f}
			}
			ann := ar.announcement(id, a.ASN, rest)
			g.minted[id].add(ann)
			for _, t := range a.exportAll {
				queue = append(queue, update{ann: ann, toIdx: t.idx, rel: t.rel})
			}
		}
	}
	return queue
}

// flood is what one propagation did: rounds, receivers whose Loc-RIB
// changed at least once, and updates delivered, the seed's included.
type flood struct{ rounds, touched, updates int }

// propagate floods queued updates to quiescence. Each round's pending
// updates live receiver-grouped in ONE flat buffer (g.grouped): workers
// claim receivers in chunks off an atomic cursor, import their groups, and
// record only the changed prefix IDs (per-worker buffers plus per-receiver
// spans); the emission (emit) then turns the spans into the next round's
// updates on the same workers and writes them straight into g.grouped —
// which this round's imports have fully consumed, so it is overwritten in
// place. The update stream therefore exists exactly once at any moment
// (there is no per-worker output buffer, no separate merged queue and no
// per-route snapshot), which is what bounds the first convergence's peak
// RSS at 74k ASes. The emission's order is fixed by receiver order, so the
// grouping — and with it every tiebreak sequence — is bit-identical at any
// worker count while allocating nothing per round in steady state. Each
// pass forks by its own work (forkWorkers): the import by the round's
// update count, the emission by the updates it will write.
func (g *Graph) propagate(queue []update) (flood, error) {
	nAS := len(g.asList)
	g.counts, g.starts = grown(g.counts, nAS), grown(g.starts, nAS)
	maxWorkers := min(runtime.GOMAXPROCS(0), len(g.prop))
	for i := range g.prop {
		g.prop[i].touched = 0
	}
	var fl flood
	forked := 0
	finish := func(rounds int, err error) (flood, error) {
		for i := range g.prop {
			fl.touched += g.prop[i].touched
		}
		for _, idx := range g.recvs { // restore the counts-all-zero invariant
			g.counts[idx] = 0
		}
		g.recvs = g.recvs[:0]
		fl.rounds = rounds
		g.stats.ForkedRounds.Add(uint64(forked))
		g.stats.SerialRounds.Add(uint64(rounds - forked))
		return fl, err
	}

	// Group the seed by receiver as a one-worker emission, then hand its
	// buffer back for the next convergence. Updates whose target is not in
	// the dense index are dropped here, exactly as emit drops them.
	cur := g.prop[0].cursor
	for _, u := range queue {
		if u.toIdx >= 0 && int(u.toIdx) < nAS {
			cur[u.toIdx]++
		}
	}
	var total int
	g.recvs, total = g.layout(g.recvs[:0], 1)
	for _, u := range queue {
		if u.toIdx >= 0 && int(u.toIdx) < nAS {
			g.grouped[cur[u.toIdx]] = u
			cur[u.toIdx]++
		}
	}
	for _, idx := range g.recvs {
		cur[idx] = 0
	}
	g.queue = queue[:0]

	for round := 1; round <= maxRounds; round++ {
		if total == 0 {
			return finish(round-1, nil)
		}
		fl.updates += total
		recvs := g.recvs
		if cap(g.spans) < len(recvs) {
			g.spans = make([]outSpan, len(recvs))
		}
		spans := g.spans[:len(recvs)]
		workers := min(len(recvs), forkWorkers(total, maxWorkers))
		for w := 0; w < workers; w++ {
			g.prop[w].changed = g.prop[w].changed[:0]
			g.prop[w].writes = 0
		}
		claims := newChunks(len(recvs), workers)
		fork(workers, func(wid int) {
			sc := &g.prop[wid]
			for lo, hi, ok := claims.next(); ok; lo, hi, ok = claims.next() {
				for i := lo; i < hi; i++ {
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
					sp := outSpan{w: int32(wid), start: start, end: int32(len(sc.changed))}
					if sp.end > start {
						sc.touched++
					}
					// Classify the changed prefixes by where their route now
					// goes while the cells are still in cache: emit counts its
					// fan-out from these two numbers and the export lists.
					for _, id := range sc.changed[start:] {
						switch l, ok := a.bestLoc(id); {
						case !ok:
						case a.exportsAll(&l):
							sp.toAll++
						default:
							sp.toCustomers++
						}
					}
					sc.writes += int(sp.toAll)*len(a.exportAll) + int(sp.toCustomers)*len(a.exportCustomers)
					spans[i] = sp
				}
			}
		})
		for _, idx := range recvs {
			g.counts[idx] = 0
		}
		writes := 0
		for w := 0; w < workers; w++ {
			writes += g.prop[w].writes
		}
		var emitted int
		g.recvs, total, emitted = g.emit(recvs, spans, forkWorkers(writes, maxWorkers))
		g.recvsNext = recvs[:0]
		if workers > 1 || emitted > 1 {
			forked++
		}
	}
	return finish(maxRounds, fmt.Errorf("bgp: convergence did not quiesce in %d rounds", maxRounds))
}

// emit turns a round's changed prefixes into the next round's updates, laid
// out receiver-grouped in g.grouped, on up to maxWorkers workers, and
// returns the next round's receivers (ascending), their update count and
// the workers it ran on. The spans, in receiver order, are cut into
// contiguous blocks of about equal changed count, one per worker. Each
// worker counts its block's fan-out per target from the spans'
// toAll/toCustomers totals and the senders' export lists; layout gives
// every target one region of g.grouped with the
// workers' shares in worker order; then each worker walks its block's
// Loc-RIB entries, minting into its own arena and writing each update at
// its cursor for the target. Inside a region the updates therefore stand
// block by block, and inside a block by sender, prefix and export target —
// exactly the order of one serial walk over the spans, whatever the worker
// count. A receiver's Loc-RIB is only written while that receiver imports,
// so the walk reads exactly the state the import phase classified.
func (g *Graph) emit(recvs []int32, spans []outSpan, maxWorkers int) ([]int32, int, int) {
	nAS := len(g.asList)
	changed := 0
	for _, sp := range spans {
		changed += int(sp.end - sp.start)
	}
	if changed == 0 {
		return g.recvsNext[:0], 0, 0
	}
	workers := min(maxWorkers, changed)
	blocks := append(g.blocks[:0], 0)
	acc := 0
	for i, sp := range spans {
		acc += int(sp.end - sp.start)
		for len(blocks) < workers && acc*workers >= len(blocks)*changed {
			blocks = append(blocks, i+1)
		}
	}
	for len(blocks) <= workers {
		blocks = append(blocks, len(spans))
	}
	g.blocks = blocks

	fork(workers, func(w int) {
		cur := g.prop[w].cursor
		count := func(n int32, targets []exportTarget) {
			for _, t := range targets {
				if n > 0 && t.idx >= 0 && int(t.idx) < nAS {
					cur[t.idx] += n
				}
			}
		}
		for i := blocks[w]; i < blocks[w+1]; i++ {
			sender := g.asList[recvs[i]]
			count(spans[i].toAll, sender.exportAll)
			count(spans[i].toCustomers, sender.exportCustomers)
		}
	})
	next, total := g.layout(g.recvsNext[:0], workers)
	fork(workers, func(w int) {
		sc := &g.prop[w]
		cur := sc.cursor
		for i := blocks[w]; i < blocks[w+1]; i++ {
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
							ann = sc.arena.announcement(id, sender.ASN, l.ann.path)
							sc.minted[id].add(ann)
						}
						g.grouped[cur[t.idx]] = update{ann: ann, toIdx: t.idx, rel: t.rel}
						cur[t.idx]++
					}
				}
			}
		}
		for _, idx := range next {
			cur[idx] = 0
		}
	})
	return next, total, workers
}

// layout sums the first workers cursors' counts into each receiver's group
// size (g.counts), appends the receivers with pending updates to dst in
// ascending order, and gives each a contiguous region of g.grouped in that
// order, worker w's share after those of workers 0 … w-1: the cursors end
// up holding where each share starts. It sizes the buffer and returns the
// receivers and the update count. Every slot is written by the place pass
// that follows, so growth never copies. A linear walk of the counts is
// cheaper than sorting an appended receiver list: it is one pass over
// ASes × workers int32s per round and yields the sorted order for free.
func (g *Graph) layout(dst []int32, workers int) ([]int32, int) {
	for idx := range g.asList {
		n := int32(0)
		for w := 0; w < workers; w++ {
			n += g.prop[w].cursor[idx]
		}
		if n > 0 {
			g.counts[idx] = n
			dst = append(dst, int32(idx))
		}
	}
	off := int32(0)
	for _, idx := range dst {
		g.starts[idx] = off
		for w := 0; w < workers; w++ {
			c := &g.prop[w].cursor[idx]
			n := *c
			*c = off
			off += n
		}
	}
	if cap(g.grouped) < int(off) {
		// This round's imports consumed the old buffer: drop it first, so a
		// collection the allocation starts can already free it.
		g.grouped = nil
		g.grouped = make([]update, off)
	} else {
		g.grouped = g.grouped[:off]
	}
	return dst, int(off)
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
