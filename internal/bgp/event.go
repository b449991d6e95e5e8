package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/telemetry"
)

// EventKind classifies a RouteEvent.
type EventKind uint8

// Route event kinds.
const (
	// EvAnnounce: AS begins originating Prefix.
	EvAnnounce EventKind = iota
	// EvWithdraw: AS stops originating Prefix.
	EvWithdraw
	// EvPolicyChange: AS's import policy and VRP view are replaced by the
	// event's Policy and VRPs (both may be nil — an ROV rollback).
	EvPolicyChange
	// EvROAChange: the VRP views already assigned to validating ASes changed
	// for the given ROA Prefixes (issuance, expiry, SLURM edits). The engine
	// mutates nothing; it re-converges every interned prefix the listed
	// space overlaps so import-time validation is re-run where it can differ.
	EvROAChange
	// EvLinkChange: a new or re-typed adjacency between AS and Peer with
	// relationship Rel (as Graph.Link). A new edge can shift best paths for
	// arbitrary prefixes, so this dirties the whole interned prefix set.
	EvLinkChange
	// EvLeakChange: AS starts (Leak true) or stops (Leak false) leaking —
	// exporting every best route to every neighbor regardless of Gao-Rexford
	// scoping. A leak reroutes arbitrary prefixes through the leaker, so this
	// dirties the whole interned prefix set, exactly like a link change.
	EvLeakChange
)

// String returns the kind's wire-ish name.
func (k EventKind) String() string {
	switch k {
	case EvAnnounce:
		return "announce"
	case EvWithdraw:
		return "withdraw"
	case EvPolicyChange:
		return "policy-change"
	case EvROAChange:
		return "roa-change"
	case EvLinkChange:
		return "link-change"
	case EvLeakChange:
		return "leak-change"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// RouteEvent is one typed routing-state change. Which fields are read
// depends on Kind:
//
//	EvAnnounce/EvWithdraw: AS, Prefix, and optionally ForgedOrigin
//	EvPolicyChange:        AS, Policy, VRPs, and optionally Prefixes as an
//	                       explicit dirty-scope hint (when empty the engine
//	                       derives the scope: the prefixes an origination of
//	                       which is Invalid under the old or new VRP view)
//	EvROAChange:           Prefixes (the changed ROA space)
//	EvLinkChange:          AS, Peer, Rel
//	EvLeakChange:          AS, Leak
type RouteEvent struct {
	Kind   EventKind
	AS     inet.ASN
	Peer   inet.ASN
	Rel    Relationship
	Prefix netip.Prefix
	// Prefixes carries multi-prefix scopes (EvROAChange, and the optional
	// EvPolicyChange hint).
	Prefixes []netip.Prefix
	Policy   ImportPolicy
	VRPs     *rpki.VRPSet
	// ForgedOrigin, when non-zero on an EvAnnounce, makes AS announce Prefix
	// with a wire path ending in this ASN instead of itself (a forged-origin
	// hijack that validates under ROV). Withdrawing the prefix clears it.
	ForgedOrigin inet.ASN
	// Leak carries the desired leaking state for EvLeakChange.
	Leak bool
}

// EventResult summarizes what one ApplyEvents batch did.
type EventResult struct {
	// Events is the number of events consumed (before coalescing).
	Events int
	// DirtyPrefixes is how many interned prefixes were re-converged; 0 means
	// the batch coalesced to a no-op (e.g. a withdraw+announce flap) and no
	// propagation ran.
	DirtyPrefixes int
	// Rounds is the number of propagation rounds the re-convergence took.
	Rounds int
	// ASesTouched counts ASes whose Loc-RIB changed during propagation.
	ASesTouched int
	// Updates counts the updates the propagation delivered over all its
	// rounds, the originations' seed included.
	Updates int
}

// ApplyEvents applies a batch of route events and incrementally re-converges
// exactly the affected prefixes. It is the single write path of the
// convergence engine: Converge, ConvergePrefixes, and ApplyEvents all drive
// the same dirty-set propagation core, so an event batch yields routing
// state bit-identical to a from-scratch rebuild of the same world (the
// equivalence property tests pin this down at multiple worker counts).
//
// Announce/withdraw events are coalesced per (AS, prefix): only the net
// origination change is applied, so a transient flap — withdraw immediately
// followed by re-announce inside one batch — costs microseconds and leaves
// routing state untouched. Policy, ROA, and link events accumulate their
// dirty scopes into the same re-convergence, so a batch pays one propagation
// regardless of how many events it carries.
//
// Graph membership and policy mutations are applied in order; the batch is
// not transactional — on error, events preceding the faulty one may already
// have been applied (the returned result reports zero work in that case, and
// callers should treat the graph as needing a full Converge).
//
// Converge must have run once before the first event batch, exactly as with
// ConvergePrefixes.
func (g *Graph) ApplyEvents(events []RouteEvent) (EventResult, error) {
	start := time.Now()
	res := EventResult{Events: len(events)}
	g.stats.Batches.Add(1)
	g.stats.EventsApplied.Add(uint64(len(events)))
	if len(events) == 0 {
		g.stats.reconverge.Record(int64(time.Since(start)))
		return res, nil
	}

	// Pass 1: coalesce origination events into the net desired state and
	// apply the structural mutations (policy swaps, links), accumulating the
	// dirty prefix-ID scope as we go.
	type originKey struct {
		asn inet.ASN
		id  PrefixID
	}
	type originState struct {
		active bool
		forged inet.ASN
	}
	var (
		order     []originKey
		desired   map[originKey]originState
		leakOrder []inet.ASN
		leakWant  map[inet.ASN]bool
		dirty     map[PrefixID]struct{}
		origins   [][]inet.ASN // wireOrigins, built by the first policy change
	)
	dirtyAll := false
	markDirty := func(id PrefixID) {
		if dirty == nil {
			dirty = make(map[PrefixID]struct{}, 8)
		}
		dirty[id] = struct{}{}
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case EvAnnounce, EvWithdraw:
			if g.ASes[ev.AS] == nil {
				return EventResult{Events: len(events)}, fmt.Errorf("bgp: %s event for unknown AS %v", ev.Kind, ev.AS)
			}
			if !ev.Prefix.IsValid() {
				return EventResult{Events: len(events)}, fmt.Errorf("bgp: %s event for AS %v with invalid prefix", ev.Kind, ev.AS)
			}
			k := originKey{ev.AS, g.tab.Intern(ev.Prefix)}
			if desired == nil {
				desired = make(map[originKey]originState, 4)
			}
			if _, seen := desired[k]; !seen {
				order = append(order, k)
			}
			st := originState{active: ev.Kind == EvAnnounce}
			if st.active && ev.ForgedOrigin != ev.AS {
				st.forged = ev.ForgedOrigin
			}
			desired[k] = st
		case EvPolicyChange:
			a := g.ASes[ev.AS]
			if a == nil {
				return EventResult{Events: len(events)}, fmt.Errorf("bgp: policy-change event for unknown AS %v", ev.AS)
			}
			oldVRPs := a.VRPs
			a.Policy, a.VRPs = ev.Policy, ev.VRPs
			if len(ev.Prefixes) > 0 {
				for _, p := range ev.Prefixes {
					markDirty(g.tab.Intern(p))
				}
				continue
			}
			// Under the ImportPolicy contract every announcement that is not
			// Invalid imports the same under any policy, so the change can
			// alter routing only for prefixes some origination of which is
			// Invalid in the old or the new view. Where a view covers a
			// prefix without invalidating it, selection stands and only the
			// validity this AS recorded at import (NotFound vs Valid) moves.
			// Originations changed by this batch are dirtied in pass 2.
			if origins == nil {
				origins = g.wireOrigins()
			}
			for id := range origins { // prefixes interned by this batch hold no routes yet
				p := g.tab.Prefix(PrefixID(id))
				oldCov, newCov := oldVRPs.Covering(p), ev.VRPs.Covering(p)
				if len(oldCov)+len(newCov) == 0 {
					continue
				}
				invalid := false
				for _, o := range origins[id] {
					invalid = invalid || rpki.ValidateCovering(oldCov, p, o) == rpki.Invalid ||
						rpki.ValidateCovering(newCov, p, o) == rpki.Invalid
				}
				if invalid {
					markDirty(PrefixID(id))
				} else {
					a.refreshValidity(PrefixID(id), newCov)
				}
			}
		case EvROAChange:
			for _, roa := range ev.Prefixes {
				if !roa.IsValid() || !roa.Addr().Is4() {
					continue // the table interns IPv4 prefixes only
				}
				rk := inet.PrefixKey(roa.Masked())
				for id, k := range g.tab.keys {
					if keyOverlaps(rk, k) {
						markDirty(PrefixID(id))
					}
				}
			}
		case EvLinkChange:
			if err := g.Link(ev.AS, ev.Peer, ev.Rel); err != nil {
				return EventResult{Events: len(events)}, err
			}
			dirtyAll = true
		case EvLeakChange:
			if g.ASes[ev.AS] == nil {
				return EventResult{Events: len(events)}, fmt.Errorf("bgp: leak-change event for unknown AS %v", ev.AS)
			}
			if leakWant == nil {
				leakWant = make(map[inet.ASN]bool, 2)
			}
			if _, seen := leakWant[ev.AS]; !seen {
				leakOrder = append(leakOrder, ev.AS)
			}
			leakWant[ev.AS] = ev.Leak
		default:
			return EventResult{Events: len(events)}, fmt.Errorf("bgp: unknown event kind %d", ev.Kind)
		}
	}

	// Pass 2: apply the net origination changes. Only transitions dirty a
	// prefix — a flap that withdraws and re-announces inside the batch
	// coalesces to nothing here. A forged-origin change dirties the prefix
	// even when the origination set itself is unchanged: the wire path the
	// origin seeds is different, so it must re-flood.
	for _, k := range order {
		a := g.ASes[k.asn]
		p := g.tab.Prefix(k.id)
		st := desired[k]
		changed := a.setOriginated(p, st.active)
		if a.setForged(p, st.forged) {
			changed = true
		}
		if changed {
			markDirty(k.id)
		}
	}
	// Net leak toggles dirty the whole prefix set, like link changes.
	for _, asn := range leakOrder {
		if a := g.ASes[asn]; a.Leaking != leakWant[asn] {
			a.Leaking = leakWant[asn]
			dirtyAll = true
		}
	}

	var pids []PrefixID
	if dirtyAll {
		pids = make([]PrefixID, g.tab.Len())
		for id := range pids {
			pids[id] = PrefixID(id)
		}
	} else if len(dirty) > 0 {
		pids = make([]PrefixID, 0, len(dirty))
		for id := range dirty {
			pids = append(pids, id)
		}
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	}
	fl, err := g.convergeDirty(pids)
	if dirtyAll {
		// Topology-wide changes (links, leak toggles) can reroute even
		// destinations no interned prefix covers; move the floor so cached
		// paths toward the NoPrefixID class drop too. bumpAffected's dense
		// path covers every interned prefix but not that class.
		g.affectedFloor = g.version
	}
	res.DirtyPrefixes = len(pids)
	res.Rounds = fl.rounds
	res.ASesTouched = fl.touched
	res.Updates = fl.updates
	if len(pids) > 0 {
		g.stats.IncrementalConverges.Add(1)
		g.stats.DirtyPrefixes.Add(uint64(len(pids)))
		g.stats.Rounds.Add(uint64(fl.rounds))
		g.stats.ASesTouched.Add(uint64(fl.touched))
	}
	g.stats.reconverge.Record(int64(time.Since(start)))
	return res, err
}

// wireOrigins lists, per interned prefix, the origin ASN each current
// origination of it carries on the wire (the forged origin where one is
// set) — the origins any route for the prefix can validate against.
func (g *Graph) wireOrigins() [][]inet.ASN {
	out := make([][]inet.ASN, g.tab.Len())
	for _, a := range g.ASes {
		for _, p := range a.Originated {
			id, ok := g.tab.IDOf(p)
			if !ok {
				continue
			}
			o := a.ASN
			if f := a.forgedFor(g.tab.Prefix(id)); f != 0 {
				o = f
			}
			out[id] = append(out[id], o)
		}
	}
	return out
}

// refreshValidity re-records, against the covering VRPs of the AS's new
// view, the validity of every route it holds for a prefix whose import
// decisions a policy change left alone. Nothing is re-selected and no epoch
// moves: recorded validity feeds no decision after import.
func (a *AS) refreshValidity(id PrefixID, covering []rpki.VRP) {
	if int(id) >= len(a.adjIn) || a.adjIn[id].r0.ann == nil {
		return // nothing learned; a self route records no validity
	}
	p := a.tab.Prefix(id)
	validity := func(ann *wireAnn) rpki.Validity {
		return rpki.ValidateCovering(covering, p, ann.origin())
	}
	a.materialize()
	c := &a.adjIn[id]
	c.r0.validity = validity(c.r0.ann)
	sp := a.spillOf(c)
	for i := range sp {
		sp[i].validity = validity(sp[i].ann)
	}
}

// SetOriginated adds or removes an originated prefix on the AS, reporting
// whether the set changed. ApplyEvents uses it to apply net origination
// changes; direct callers must re-converge the prefix afterwards.
func (a *AS) setOriginated(p netip.Prefix, active bool) bool {
	idx := -1
	for i, own := range a.Originated {
		if own == p {
			idx = i
			break
		}
	}
	switch {
	case active && idx < 0:
		a.Originated = append(a.Originated, p)
		return true
	case !active && idx >= 0:
		a.Originated = append(a.Originated[:idx], a.Originated[idx+1:]...)
		return true
	}
	return false
}

// ConvergeStats accumulates the convergence engine's observability counters.
// All fields are atomics: the serving daemon's /metrics endpoint reads them
// concurrently with the measurement loop's convergences.
type ConvergeStats struct {
	// EventsApplied counts RouteEvents consumed; Batches counts ApplyEvents
	// calls (a batch may coalesce to zero work).
	EventsApplied atomic.Uint64
	Batches       atomic.Uint64
	// IncrementalConverges counts dirty-set propagation runs (event batches
	// and ConvergePrefixes calls that had work); FullConverges counts
	// from-scratch Converge runs.
	IncrementalConverges atomic.Uint64
	FullConverges        atomic.Uint64
	// DirtyPrefixes, ASesTouched and Rounds are cumulative over incremental
	// runs: prefixes re-flooded, ASes whose Loc-RIB changed, and propagation
	// rounds taken.
	DirtyPrefixes atomic.Uint64
	ASesTouched   atomic.Uint64
	Rounds        atomic.Uint64
	// ForkedRounds and SerialRounds split every propagation round, full
	// floods' included, by whether its import or emission had the work to
	// run on more than one worker (forkGrain); at GOMAXPROCS 1 every round
	// is serial.
	ForkedRounds atomic.Uint64
	SerialRounds atomic.Uint64

	// reconverge is the wall time of every ApplyEvents and ConvergePrefixes
	// call since the graph was built, in nanoseconds.
	reconverge telemetry.Histogram

	// footprint is Graph.Footprint as the last convergence run left it.
	footprint [len(footprintKeys)]atomic.Uint64
}

// Footprint says where a graph's retained routing memory sits. DenseBytes is
// the per-(AS, prefix) tables (Adj-RIB-In cells and the Loc-RIB index, by
// capacity). SpillLiveBytes is the spill routes held, SpillLenBytes adds the
// unused tails of runs and the free-listed runs, SpillCapBytes the unfilled
// space of segments — all zero after a full flood, which releases the pool,
// and regrown by the incremental batches since. The SpillFlood figures are
// the same three as the last full flood left them, before the release: the
// peak the pool reaches. Announcements counts what each prefix's latest flood
// minted: the announcements held routes point to, plus any a later one of the
// same flood superseded (none in a cold convergence of the default world).
// AnnouncementBytes is what those take in the arenas, headers and paths.
// FloodBytes is the update-stream buffers kept for the next batch, by
// capacity — zero after a full flood.
type Footprint struct {
	DenseBytes, SpillLiveBytes, SpillLenBytes, SpillCapBytes    uint64
	SpillFloodLiveBytes, SpillFloodLenBytes, SpillFloodCapBytes uint64
	Announcements, AnnouncementBytes, FloodBytes                uint64
}

var footprintKeys = [...]string{"dense_bytes", "spill_live_bytes", "spill_len_bytes", "spill_cap_bytes",
	"spill_flood_live_bytes", "spill_flood_len_bytes", "spill_flood_cap_bytes",
	"announcements", "announcement_bytes", "flood_bytes"}

// Footprint measures the graph as its last convergence indexed it, in
// O(ASes + prefixes): a few words per AS, nothing per route. Like every read
// of routing state it must not run beside a convergence; each run leaves a
// copy in Stats for /metrics' concurrent readers.
func (g *Graph) Footprint() Footprint {
	const cell, rt, upd = uint64(unsafe.Sizeof(adjCell{})), uint64(unsafe.Sizeof(route{})), uint64(unsafe.Sizeof(update{}))
	const ann, asn = uint64(unsafe.Sizeof(wireAnn{})), uint64(unsafe.Sizeof(inet.ASN(0)))
	var f Footprint
	for _, a := range g.asList {
		f.DenseBytes += uint64(cap(a.adjIn))*cell + uint64(cap(a.best))*2
		f.SpillLiveBytes += uint64(a.spillLive) * rt
		f.SpillLenBytes += uint64(a.spillLen) * rt
		f.SpillCapBytes += uint64(a.spillCap) * rt
	}
	f.SpillFloodLiveBytes = uint64(g.floodSpill[0]) * rt
	f.SpillFloodLenBytes = uint64(g.floodSpill[1]) * rt
	f.SpillFloodCapBytes = uint64(g.floodSpill[2]) * rt
	for _, m := range g.minted {
		f.Announcements += uint64(m.anns)
		f.AnnouncementBytes += uint64(m.anns)*ann + uint64(m.asns)*asn
	}
	f.FloodBytes = uint64(cap(g.grouped)+cap(g.queue)) * upd
	for i := range g.prop {
		f.FloodBytes += uint64(cap(g.prop[i].changed)) * 4
	}
	return f
}

// recordFootprint publishes the footprint to /metrics' concurrent readers.
func (g *Graph) recordFootprint() {
	f := g.Footprint()
	for i, v := range [...]uint64{f.DenseBytes, f.SpillLiveBytes, f.SpillLenBytes, f.SpillCapBytes,
		f.SpillFloodLiveBytes, f.SpillFloodLenBytes, f.SpillFloodCapBytes,
		f.Announcements, f.AnnouncementBytes, f.FloodBytes} {
		g.stats.footprint[i].Store(v)
	}
}

// WriteMetrics reports the counters (/metrics' converge section). Mean ASes
// touched per incremental run and the re-convergence quantiles are derived
// here so consumers get ready-to-plot numbers.
func (s *ConvergeStats) WriteMetrics(w *telemetry.Writer) {
	var meanTouched float64
	if inc := s.IncrementalConverges.Load(); inc > 0 {
		meanTouched = float64(s.ASesTouched.Load()) / float64(inc)
	}
	w.Uint("events_applied", s.EventsApplied.Load())
	w.Uint("event_batches", s.Batches.Load())
	w.Uint("incremental_converges", s.IncrementalConverges.Load())
	w.Uint("full_converges", s.FullConverges.Load())
	w.Uint("dirty_prefixes", s.DirtyPrefixes.Load())
	w.Uint("ases_touched", s.ASesTouched.Load())
	w.Float("ases_touched_mean", meanTouched)
	w.Uint("rounds", s.Rounds.Load())
	w.Uint("forked_rounds", s.ForkedRounds.Load())
	w.Uint("serial_rounds", s.SerialRounds.Load())
	w.Float("reconverge_p50_us", float64(s.reconverge.Quantile(0.50))/1e3)
	w.Float("reconverge_p99_us", float64(s.reconverge.Quantile(0.99))/1e3)
	for i, k := range footprintKeys {
		w.Uint(k, s.footprint[i].Load())
	}
}

// Stats returns the graph's convergence counters (never nil; shared with the
// engine, so the returned pointer stays live).
func (g *Graph) Stats() *ConvergeStats { return &g.stats }
