package core

import (
	"maps"
	"net/netip"
	"slices"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/faults"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/scan"
	"github.com/netsec-lab/rovista/internal/seedmix"
)

// Stage names, as they appear in Metrics and Progress callbacks.
const (
	StageTestPrefixes  = "test-prefixes"
	StageQualifyTNodes = "qualify-tnodes"
	StageDiscoverVVPs  = "discover-vvps"
	StageMeasurePairs  = "measure-pairs"
	StageScore         = "score"
)

// testPrefixes is stage 1: the exclusively-invalid prefixes of the
// collector's partial view (§3.2) through the runner's incrementally
// maintained set — only prefixes whose routing epoch moved (all of them when
// the VRP set was swapped) are re-evaluated against the feeders' Loc-RIBs,
// and the count is returned for the round's Metrics. The result is pinned
// equal to Collector.Snapshot(g).ExclusivelyInvalid(vrps).
func (r *Runner) testPrefixes() (prefixes []netip.Prefix, reevaluated int) {
	return r.exclusive.Update(r.W.Collector, r.W.Graph, r.W.VRPs)
}

// tnodeEntry is what stage 2 keeps about one candidate address under a test
// prefix: the §4.1 scan's answer, valid while the stamps of the three
// destinations the scan sends packets toward — the candidate, ClientA and
// ClientB — are the ones it ran under, and the false-tNode verdict, valid
// for the reference probes of generation probeGen besides.
type tnodeEntry struct {
	addr     netip.Addr
	stamps   [3]pipeline.DestStamp
	answer   scan.TNodeAnswer
	probeGen uint64 // 0: no verdict yet
	falseT   bool
}

// tnodeMemo is stage 2's kept state, under the pair grid's own contract
// (both are emptied when the round fingerprint changes): the entries of the
// last round's candidates (ascending by address, as the candidates are),
// the reference probes their verdicts were computed against, and the last
// round's tNode list, which an equal list is served from.
type tnodeMemo struct {
	entries    []tnodeEntry
	rov, clean []inet.ASN
	probeGen   uint64
	list       []scan.TNode

	// Round buffers, reused.
	cands          []scan.TNode
	next           []tnodeEntry
	miss           []int
	missAddrs      []netip.Addr
	rovBuf, clnBuf []inet.ASN
	out            []scan.TNode
}

// qualifyTNodes is stage 2: the hosts under the test prefixes that pass the
// §4.1 qualification scan and the false-tNode mitigation, and how many of
// them had to be scanned this round. A candidate whose three stamps and
// round fingerprint are unchanged keeps its answer — the scan is a pure
// function of (wiring, address, seed), so re-running it would return the
// same — and the rest are scanned on ex.
func (r *Runner) qualifyTNodes(prefixes []netip.Prefix, ex *pipeline.Executor) (tnodes []scan.TNode, scanned int) {
	m := &r.tnodes
	net := r.W.Net
	sc := r.scanner(net, ex)
	m.cands = sc.TNodeCandidates(m.cands[:0], prefixes)

	// Candidates and entries both ascend by address: one merge pass carries
	// the entries that still hold and drops those of departed candidates.
	clientA, clientB := destStamp(net, r.W.ClientA.Addr), destStamp(net, r.W.ClientB.Addr)
	next, miss, missAddrs := m.next[:0], m.miss[:0], m.missAddrs[:0]
	old := m.entries
	for i, c := range m.cands {
		for len(old) > 0 && old[0].addr.Less(c.Addr) {
			old = old[1:]
		}
		stamps := [3]pipeline.DestStamp{destStamp(net, c.Addr), clientA, clientB}
		if len(old) > 0 && old[0].addr == c.Addr && old[0].stamps == stamps {
			next = append(next, old[0])
			continue
		}
		next = append(next, tnodeEntry{addr: c.Addr, stamps: stamps})
		miss, missAddrs = append(miss, i), append(missAddrs, c.Addr)
	}
	for k, ans := range sc.QualifyTNodes(missAddrs) {
		next[miss[k]].answer = ans
	}
	m.entries, m.next, m.miss, m.missAddrs = next, m.entries, miss, missAddrs

	// The false-tNode verdicts hold while the probe lists do; routing toward
	// the candidate is already in its stamp.
	m.rovBuf, m.clnBuf = r.referenceProbes(m.rovBuf[:0], m.clnBuf[:0])
	if m.probeGen == 0 || !slices.Equal(m.rov, m.rovBuf) || !slices.Equal(m.clean, m.clnBuf) {
		m.probeGen++
		m.rov, m.clean = append(m.rov[:0], m.rovBuf...), append(m.clean[:0], m.clnBuf...)
	}
	out := m.out[:0]
	for i := range next {
		e := &next[i]
		if !e.answer.Qualified {
			continue
		}
		if e.probeGen != m.probeGen {
			e.probeGen, e.falseT = m.probeGen, r.falseTNode(m.rov, m.clean, e.addr)
		}
		if !e.falseT {
			tn := m.cands[i]
			tn.Port = e.answer.Port
			out = append(out, tn)
		}
	}
	m.out = out
	// Snapshots share the list while it does not change.
	if len(out) == 0 {
		m.list = nil
	} else if !slices.Equal(m.list, out) {
		m.list = slices.Clone(out)
	}
	return m.list, len(miss)
}

// measurePair measures one pair — tNode tn and vVP vvp of an AS — over the
// round's network view net, inside an isolated context (cloned hosts on an
// overlay of the view), with the pair's seed derived from (round seed, AS,
// tNode address, vVP address) through the splitmix64 mixer. The seed names
// the hosts measured, not where they sit in the round's lists, so a pair
// whose routes did not move measures the same whatever rows come and go
// around it. Isolation is what lets the executor run pairs on any number of
// workers with bit-for-bit identical results.
//
// On a network armed with faults, an unusable measurement is retried with
// bounded backoff (pairRetries): each attempt derives a fresh seed from
// (pair seed, attempt) and shifts its probe schedule later in virtual time,
// so a transient fault (flap window, loss streak, background burst) does not
// recur by construction. The attempt sequence is a pure function of the pair
// identity, preserving worker-count determinism.
func (r *Runner) measurePair(net *netsim.Network, asn inet.ASN, tn scan.TNode, vvp netip.Addr) detect.PairResult {
	base := seedmix.Mix(r.Cfg.Seed, int64(uint32(asn)), int64(inet.V4Int(tn.Addr)), int64(inet.V4Int(vvp)))
	res := detect.MeasurePairIsolated(net, r.W.ClientA, vvp, tn, base, 0, r.Cfg.RecordPairs)
	if res.Usable || !net.Faults.Enabled() {
		return res
	}
	for attempt := 1; !res.Usable && attempt <= pairRetries; attempt++ {
		events := res.SimEvents
		res = detect.MeasurePairIsolated(net, r.W.ClientA, vvp, tn,
			seedmix.Mix(base, int64(attempt)), float64(attempt)*retryBackoff, r.Cfg.RecordPairs)
		res.Attempts = attempt + 1
		res.SimEvents += events
	}
	return res
}

// roundFingerprint captures every measurement input that is not part of a
// pair's identity or routing/liveness stamp: if any field changes between
// rounds, no cached result or tNode answer is reusable, and Measure empties
// the pair cache and the tNode memo. It is
// a comparable struct (compared with ==), deliberately NOT a hash — a
// collision would silently splice a stale result into the grid and break
// the bit-identical contract. samples is Cfg.RecordPairs: a result measured
// without its raw samples must not be served to a round that records them.
// The per-pair round is detect's constant schedule, and the retries and the
// vVP re-qualification follow faults, so neither needs a field of its own.
// Nor does the host population: a pair or a tNode scan runs on a closed
// view that sees only its own clones, and an address is attached at most
// once, so a host added elsewhere cannot reach a measurement.
type roundFingerprint struct {
	samples    bool
	seed       int64
	faults     faults.Profile
	faultSeed  int64
	clientAddr netip.Addr
}

// currentFingerprint builds the current round's fingerprint.
func (r *Runner) currentFingerprint() roundFingerprint {
	return roundFingerprint{
		samples:    r.Cfg.RecordPairs,
		seed:       r.Cfg.Seed,
		faults:     r.W.Net.Faults,
		faultSeed:  r.W.Net.FaultSeed,
		clientAddr: r.W.ClientA.Addr,
	}
}

// destStamp resolves one packet destination's validity stamp over the
// network view net. A pair measurement exchanges packets toward exactly
// three destinations — the client, the vVP, and the tNode — so
// pipeline.PairStamp of those three stamps is a complete routing and
// liveness key for the pair; nothing else outside the round fingerprint can
// change the measurement's outcome.
func destStamp(net *netsim.Network, a netip.Addr) pipeline.DestStamp {
	id, epoch := net.PathEpoch(a)
	return pipeline.DestStamp{ID: uint32(id), Epoch: epoch, Vanished: net.IsVanished(a)}
}

// resetRoutes sizes this round's per-tNode-row route ids — the client's
// route toward the tNode — and per-vVP-column ids — the client's route
// toward the vVP and the vVP's back — all unresolved: pairKey looks a row or
// column up the first time a stale cell needs it. 0 marks unresolved; a
// route id is never 0, and an unknown route's 0 is simply looked up again.
func (r *Runner) resetRoutes(rows, cols int) {
	r.rowRoutes = append(r.rowRoutes[:0], make([]uint32, rows)...)
	r.colRoutes = append(r.colRoutes[:0], make([][2]uint32, cols)...)
}

// pairKey is the exact routing key of the pair of tNode row ti and vVP
// column k under this round's routing: the route ids of the five flows its
// packets take, and the two hosts' vanished bits from the round's stamps.
// The routes between the vVP and the tNode are the only per-cell ids.
func (r *Runner) pairKey(tn scan.TNode, ti int, v scan.VVP, k int) pipeline.PairKey {
	net, client := r.W.Net, r.W.ClientA
	row, col := &r.rowRoutes[ti], &r.colRoutes[k]
	if *row == 0 {
		*row = net.RouteID(client.ASN, tn.Addr)
	}
	if col[0] == 0 || col[1] == 0 {
		*col = [2]uint32{net.RouteID(client.ASN, v.Addr), net.RouteID(v.ASN, client.Addr)}
	}
	var key pipeline.PairKey
	key.Routes[pipeline.RouteClientTNode] = *row
	key.Routes[pipeline.RouteClientVVP] = col[0]
	key.Routes[pipeline.RouteVVPClient] = col[1]
	key.Routes[pipeline.RouteVVPTNode] = net.RouteID(v.ASN, tn.Addr)
	key.Routes[pipeline.RouteTNodeVVP] = net.RouteID(tn.ASN, v.Addr)
	key.VVPVanished, key.TNodeVanished = r.cols[k].Vanished, r.rows[ti].Vanished
	return key
}

// vvpGrouping is everything a round derives from the discovered vVP list
// and the selection knobs alone: the per-AS groups the Snapshot exposes and
// the pair grid's units. It is rebuilt when discovery re-runs or a knob
// changes and shared, read-only, by every Snapshot in between.
type vvpGrouping struct {
	cutoff  float64
	minVVPs int

	byAS  map[inet.ASN][]scan.VVP
	rates map[inet.ASN][]float64
	// units are the ASes with enough vVPs, ascending, each capped; addrs
	// lists their vVP addresses in grid column order.
	units []pipeline.Unit
	addrs []netip.Addr
}

// grouping applies the §6.1 background cutoff and the per-AS vVP bounds to
// the discovered list, reusing the last round's result when it is provably
// the same: the same discovery (whose re-runs drop the memo), unchanged
// knobs.
func (r *Runner) grouping(all []scan.VVP) *vvpGrouping {
	cfg := &r.Cfg
	if g := r.groups; g != nil && g.cutoff == cfg.BackgroundCutoff && g.minVVPs == cfg.MinVVPsPerAS {
		return g
	}
	g := &vvpGrouping{
		cutoff: cfg.BackgroundCutoff, minVVPs: cfg.MinVVPsPerAS,
		byAS:  make(map[inet.ASN][]scan.VVP),
		rates: make(map[inet.ASN][]float64),
	}
	for _, v := range all {
		g.rates[v.ASN] = append(g.rates[v.ASN], v.BackgroundRate)
		if v.BackgroundRate <= cfg.BackgroundCutoff {
			g.byAS[v.ASN] = append(g.byAS[v.ASN], v)
		}
	}
	asns := make([]inet.ASN, 0, len(g.byAS))
	for asn := range g.byAS {
		asns = append(asns, asn)
	}
	slices.Sort(asns)
	for _, asn := range asns {
		vvps := g.byAS[asn]
		if len(vvps) < cfg.MinVVPsPerAS {
			continue
		}
		if len(vvps) > maxVVPsPerAS {
			vvps = vvps[:maxVVPsPerAS]
		}
		g.units = append(g.units, pipeline.Unit{ASN: asn, VVPs: vvps})
		for _, v := range vvps {
			g.addrs = append(g.addrs, v.Addr)
		}
	}
	r.groups = g
	return g
}

// unitScore is one AS unit's share of a round's outcome: its report (nil
// when no tNode was measurable) and its contributions to the round-wide
// counters. A unit whose cells and layout did not change keeps its
// unitScore — and its immutable ASReport — from the last round.
type unitScore struct {
	report                     *ASReport
	consistent, total          int
	usable, retries, recovered int
	// Re-qualification: the unit's vVPs whose column came back mostly
	// unusable, and how many of those failed the scan and were discarded.
	unstable, dropped int
}

// requalifyUnit is the vVP re-qualification pass over one unit's cells: a
// column that came back mostly unusable points at the vantage point itself
// (churned away, counter gone unstable) rather than at any tNode. Re-run the
// §4.2 qualification scan for such vVPs; the ones that fail it have their
// results discarded from cells (a copy of the raw grid: a later round must
// reuse the measurement, not this view of it) so an unstable counter can
// never vote on a verdict. The scan is seeded per address and runs on
// clones, so the pass is deterministic at any worker count and repeatable.
func (r *Runner) requalifyUnit(sc *scan.Scanner, u pipeline.Unit, nT int, cells []detect.PairResult) (unstable, dropped int) {
	nv := len(u.VVPs)
	for vi, v := range u.VVPs {
		bad := 0
		for ti := 0; ti < nT; ti++ {
			if !cells[ti*nv+vi].Usable {
				bad++
			}
		}
		if 2*bad < nT {
			continue
		}
		unstable++
		if _, ok := sc.QualifyVVP(v.Addr, seedmix.Mix(r.Cfg.Seed, faults.StreamRequalify, int64(inet.V4Int(v.Addr)))); ok {
			continue
		}
		dropped++
		for ti := 0; ti < nT; ti++ {
			res := &cells[ti*nv+vi]
			res.Usable = false
			res.Outcome = detect.Inconclusive
		}
	}
	return unstable, dropped
}

// scoreUnit reduces one unit's cells. raw is the grid as measured (retry
// accounting), results the grid after any re-qualification discards (what
// the scoring rule and the usable count see).
func scoreUnit(u pipeline.Unit, tnodes []scan.TNode, raw, results []detect.PairResult) unitScore {
	var us unitScore
	for i := range raw {
		if raw[i].Attempts > 1 {
			us.retries += raw[i].Attempts - 1
			if raw[i].Usable {
				us.recovered++
			}
		}
		if results[i].Usable {
			us.usable++
		}
	}
	out := pipeline.ScoreAS(tnodes, len(u.VVPs), results)
	us.consistent, us.total = out.ConsistentCells, out.TotalCells
	if out.TNodesMeasured > 0 {
		us.report = &ASReport{
			ASN:            u.ASN,
			Score:          out.Score,
			VVPs:           len(u.VVPs),
			TNodesMeasured: out.TNodesMeasured,
			TNodesFiltered: out.TNodesFiltered,
			Unanimous:      out.Unanimous,
			Verdicts:       out.Verdicts,
		}
	}
	return us
}

// progress forwards to the configured callback, if any.
func (r *Runner) progress(stage string, done, total int) {
	if r.Cfg.Progress != nil {
		r.Cfg.Progress(stage, done, total)
	}
}

// Measure runs one complete RoVista round at the world's current day in five
// stages: test prefixes (§3.2), tNodes (§4.1), vVPs (§4.2), per-pair
// measurement (§4.3) and per-AS scoring (§6.2). The scans' sweeps and the
// pair-measurement stage run on Cfg.Workers goroutines. Every scan and every pair runs in an isolated context whose
// state derives only from its identity and the round seed, so the tNode and
// vVP lists, the flat result grid — and therefore the whole Snapshot — are
// identical for every worker count.
//
// Every stage keeps its output while the epoch of its scope is unchanged
// (DESIGN.md "Incremental rounds") and the round fingerprint, compared once
// here, holds; so a persistent Runner's round costs what the last batch
// dirtied, and the Snapshot is bit-identical to a fresh Runner's either way.
func (r *Runner) Measure() *Snapshot {
	w := r.W
	fp := w.Net.Faults // armed on the network, never by the round
	forced := r.fullRound
	if r.fullRound = false; forced {
		r.reset()
	}
	if fpr := r.currentFingerprint(); fpr != r.fingerprint {
		// The scans are seeded too: a new seed rediscovers the vVPs.
		r.fingerprint, r.vvps = fpr, nil
		r.tnodes.entries = r.tnodes.entries[:0]
		r.pairCache.Flush()
	}
	ex := &pipeline.Executor{Workers: r.Cfg.Workers}
	metrics := &pipeline.Metrics{Workers: ex.PoolSize(), Stages: make([]pipeline.StageTiming, 0, 5)}
	if fp.Name != "" {
		metrics.Faults.Profile = fp.Name
	} else {
		metrics.Faults.Profile = "none"
	}
	snap := &Snapshot{Day: w.Day, Metrics: metrics}

	// 1. Collector view → exclusively-invalid test prefixes (§3.2).
	stop := metrics.StartStage(StageTestPrefixes)
	testPrefixes, reevaluated := r.testPrefixes()
	stop()
	snap.TestPrefixes = len(testPrefixes)
	metrics.TestPrefixesReevaluated = reevaluated
	r.progress(StageTestPrefixes, 1, 1)

	// 2. tNode discovery, qualification and false-tNode removal (§4.1).
	stop = metrics.StartStage(StageQualifyTNodes)
	snap.TNodes, metrics.TNodesRequalified = r.qualifyTNodes(testPrefixes, ex)
	stop()
	r.progress(StageQualifyTNodes, 1, 1)
	if len(snap.TNodes) < r.Cfg.MinTNodes {
		snap.Status = pipeline.RoundInsufficientTNodes
		snap.VVPsByAS = make(map[inet.ASN][]scan.VVP)
		snap.Reports = make(map[inet.ASN]*ASReport)
		snap.VVPBackgroundRates = make(map[inet.ASN][]float64)
		return snap
	}

	// 3. vVP discovery (§4.2) and the background-traffic cutoff (§6.1).
	stop = metrics.StartStage(StageDiscoverVVPs)
	all := r.discoverVVPs(ex)
	stop()
	r.progress(StageDiscoverVVPs, 1, 1)
	snap.AllVVPs = len(all)
	groups := r.grouping(all)
	snap.VVPsByAS, snap.VVPBackgroundRates = groups.byAS, groups.rates

	// vVP churn: some vantage points vanish between qualification and
	// measurement (the paper's daily scans routinely lost hosts). The round
	// measures over a view of the network without them, so the world is
	// never written; they stay in the pair grid — robustness means the round
	// must absorb measuring a dead column. Each decision keys on the fault
	// seed and the host address alone, so it is independent of map
	// iteration order, and the same vVPs churn in every round while the
	// profile stays armed.
	net := w.Net
	if fp.ChurnProb > 0 {
		var gone []netip.Addr
		for _, vvps := range snap.VVPsByAS {
			for _, v := range vvps {
				if faults.Bernoulli(fp.ChurnProb, w.Net.FaultSeed, faults.StreamChurn, int64(inet.V4Int(v.Addr))) {
					gone = append(gone, v.Addr)
				}
			}
		}
		metrics.Faults.VVPsChurned = len(gone)
		net = w.Net.Without(gone...)
	}

	// 4. Per-pair measurement. The grid is laid out AS-by-AS in ascending
	// ASN order, (tNode, vVP)-major within an AS; pair i always lands in
	// results[i], so execution order (and worker count) cannot change the
	// outcome — only isolation makes that true, see measurePair.
	units, tnodes := groups.units, snap.TNodes
	if len(units) == 0 {
		snap.Status = pipeline.RoundInsufficientVVPs
	}
	// first[u] is unit u's first cell; the last entry is the grid size.
	first := append(r.first[:0], 0)
	for _, u := range units {
		first = append(first, first[len(first)-1]+len(tnodes)*len(u.VVPs))
	}
	r.first = first
	nCells := first[len(units)]
	stop = metrics.StartStage(StageMeasurePairs)
	// The grid-shaped result cache is the round's result buffer, and only
	// cells whose identity or stamp moved since they were measured are
	// re-measured. Stamps are resolved over the round's view, so a vanished
	// vVP's dead-column result is cached under its vanished bit.
	metrics.FullRound = forced
	if r.pairCache == nil {
		r.pairCache = pipeline.NewResultCache()
	}
	grid := r.pairCache
	grid.BeginRound()
	sameLayout := grid.SetLayout(tnodes, units)
	r.rows, r.cols = r.rows[:0], r.cols[:0]
	for _, tn := range tnodes {
		r.rows = append(r.rows, destStamp(net, tn.Addr))
	}
	for _, a := range groups.addrs {
		r.cols = append(r.cols, destStamp(net, a))
	}
	r.stale = grid.Reuse(destStamp(net, w.ClientA.Addr), r.rows, r.cols, r.stale[:0])
	// A cell whose stamp moved keeps its result, or gets its previous one
	// back, when its exact routing key says nothing under it changed, or
	// changed back. This runs serially, so what is re-measured does not
	// depend on the worker count. changed lists the cells whose result is
	// not last round's: the re-measured and the restored.
	miss, changed := r.miss[:0], r.changed[:0]
	if len(r.stale) > 0 {
		r.resetRoutes(len(tnodes), len(groups.addrs))
		u, col := 0, 0 // the unit of cell i and its first vVP column
		for _, i := range r.stale {
			for i >= first[u+1] {
				col += len(units[u].VVPs)
				u++
			}
			unit := &units[u]
			ti, vi := (i-first[u])/len(unit.VVPs), (i-first[u])%len(unit.VVPs)
			switch grid.Revalidate(i, r.pairKey(tnodes[ti], ti, unit.VVPs[vi], col+vi)) {
			case pipeline.Revalidated:
				metrics.PairsRevalidated++
			case pipeline.Restored:
				metrics.PairsRestored++
				changed = append(changed, i)
			default:
				miss, changed = append(miss, i), append(changed, i)
			}
		}
	}
	r.miss, r.changed = miss, changed
	results := grid.Results()
	// Progress counts the reused cells as done from the start, so every
	// round ends at (nCells, nCells) — at once when nothing is re-measured.
	reused := nCells - len(miss)
	if r.Cfg.Progress != nil {
		if reused == nCells {
			r.progress(StageMeasurePairs, nCells, nCells)
		}
		ex.Progress = func(done, _ int) { r.progress(StageMeasurePairs, reused+done, nCells) }
	}
	// A missed cell's raw result goes straight into the grid, before the
	// re-qualification pass below (which works on a copy) can touch it; a
	// later round must reuse the raw measurement, not this round's
	// post-processed view of it.
	ex.ForEach(len(miss), func(k int) {
		i := miss[k]
		u, _ := slices.BinarySearch(first, i+1)
		u--
		unit := &units[u]
		ti, vi := (i-first[u])/len(unit.VVPs), (i-first[u])%len(unit.VVPs)
		results[i] = r.measurePair(net, unit.ASN, tnodes[ti], unit.VVPs[vi].Addr)
	})
	metrics.PairsMeasured = nCells
	metrics.PairsReused = reused
	metrics.PairsRemeasured = len(miss)
	for _, i := range miss {
		metrics.SimEvents += int64(results[i].SimEvents)
	}
	stop()

	// 5. Per-AS scoring with the §6.2 unanimity rule, after the vVP
	// re-qualification pass over the unit under faults. A unit keeps its
	// last unitScore when nothing under it changed: same layout (tNode list
	// and columns), none of its cells re-measured or restored.
	// Re-qualification is covered by that: it is a pure function of the
	// unit's cells and of a scan whose destinations, the vVP and the client,
	// are in every one of those cells' stamps.
	stop = metrics.StartStage(StageScore)
	carry := sameLayout && len(r.scores) == len(units)
	if !carry {
		r.scores = slices.Grow(r.scores[:0], len(units))[:len(units)]
		r.reports = make(map[inet.ASN]*ASReport, len(units))
	}
	raw := results
	var requalifier *scan.Scanner
	if fp.Enabled() {
		requalifier = r.scanner(net, ex)
		// A grid of another size is another layout or another fingerprint:
		// every unit below is dirty and refreshes its range.
		if len(r.requalified) != nCells {
			r.requalified = slices.Grow(r.requalified[:0], nCells)[:nCells]
		}
		results = r.requalified
	}
	reports, cloned := r.reports, !carry
	var sum unitScore
	k := 0 // cursor into changed, which ascends like the units' cell ranges
	for ui, u := range units {
		lo, hi := first[ui], first[ui+1]
		dirty := !carry || (k < len(changed) && changed[k] < hi)
		for k < len(changed) && changed[k] < hi {
			k++
		}
		us := &r.scores[ui]
		if dirty {
			if !cloned {
				// Earlier Snapshots still hold the carried map: edit a copy.
				reports, cloned = maps.Clone(reports), true
			}
			var unstable, dropped int
			if requalifier != nil {
				copy(results[lo:hi], raw[lo:hi])
				unstable, dropped = r.requalifyUnit(requalifier, u, len(tnodes), results[lo:hi])
			}
			*us = scoreUnit(u, tnodes, raw[lo:hi], results[lo:hi])
			us.unstable, us.dropped = unstable, dropped
			metrics.ASesRescored++
			if us.report != nil {
				reports[u.ASN] = us.report
			} else {
				delete(reports, u.ASN)
			}
		}
		sum.consistent += us.consistent
		sum.total += us.total
		sum.usable += us.usable
		sum.retries += us.retries
		sum.recovered += us.recovered
		sum.unstable += us.unstable
		sum.dropped += us.dropped
	}
	if r.Cfg.RecordPairs {
		snap.PairResults = append(snap.PairResults, results...)
	}
	r.reports, snap.Reports = reports, reports
	stop()
	r.progress(StageScore, 1, 1)
	metrics.PairsUsable = sum.usable
	metrics.PairsDiscarded = nCells - sum.usable
	metrics.Faults.PairRetries = sum.retries
	metrics.Faults.PairsRecovered = sum.recovered
	metrics.Faults.VVPsUnstable = sum.unstable
	metrics.Faults.VVPsRequalified = sum.unstable - sum.dropped
	metrics.Faults.VVPsDropped = sum.dropped
	if sum.total > 0 {
		snap.ConsistentPairFraction = float64(sum.consistent) / float64(sum.total)
	}
	// A round that measured units but could not score a single AS (every
	// column unusable or discarded — the harsh-faults regime) is degraded,
	// not a measurement of zero deployment.
	if len(snap.Reports) == 0 && snap.Status == pipeline.RoundOK {
		snap.Status = pipeline.RoundInsufficientVVPs
	}
	return snap
}
