package pipeline

import (
	"cmp"
	"maps"
	"math"
	"net/netip"
	"slices"

	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/scan"
)

// Unit is one AS's slice of the round's pair grid: the AS and its (already
// capped) vVP columns. The grid lays units out in the order given, each as
// len(tNodes) rows of len(VVPs) cells, so cell (unit u, tNode ti, vVP vi)
// sits at firstCell(u) + ti*len(VVPs) + vi.
type Unit struct {
	ASN  inet.ASN
	VVPs []scan.VVP
}

// DestStamp is the validity context of one packet destination: its interned
// LPM prefix id, the routing epoch at which forwarding toward that prefix
// last changed, and whether the host there is currently churned away. The
// round resolves one per tNode row, one per vVP column and one for the
// client; PairStamp folds three of them into a pair's Stamp.
type DestStamp struct {
	ID       uint32
	Epoch    uint64
	Vanished bool
}

// Stamp is the per-pair validity context a cached result was measured
// under. A pair measurement exchanges packets toward exactly three
// destinations — the measurement client, the vVP, and the tNode — so its
// outcome can only change when forwarding toward one of them changes
// (captured by Epoch, the max of the three destinations' affected routing
// epochs), when a destination is repointed at a different most-specific
// prefix (the three interned LPM ids — a table can grow a more specific
// prefix without moving any epoch), or when the measured hosts' liveness
// flips (the vanished bits). Epochs only ever increase, so two equal Stamps
// mean nothing relevant changed between the two rounds.
type Stamp struct {
	Epoch                      uint64
	ClientID, VVPID, TNodeID   uint32
	VVPVanished, TNodeVanished bool
}

// PairStamp folds a pair's three destination stamps into its Stamp.
func PairStamp(client, vvp, tnode DestStamp) Stamp {
	return Stamp{
		Epoch:         max(client.Epoch, vvp.Epoch, tnode.Epoch),
		ClientID:      client.ID,
		VVPID:         vvp.ID,
		TNodeID:       tnode.ID,
		VVPVanished:   vvp.Vanished,
		TNodeVanished: tnode.Vanished,
	}
}

// noStamp marks a cell that holds no result: no routing version ever
// reaches the epoch, so no round's stamp can equal it.
var noStamp = Stamp{Epoch: math.MaxUint64}

// The route slots of a PairKey: the flows a pair measurement's packets
// take, by (source host, destination host). The tNode answers the spoofed
// SYNs toward the vVP, never the client, so the sixth flow among the three
// hosts carries no packet and is not keyed.
const (
	RouteClientVVP   = iota // the client's probes toward the vVP
	RouteClientTNode        // the client's spoofed SYNs toward the tNode
	RouteVVPClient          // the vVP's replies to the probes
	RouteVVPTNode           // the vVP's RSTs toward the tNode
	RouteTNodeVVP           // the tNode's SYN-ACKs toward the vVP
	NumRoutes
)

// PairKey is the exact routing state a pair was measured under: the route
// id (netsim.Network.RouteID) of every flow its packets take, from the
// sending host's AS toward the receiving host's address, and whether the
// vVP and the tNode were there. A measurement's packets travel only among
// its three hosts, and a simulator flow is a function of its route's
// content, of whether the destination host is present, and of packet
// filters fixed when the world is built, so two measurements of one pair
// identity under one round fingerprint and equal PairKeys follow identical
// trajectories. Where the Stamp says whether anything under the pair may
// have moved, the key says whether anything did. A key with a zero route id
// is unknown and equals no key, not even itself. 24 bytes.
type PairKey struct {
	Routes                     [NumRoutes]uint32
	VVPVanished, TNodeVanished bool
}

// known reports whether every route of k has an id.
func (k *PairKey) known() bool {
	for _, id := range k.Routes {
		if id == 0 {
			return false
		}
	}
	return true
}

// Revalidation is what ResultCache.Revalidate decided for a cell whose
// stamp moved.
type Revalidation uint8

const (
	// Remeasure: neither of the cell's states was measured under this key;
	// the caller measures it into Results().
	Remeasure Revalidation = iota
	// Revalidated: the cell's result was measured under this key and stands.
	Revalidated
	// Restored: the cell's previous result was measured under this key and
	// is its result again — the result changed, without a measurement.
	Restored
)

// prevSlot is a cell's previous state: the result it held before its last
// re-measurement and the key that result was measured under. A zero key
// marks an empty slot. The result's VVP and TNode are the cell's identity,
// equal to the current result's, so the slot keeps only the fields a
// measurement decides.
type prevSlot struct {
	key       PairKey
	outcome   detect.Outcome
	usable    bool
	simEvents uint32
	fnRate    float64
	attempts  int
	ids       []uint16
	times     []float64
}

// exchange swaps the slot with the current state (key, r) of its cell.
func (p *prevSlot) exchange(key *PairKey, r *detect.PairResult) {
	old := *p
	*p = prevSlot{*key, r.Outcome, r.Usable, r.SimEvents, r.FNRate, r.Attempts, r.IDs, r.Times}
	*key = old.key
	r.Outcome, r.Usable, r.SimEvents, r.FNRate, r.Attempts, r.IDs, r.Times =
		old.outcome, old.usable, old.simEvents, old.fnRate, old.attempts, old.ids, old.times
}

// cells is the per-cell state of a grid or of a parked row, in flat arrays
// indexed alike. A cell holding no result has noStamp and a zero key. prev
// is nil until some cell first has a previous state.
type cells struct {
	stamps []Stamp
	keys   []PairKey
	res    []detect.PairResult
	prev   []prevSlot
}

// newCells returns n cells, with or without previous slots. Contents are
// zero: the caller fills or empties every cell.
func newCells(n int, withPrev bool) cells {
	g := cells{stamps: make([]Stamp, n), keys: make([]PairKey, n), res: make([]detect.PairResult, n)}
	if withPrev {
		g.prev = make([]prevSlot, n)
	}
	return g
}

// copyFrom copies n cells of src starting at from into g starting at to.
// Previous slots go along when both sides have them.
func (g *cells) copyFrom(to int, src *cells, from, n int) {
	copy(g.stamps[to:to+n], src.stamps[from:])
	copy(g.keys[to:to+n], src.keys[from:])
	copy(g.res[to:to+n], src.res[from:])
	if len(g.prev) > 0 {
		if len(src.prev) > 0 {
			copy(g.prev[to:to+n], src.prev[from:])
		} else {
			clear(g.prev[to : to+n])
		}
	}
}

// empty makes cells [to, to+n) hold nothing.
func (g *cells) empty(to, n int) {
	for i := to; i < to+n; i++ {
		g.stamps[i], g.keys[i] = noStamp, PairKey{}
	}
	if len(g.prev) > 0 {
		clear(g.prev[to : to+n])
	}
}

// Parked rows — rows no current layout references — are bounded twice over.
// rowRetainRounds is how many rounds a row stays after the layout last held
// it: under bounded flapping a test prefix that goes down comes back tens
// of rounds later, and its row's cells still hit wherever the routing under
// them has not moved. maxParkedGrids caps the parked rows at that many times
// the live row count, oldest first, so layouts that change every round
// cannot pile up a grid per round of the window.
const (
	rowRetainRounds = 128
	maxParkedGrids  = 8
)

// ResultCacheMaxGrids bounds the cache: Len never exceeds this many times
// the larger of this round's and the last round's live grid — the live grid
// itself, maxParkedGrids of parked rows, and the one grid's worth of rows
// this round's layout change may park on top before the next round trims.
const ResultCacheMaxGrids = maxParkedGrids + 2

// parkedRow is a row the current layout does not reference: one cell per
// column, in column order. It keeps the cells' current states only.
type parkedRow struct {
	cells
	lastLive uint64 // the last round whose layout held the row
}

// ResultCache memoizes per-pair measurement results across rounds so an
// incremental round re-measures only the pairs whose identity or routing key
// changed — O(churned pairs) instead of O(pairs); the runner Flushes it when
// its round fingerprint changes. It is
// shaped like the round's pair grid and doubles as the round's working
// result buffer: Results() is the flat grid itself, cell for cell, and while
// the layout (tNode rows, per-unit vVP columns) equals the previous round's
// reuse is a positional stamp compare — no hashing, no copying. A pair's
// identity is the hosts it measures, (ASN, tNode, vVP address), as its seed
// is; when the layout shifts, rows move by tNode and columns by (ASN, vVP
// address), rows the new layout lacks are parked (rowRetainRounds,
// maxParkedGrids), and everything else starts empty.
//
// A cell whose stamp moved is not yet stale: Revalidate compares the exact
// PairKey of this round's routing with the key the cell's result was
// measured under, and with the key of the cell's previous state — the
// result it held before its last re-measurement — so a route that flapped
// and came back gets its old result back instead of a measurement. The
// previous state lives beside the current one in the flat arrays and moves
// with it wherever its row moves in the grid; a parked row keeps current
// states only. A runner that measures once never fills a previous state and
// never allocates one.
//
// It stores raw results (before any post-measurement mutation such as vVP
// re-qualification discards — callers that mutate must copy first), and
// reusing a cell is bit-identical to re-measuring it: the measurement is a
// pure function of (identity, fingerprint, key), which together enumerate
// every input, and an equal stamp implies an equal key.
//
// The layout and stamps are written only from the round driver between
// stages; executor workers write disjoint cells of Results(). No locking.
type ResultCache struct {
	round uint64

	// The live layout and its cells. cols[u] is unit u's first column (one
	// extra entry holds the total), so its first cell is len(tnodes)*cols[u].
	tnodes []scan.TNode
	units  []Unit
	cols   []int
	cells

	parked map[scan.TNode]*parkedRow
	// rowPart is Reuse's scratch: per row, the client and tNode parts of
	// the pair stamp already folded.
	rowPart []Stamp
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{cols: []int{0}, parked: make(map[scan.TNode]*parkedRow)}
}

// Len returns the number of cells, live and parked, that hold a result
// (previous states not counted).
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	count := func(stamps []Stamp) {
		for i := range stamps {
			if stamps[i] != noStamp {
				n++
			}
		}
	}
	count(c.stamps)
	for _, row := range c.parked {
		count(row.stamps)
	}
	return n
}

// Flush drops every cached result (the forced-full-round path). The layout
// survives: only the cells empty.
func (c *ResultCache) Flush() {
	if c == nil {
		return
	}
	c.empty(0, len(c.stamps))
	clear(c.parked)
}

// BeginRound starts a round: it trims the parked rows, those no layout has
// referenced for rowRetainRounds, then the oldest beyond maxParkedGrids live
// grids. An input outside the pair key (the runner's round fingerprint) is
// the caller's to watch: when it changes, the caller Flushes first.
func (c *ResultCache) BeginRound() {
	if c == nil {
		return
	}
	c.round++
	for k, row := range c.parked {
		if c.round-row.lastLive-1 > rowRetainRounds { // rounds spent parked
			delete(c.parked, k)
		}
	}
	if over := len(c.parked) - maxParkedGrids*len(c.tnodes); over > 0 {
		// (lastLive, address) is a total order — a round's layout holds one
		// row per tNode address — so what is evicted never depends on map
		// order.
		oldest := slices.SortedFunc(maps.Keys(c.parked), func(a, b scan.TNode) int {
			return cmp.Or(cmp.Compare(c.parked[a].lastLive, c.parked[b].lastLive), a.Addr.Compare(b.Addr))
		})
		for _, k := range oldest[:over] {
			delete(c.parked, k)
		}
	}
}

// SetLayout lays the grid out for this round's tNode rows and unit columns
// and reports whether the layout is the previous round's (the common case:
// nothing moves). Otherwise cells follow their identity into the new
// layout — a row by its tNode, previous states included, a column by its
// (ASN, vVP address) — rows the new layout drops are parked, parked rows it
// names return, and all other cells are empty.
// The arguments are copied as needed; the caller keeps ownership.
func (c *ResultCache) SetLayout(tnodes []scan.TNode, units []Unit) (unchanged bool) {
	sameCols := sameColumns(c.units, units)
	if sameCols && slices.Equal(c.tnodes, tnodes) {
		return true
	}
	if !sameCols {
		// Columns move only when the host population or the vVP selection
		// changes, so take the simple road: park every row, re-order the
		// parked cells for the new columns, and let the rows return below.
		for ti, tn := range c.tnodes {
			c.park(ti, tn)
		}
		c.remapParked(units)
		c.tnodes = c.tnodes[:0]
		c.units, c.cols = c.units[:0], c.cols[:1]
		for _, u := range units {
			c.units = append(c.units, Unit{ASN: u.ASN, VVPs: slices.Clone(u.VVPs)})
			c.cols = append(c.cols, c.cols[len(c.cols)-1]+len(u.VVPs))
		}
	}
	// Build the new grid in new arrays: the flat offsets of every row depend
	// on the row count, so rows cannot move in place. Layouts change rarely
	// (one round in ~30 on live-saturate), so the old arrays are not kept
	// for the next change: a spare grid would hold memory, and results,
	// for nothing in between.
	nT, nOld := len(tnodes), len(c.tnodes)
	live := make(map[scan.TNode]int, nOld) // old row of each tNode not yet carried
	for ti, tn := range c.tnodes {
		live[tn] = ti
	}
	next := newCells(nT*c.cols[len(c.units)], len(c.prev) > 0)
	for ti, tn := range tnodes {
		old, carried := live[tn]
		var row *parkedRow
		if carried {
			delete(live, tn)
		} else if row = c.parked[tn]; row != nil {
			delete(c.parked, tn)
		}
		for u := range c.units {
			lo, nv := c.cols[u], c.cols[u+1]-c.cols[u]
			to := nT*lo + ti*nv
			switch {
			case carried:
				next.copyFrom(to, &c.cells, nOld*lo+old*nv, nv)
			case row != nil:
				next.copyFrom(to, &row.cells, lo, nv)
			default:
				next.empty(to, nv)
			}
		}
	}
	for tn, ti := range live {
		c.park(ti, tn)
	}
	c.tnodes = append(c.tnodes[:0], tnodes...)
	c.cells = next
	return false
}

// sameColumns reports whether two unit lists name the same columns: the
// same ASes in the same order, each with the same vVP addresses in the same
// order. Only the address of a vVP is part of a pair's identity.
func sameColumns(a, b []Unit) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if a[u].ASN != b[u].ASN || len(a[u].VVPs) != len(b[u].VVPs) {
			return false
		}
		for vi := range a[u].VVPs {
			if a[u].VVPs[vi].Addr != b[u].VVPs[vi].Addr {
				return false
			}
		}
	}
	return true
}

// park copies live row ti out of the flat grid into the parked set, in
// column order, without the cells' previous states. A row that holds no
// result is not worth keeping.
func (c *ResultCache) park(ti int, tn scan.TNode) {
	nT, nCols := len(c.tnodes), c.cols[len(c.units)]
	row := &parkedRow{cells: newCells(nCols, false), lastLive: c.round - 1}
	held := false
	for u := range c.units {
		lo, nv := c.cols[u], c.cols[u+1]-c.cols[u]
		row.copyFrom(lo, &c.cells, nT*lo+ti*nv, nv)
		for _, st := range row.stamps[lo : lo+nv] {
			held = held || st != noStamp
		}
	}
	if held {
		c.parked[tn] = row
	}
}

// remapParked re-orders every parked row's cells for a new column list:
// a column found in the old list by (ASN, vVP address) keeps its cell, a
// new column starts empty.
func (c *ResultCache) remapParked(units []Unit) {
	type colKey struct {
		asn  inet.ASN
		addr netip.Addr
	}
	old := make(map[colKey]int)
	for u, unit := range c.units {
		for vi, v := range unit.VVPs {
			old[colKey{unit.ASN, v.Addr}] = c.cols[u] + vi
		}
	}
	var from []int // new column → old column, -1 when new
	for _, unit := range units {
		for _, v := range unit.VVPs {
			j, ok := old[colKey{unit.ASN, v.Addr}]
			if !ok {
				j = -1
			}
			from = append(from, j)
		}
	}
	for _, row := range c.parked {
		moved := newCells(len(from), false)
		for j, o := range from {
			if o < 0 {
				moved.empty(j, 1)
			} else {
				moved.copyFrom(j, &row.cells, o, 1)
			}
		}
		row.cells = moved
	}
}

// Reuse validates every cell of the laid-out grid against this round's
// destination stamps — client, rows[ti] for tNode ti, cols[k] for the k-th
// vVP column in unit order — and appends the index of each cell whose stamp
// moved to miss, in ascending order. Such a cell takes the new stamp at
// once; the caller settles it with Revalidate before the round measures.
func (c *ResultCache) Reuse(client DestStamp, rows, cols []DestStamp, miss []int) []int {
	c.rowPart = c.rowPart[:0]
	for _, row := range rows {
		c.rowPart = append(c.rowPart, PairStamp(client, DestStamp{}, row))
	}
	i := 0
	for u := range c.units {
		ucols := cols[c.cols[u]:c.cols[u+1]]
		for ti := range c.rowPart {
			for _, col := range ucols {
				st := c.rowPart[ti]
				st.Epoch = max(st.Epoch, col.Epoch)
				st.VVPID, st.VVPVanished = col.ID, col.Vanished
				if c.stamps[i] != st {
					c.stamps[i] = st
					miss = append(miss, i)
				}
				i++
			}
		}
	}
	return miss
}

// Revalidate settles cell i, which Reuse reported, under key, the exact
// routing state of this round: the cell keeps its result if it was measured
// under key, gets its previous result back if that one was, and otherwise
// must be re-measured — then its result becomes the previous state, and the
// caller stores the fresh raw result in Results()[i] before the round ends.
func (c *ResultCache) Revalidate(i int, key PairKey) Revalidation {
	cur := &c.keys[i]
	if key.known() {
		if *cur == key {
			return Revalidated
		}
		if len(c.prev) > 0 && c.prev[i].key == key {
			c.prev[i].exchange(cur, &c.res[i])
			return Restored
		}
	}
	if cur.known() {
		if len(c.prev) == 0 {
			c.prev = make([]prevSlot, len(c.res))
		}
		// The current state becomes the previous one; what comes back is
		// overwritten by the measurement.
		c.prev[i].exchange(cur, &c.res[i])
	}
	*cur = key
	return Remeasure
}

// Results returns the flat result grid of the current layout. Cells Reuse
// did not report hold their cached raw results; the caller fills the
// reported ones. The slice is the cache's own storage, valid until the next
// SetLayout.
func (c *ResultCache) Results() []detect.PairResult { return c.res }
