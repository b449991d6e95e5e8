package main

import (
	"math/rand"
	"net/netip"
	"net/url"
	"strconv"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
	"github.com/netsec-lab/rovista/internal/rpki"
	"github.com/netsec-lab/rovista/internal/seedmix"
	"github.com/netsec-lab/rovista/internal/store"
	"github.com/netsec-lab/rovista/internal/stream"
)

// Every generator below is a pure function of its seed and the population
// it draws from: the same seed gives the same inputs in the same order.

// flapDown is how many originations a flapGen keeps withdrawn: each stays
// down for about 2*flapDown events.
const flapDown = 16

// flapGen yields bounded route flaps: an origination is withdrawn and,
// about 2*flapDown events later, announced again, so every event is a real
// routing change while the world stays near its built state. Withdrawals
// walk a seeded shuffle of the originations, reshuffled every cycle, so a
// run flaps every origination about equally often whatever the seed: what
// a round costs depends heavily on which prefix moved, and independent
// draws would let a few expensive originations decide a run's numbers.
// (stream.SynthSource's rule, toggling a random origination per event,
// random-walks the world until half of it is withdrawn; throughput then
// differed 1.7x between seeds.)
type flapGen struct {
	seed      int64
	origins   []stream.Origin
	withdrawn []bool
	down      []int // withdrawn originations, oldest first
	order     []int // this cycle's shuffle of the originations
	next      int   // position in order
	cycle     int64
}

func newFlapGen(seed int64, origins []stream.Origin) *flapGen {
	return &flapGen{seed: seed, origins: origins, withdrawn: make([]bool, len(origins))}
}

// event returns event i: once flapDown originations are down, odd events
// re-announce the one down longest and even events withdraw the next
// origination of the shuffle that is up.
func (g *flapGen) event(i int) bgp.RouteEvent {
	if len(g.down) > flapDown && i%2 == 1 {
		j := g.down[0]
		g.down = g.down[1:]
		g.withdrawn[j] = false
		return bgp.RouteEvent{Kind: bgp.EvAnnounce, AS: g.origins[j].ASN, Prefix: g.origins[j].Prefix}
	}
	j := g.pick()
	for g.withdrawn[j] {
		j = g.pick()
	}
	g.withdrawn[j] = true
	g.down = append(g.down, j)
	return bgp.RouteEvent{Kind: bgp.EvWithdraw, AS: g.origins[j].ASN, Prefix: g.origins[j].Prefix}
}

func (g *flapGen) pick() int {
	if g.next == len(g.order) {
		g.order = rand.New(seedmix.NewSource(seedmix.Mix(g.seed, 0xf1a9, g.cycle))).Perm(len(g.origins))
		g.next = 0
		g.cycle++
	}
	g.next++
	return g.order[g.next-1]
}

// vrpGen yields VRP-replacement snapshots: message k restores the VRP
// message k-1 removed from the base set and removes another seed-picked
// one, so exactly one ROA is missing at any time.
type vrpGen struct {
	seed    int64
	base    []rpki.VRP
	removed int // index into base; -1 before the first message
}

func newVRPGen(seed int64, base []rpki.VRP) *vrpGen {
	return &vrpGen{seed: seed, base: base, removed: -1}
}

// next returns the k-th replacement snapshot and the prefixes whose
// validity it may have changed (the roa-change dirty scope).
func (g *vrpGen) next(k int) (*rpki.VRPSet, []netip.Prefix) {
	var changed []netip.Prefix
	if g.removed >= 0 {
		changed = append(changed, g.base[g.removed].Prefix)
	}
	j := int(uint64(seedmix.Mix(g.seed, 0x5652, int64(k))) % uint64(len(g.base)))
	if j == g.removed {
		j = (j + 1) % len(g.base)
	}
	g.removed = j
	changed = append(changed, g.base[j].Prefix)
	cur := make([]rpki.VRP, 0, len(g.base))
	cur = append(append(cur, g.base[:j]...), g.base[j+1:]...)
	return rpki.NewVRPSet(cur), changed
}

// timedMsg is one generated pipeline input stamped with the offset from
// the run's start at which it is due.
type timedMsg struct {
	due float64 // seconds
	msg stream.Msg
}

// livePlan generates the open-loop input of live-steady: n flaps at rate
// events per second (wall = virtual), and before the first flap due at or
// after each whole second one VRP-replacement message due on that second.
func livePlan(seed int64, origins []stream.Origin, vrps []rpki.VRP, n int, rate float64) []timedMsg {
	flaps := newFlapGen(seed, origins)
	roas := newVRPGen(seed, vrps)
	out := make([]timedMsg, 0, n+int(float64(n)/rate)+1)
	nextROA := 1
	for i := 0; i < n; i++ {
		t := float64(i) / rate
		for len(vrps) > 0 && float64(nextROA) <= t {
			set, changed := roas.next(nextROA)
			out = append(out, timedMsg{due: float64(nextROA), msg: stream.Msg{
				Seq: uint64(len(out)), Time: float64(nextROA), VRPs: set,
				Events: []bgp.RouteEvent{{Kind: bgp.EvROAChange, Prefixes: changed}},
			}})
			nextROA++
		}
		out = append(out, timedMsg{due: t, msg: stream.Msg{
			Seq: uint64(len(out)), Time: t, Events: []bgp.RouteEvent{flaps.event(i)},
		}})
	}
	return out
}

// serve-fanout population: the synthesizer's ASNs are firstASN..firstASN+n-1.
const (
	firstASN     = 1000
	fanoutHot    = 16  // ASNs that move by >= 2 points every round
	fanoutDeltas = 100 // score movements per published round
)

// fanoutGen yields the publisher's rounds: each moves the hot ASes by at
// least two points and fanoutDeltas-fanoutHot seed-picked others by a
// small step, and returns the round both as the record to append and as
// the update to publish, so the store and the push feed agree.
type fanoutGen struct {
	rng     *rand.Rand
	entries []store.Entry // current state, sorted by ASN
	day     int
}

func newFanoutGen(seed int64, latest *store.RoundRecord) *fanoutGen {
	return &fanoutGen{
		rng:     rand.New(seedmix.NewSource(seedmix.Mix(seed, 0xfa0))),
		entries: append([]store.Entry(nil), latest.Entries...),
		day:     latest.Day,
	}
}

// hotASN is the i-th hot AS: spread across the population, fixed for every
// seed so filtered subscriptions can name them.
func hotASN(i, ases int) inet.ASN { return inet.ASN(firstASN + i*(ases/fanoutHot)) }

func (g *fanoutGen) next(round uint32) (*store.RoundRecord, stream.Update) {
	n := len(g.entries)
	g.day += 5
	picked := make(map[int]bool, fanoutDeltas)
	deltas := make([]stream.ScoreDelta, 0, fanoutDeltas)
	move := func(idx int, step int) {
		e := &g.entries[idx]
		old := e.Centi
		c := int(old) + step
		if c < 0 || c > 10000 {
			c = int(old) - step
		}
		e.Centi = uint16(c)
		deltas = append(deltas, stream.ScoreDelta{ASN: e.ASN, Old: float64(old) / 100, New: float64(e.Centi) / 100})
	}
	for i := 0; i < fanoutHot; i++ {
		idx := i * (n / fanoutHot)
		picked[idx] = true
		step := 200 + g.rng.Intn(400)
		if g.rng.Intn(2) == 0 {
			step = -step
		}
		move(idx, step)
	}
	for len(picked) < fanoutDeltas {
		idx := g.rng.Intn(n)
		if picked[idx] {
			continue
		}
		picked[idx] = true
		step := 1 + g.rng.Intn(50)
		if g.rng.Intn(2) == 0 {
			step = -step
		}
		move(idx, step)
	}
	rec := &store.RoundRecord{
		Day:              g.day,
		Status:           pipeline.RoundOK,
		TestPrefixes:     10,
		TNodes:           8,
		AllVVPs:          2 * n,
		ConsistencyCenti: 9500,
		Evidence:         store.Evidence{PairsMeasured: 6 * n, PairsUsable: 6 * n, Profile: "synthetic"},
		Entries:          append([]store.Entry(nil), g.entries...),
	}
	return rec, stream.Update{Round: round, Day: g.day, Deltas: deltas}
}

// Query mix of serve-fanout: the share of each endpoint, in percent.
type queryKind int

const (
	qAS queryKind = iota
	qTimeseries
	qTop
	qRounds
	qDiff
	qExport
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"as", "timeseries", "top", "rounds", "diff", "export"}

// queryGen yields the closed-loop reader's requests: 50% /v1/as/{asn} with
// a Zipf(1.1)-hot AS, 20% timeseries of a uniform AS, 15% top, and 5% each
// rounds, diff and export. The daemon's per-client rate limit stays armed
// as in rovistad, so client addresses cycle through a pool: small enough
// that the limiter's table (8192 clients) holds every one and no request
// is a first contact, large enough that at 50 requests/s each the pool
// admits 200k queries/s before anyone is refused.
type queryGen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	as, ts   []*url.URL
	fixed    [numQueryKinds]*url.URL
	clients  []string
	nextAddr int
}

const queryClients = 4096

func newQueryGen(seed int64, ases int) *queryGen {
	rng := rand.New(seedmix.NewSource(seedmix.Mix(seed, 0x9e7)))
	g := &queryGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(ases-1))}
	for i := 0; i < ases; i++ {
		asn := strconv.Itoa(firstASN + i)
		g.as = append(g.as, &url.URL{Path: "/v1/as/" + asn})
		g.ts = append(g.ts, &url.URL{Path: "/v1/as/" + asn + "/timeseries"})
	}
	g.fixed[qTop] = &url.URL{Path: "/v1/top", RawQuery: "n=25"}
	g.fixed[qRounds] = &url.URL{Path: "/v1/rounds"}
	g.fixed[qDiff] = &url.URL{Path: "/v1/diff", RawQuery: "from=0&to=latest"}
	g.fixed[qExport] = &url.URL{Path: "/v1/export", RawQuery: "format=json"}
	g.clients = make([]string, queryClients)
	for c := range g.clients {
		g.clients[c] = "10.100." + strconv.Itoa(c>>8) + "." + strconv.Itoa(c&255) + ":4242"
	}
	return g
}

// next returns the next request's kind, URL, client address and, for the
// per-AS kinds, the AS index it names.
func (g *queryGen) next() (queryKind, *url.URL, string, int) {
	addr := g.clients[g.nextAddr]
	g.nextAddr = (g.nextAddr + 1) % len(g.clients)
	switch r := g.rng.Intn(100); {
	case r < 50:
		i := int(g.zipf.Uint64())
		return qAS, g.as[i], addr, i
	case r < 70:
		i := g.rng.Intn(len(g.ts))
		return qTimeseries, g.ts[i], addr, i
	case r < 85:
		return qTop, g.fixed[qTop], addr, -1
	case r < 90:
		return qRounds, g.fixed[qRounds], addr, -1
	case r < 95:
		return qDiff, g.fixed[qDiff], addr, -1
	default:
		return qExport, g.fixed[qExport], addr, -1
	}
}
