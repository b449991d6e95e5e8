// Package topology generates synthetic AS-level Internet topologies with
// the structural features RoVista's analysis depends on: a transit-free
// tier-1 clique, a transit hierarchy with multihoming, settlement-free
// peering, per-RIR address allocation, and CAIDA-style customer-cone AS
// ranking (§7.2 of the paper ranks ASes by customer cone size).
//
// Generation is fully deterministic given a Config seed, so every experiment
// in the repository is reproducible.
package topology

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/netsec-lab/rovista/internal/bgp"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rpki"
)

// Tier buckets ASes by their role in the transit hierarchy.
type Tier uint8

// Tiers, from the clique down to stubs.
const (
	Tier1 Tier = 1 // transit-free clique
	Tier2 Tier = 2 // large transit networks
	Tier3 Tier = 3 // regional providers
	Stub  Tier = 4 // edge networks
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case Tier3:
		return "tier3"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// Config controls topology generation.
type Config struct {
	Seed int64

	NumTier1 int // size of the transit-free clique
	NumTier2 int
	NumTier3 int
	NumStub  int

	// PrefixesPerAS is the mean number of /16 prefixes allocated per AS
	// (minimum 1).
	PrefixesPerAS float64

	// OriginFrac, when in (0, 1), is the fraction of ASes that originate
	// prefixes at all; the rest are transit-only. Zero means every AS
	// originates (the historical behaviour — no extra rng draws happen in
	// that mode, so existing worlds are bit-for-bit unchanged). Paper-scale
	// worlds use this to model tens of thousands of vantage ASes against a
	// small routed test-prefix population: full-table Adj-RIB-In state is
	// quadratic in (ASes × prefixes), and the real measurement only ever
	// routes a few hundred prefixes of interest.
	OriginFrac float64

	// Tier2PeerProb / Tier3PeerProb are the probabilities that two same-tier
	// ASes peer.
	Tier2PeerProb float64
	Tier3PeerProb float64

	// MultihomeProb is the chance an AS takes a second (or third) provider.
	MultihomeProb float64
}

// DefaultConfig returns a mid-sized world: large enough to exhibit the
// paper's phenomena, small enough to converge in well under a second.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		NumTier1:      8,
		NumTier2:      60,
		NumTier3:      250,
		NumStub:       900,
		PrefixesPerAS: 1.5,
		Tier2PeerProb: 0.30,
		Tier3PeerProb: 0.02,
		MultihomeProb: 0.45,
	}
}

// ASInfo is the generator's metadata about one AS.
type ASInfo struct {
	ASN      inet.ASN
	Tier     Tier
	RIR      rpki.RIR
	Prefixes []netip.Prefix
	// ConeSize is the CAIDA-style customer cone size (self included).
	ConeSize int
	// Rank is the 1-based position when ordering by descending cone size.
	Rank int
}

// Topology is a generated AS-level Internet.
type Topology struct {
	Graph *bgp.Graph
	Info  map[inet.ASN]*ASInfo
	// ASNs lists all AS numbers in ascending order.
	ASNs []inet.ASN
	// Tier1 lists the clique members.
	Tier1 []inet.ASN

	byRank []inet.ASN // ASNs by ascending Rank (ByRank)
}

// firstASN is where generated AS numbering starts.
const firstASN inet.ASN = 1001

// Generate builds a topology from cfg.
func Generate(cfg Config) *Topology {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{
		Graph: bgp.NewGraph(),
		Info:  make(map[inet.ASN]*ASInfo),
	}

	next := firstASN
	alloc := func(tier Tier, n int) []inet.ASN {
		out := make([]inet.ASN, n)
		for i := range out {
			asn := next
			next++
			out[i] = asn
			info := &ASInfo{ASN: asn, Tier: tier, RIR: rpki.AllRIRs[rng.Intn(len(rpki.AllRIRs))]}
			t.Info[asn] = info
			t.ASNs = append(t.ASNs, asn)
			t.Graph.AddAS(asn)
		}
		return out
	}

	t1 := alloc(Tier1, cfg.NumTier1)
	t2 := alloc(Tier2, cfg.NumTier2)
	t3 := alloc(Tier3, cfg.NumTier3)
	stubs := alloc(Stub, cfg.NumStub)
	t.Tier1 = t1

	// Tier-1 full mesh of peering (the clique).
	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			t.Graph.Link(t1[i], t1[j], bgp.Peer)
		}
	}

	pickProviders := func(pool []inet.ASN, customer inet.ASN) {
		if len(pool) == 0 {
			return
		}
		n := 1
		for n < 3 && rng.Float64() < cfg.MultihomeProb {
			n++
		}
		seen := map[inet.ASN]bool{}
		for k := 0; k < n; k++ {
			p := pool[rng.Intn(len(pool))]
			if seen[p] {
				continue
			}
			seen[p] = true
			t.Graph.Link(p, customer, bgp.Customer)
		}
	}
	for _, asn := range t2 {
		pickProviders(t1, asn)
	}
	for _, asn := range t3 {
		pickProviders(t2, asn)
	}
	for _, asn := range stubs {
		// Stubs mostly buy from tier-3, occasionally directly from tier-2.
		pool := t3
		if rng.Float64() < 0.15 {
			pool = t2
		}
		pickProviders(pool, asn)
	}

	// Same-tier peering.
	peerWithin := func(pool []inet.ASN, prob float64) {
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				if rng.Float64() < prob {
					t.Graph.Link(pool[i], pool[j], bgp.Peer)
				}
			}
		}
	}
	peerWithin(t2, cfg.Tier2PeerProb)
	peerWithin(t3, cfg.Tier3PeerProb)

	t.allocatePrefixes(cfg, rng)
	t.computeCones()
	return t
}

// RIRBlock returns the i-th /8 address pool of a RIR: each RIR owns forty
// consecutive /8s, mirroring how real v4 space is carved among the
// registries.
func RIRBlock(r rpki.RIR, i int) netip.Prefix {
	base := 8 + int(r)*40 + (i % 40)
	return netip.PrefixFrom(inet.V4(uint32(base)<<24), 8)
}

func (t *Topology) allocatePrefixes(cfg Config, rng *rand.Rand) {
	// Allocation cursor per RIR: (block index, /16 index within block).
	type cursor struct{ block, sub int }
	cursors := make(map[rpki.RIR]*cursor)
	for _, r := range rpki.AllRIRs {
		cursors[r] = &cursor{}
	}
	for _, asn := range t.ASNs {
		info := t.Info[asn]
		if cfg.OriginFrac > 0 && cfg.OriginFrac < 1 && rng.Float64() >= cfg.OriginFrac {
			continue // transit-only AS: no allocation, no origination
		}
		n := 1
		for float64(n) < cfg.PrefixesPerAS && rng.Float64() < 0.5 {
			n++
		}
		cur := cursors[info.RIR]
		for k := 0; k < n; k++ {
			if cur.sub >= 256 {
				cur.block++
				cur.sub = 0
			}
			block := RIRBlock(info.RIR, cur.block)
			p := inet.SubnetAt(block, 16, uint32(cur.sub))
			cur.sub++
			info.Prefixes = append(info.Prefixes, p)
		}
		t.Graph.AS(asn).Originated = append([]netip.Prefix(nil), info.Prefixes...)
	}
}

// computeCones fills in ConeSize and Rank. Each AS's customer cone is
// counted by an independent BFS over customer edges using a per-worker
// generation-stamped visited array — O(ASes) memory per worker instead of
// the full set-per-AS memoization a DFS union needs, which at 50k+ ASes
// (where tier-1 cones span nearly the whole graph) is the difference
// between megabytes and gigabytes. The per-AS counts are independent, so
// the BFSes run in parallel; cone size is a pure function of the topology,
// making the result identical at any worker count.
func (t *Topology) computeCones() {
	n := len(t.ASNs)
	idx := make(map[inet.ASN]int32, n)
	for i, asn := range t.ASNs {
		idx[asn] = int32(i)
	}
	customers := make([][]int32, n)
	for i, asn := range t.ASNs {
		for nbr, rel := range t.Graph.AS(asn).Neighbors {
			if rel == bgp.Customer {
				customers[i] = append(customers[i], idx[nbr])
			}
		}
	}
	sizes := make([]int, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = max(n, 1)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visited := make([]int32, n)
			queue := make([]int32, 0, 64)
			stamp := int32(0)
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				stamp++
				queue = append(queue[:0], int32(i))
				visited[i] = stamp
				count := 0
				for len(queue) > 0 {
					v := queue[len(queue)-1]
					queue = queue[:len(queue)-1]
					count++
					for _, c := range customers[v] {
						if visited[c] != stamp {
							visited[c] = stamp
							queue = append(queue, c)
						}
					}
				}
				sizes[i] = count
			}
		}()
	}
	wg.Wait()

	type ranked struct {
		asn  inet.ASN
		size int
	}
	rs := make([]ranked, 0, len(t.ASNs))
	for i, asn := range t.ASNs {
		t.Info[asn].ConeSize = sizes[i]
		rs = append(rs, ranked{asn, sizes[i]})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].size != rs[j].size {
			return rs[i].size > rs[j].size
		}
		return rs[i].asn < rs[j].asn
	})
	t.byRank = make([]inet.ASN, len(rs))
	for i, r := range rs {
		t.Info[r.asn].Rank = i + 1
		t.byRank[i] = r.asn
	}
}

// ByRank returns all ASNs ordered by ascending rank (biggest cone first).
// The order is fixed when the topology is generated; the slice is shared and
// read-only.
func (t *Topology) ByRank() []inet.ASN { return t.byRank }

// Providers returns asn's providers.
func (t *Topology) Providers(asn inet.ASN) []inet.ASN {
	var out []inet.ASN
	for nbr, rel := range t.Graph.AS(asn).Neighbors {
		if rel == bgp.Provider {
			out = append(out, nbr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Customers returns asn's customers.
func (t *Topology) Customers(asn inet.ASN) []inet.ASN {
	var out []inet.ASN
	for nbr, rel := range t.Graph.AS(asn).Neighbors {
		if rel == bgp.Customer {
			out = append(out, nbr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsStubWithSingleProvider reports whether asn is a stub with exactly one
// upstream — the shape that inherits full collateral benefit (§7.3).
func (t *Topology) IsStubWithSingleProvider(asn inet.ASN) bool {
	return t.Info[asn].Tier == Stub && len(t.Providers(asn)) == 1
}
