// Package scan implements RoVista's ZMap-style discovery and qualification
// phases (§4.1–4.2 of the paper):
//
//   - vVP discovery: find hosts whose IP-ID comes from a single global
//     counter, by interleaving direct probes with bursty spoofed probes and
//     requiring the counter to reflect both;
//   - tNode qualification: confirm that a host under an RPKI-invalid prefix
//     (a) answers spoofed SYNs with SYN-ACKs, (b) retransmits on RTO, and
//     (c) stops retransmitting on RST.
//
// Every scan is one simulation per candidate address, run on clones of the
// two clients and the candidate inside a netsim.Arena: its answer is a pure
// function of (network wiring, candidate address, seed) and it writes to no
// live host, so a sweep can be split across workers, repeated, or skipped
// while nothing it depends on has changed. The "ZMap sweep" enumerates
// attached hosts, since unattached addresses can never respond.
package scan

import (
	"net/netip"
	"slices"
	"sync"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/seedmix"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// VVP is a qualified virtual vantage point: a host with an observable
// global IP-ID counter.
type VVP struct {
	Addr netip.Addr
	ASN  inet.ASN
	// BackgroundRate is the estimated background traffic in packets/second,
	// measured during qualification; RoVista discards vVPs above a cutoff
	// (10 pkt/s in the paper).
	BackgroundRate float64
}

// TNode is a qualified test node: a responsive host under an exclusively
// RPKI-invalid prefix with compliant RTO behaviour.
type TNode struct {
	Addr   netip.Addr
	ASN    inet.ASN
	Port   uint16
	Prefix netip.Prefix
}

// Scanner drives discovery. ClientA and ClientB must live in two different
// ASes (the paper uses two measurement clients so each can receive the
// responses the other's spoofed probes elicit).
type Scanner struct {
	Net              *netsim.Network
	ClientA, ClientB *netsim.Host
	// Ports are tried in order when locating listening services.
	Ports []uint16
	// Seed roots every scan's randomness. A candidate's simulation is seeded
	// from (Seed, the kind of scan, the candidate's address) — never from its
	// position in a sweep or the sweep's size, so adding a host re-seeds no
	// other.
	Seed int64
	// ForEach, when set, runs a sweep's candidates: fn(i) for every i in
	// [0, n), each exactly once, in any order and possibly concurrently
	// (pipeline.Executor.ForEach). Nil runs them in order on the caller's
	// goroutine. The answers are the same either way.
	ForEach func(n int, fn func(i int))
}

// NewScanner wires a scanner over net using the two given client hosts.
func NewScanner(net *netsim.Network, a, b *netsim.Host, ports ...uint16) *Scanner {
	if len(ports) == 0 {
		ports = []uint16{443, 80, 22}
	}
	return &Scanner{Net: net, ClientA: a, ClientB: b, Ports: ports}
}

// Seed streams: what kind of scan a candidate's seed is for.
const (
	streamVVP   int64 = 0x5ca0001
	streamTNode int64 = 0x5ca0002
)

// arena is the memory one candidate's scan works in: the isolated
// simulation (netsim.Arena) and what the clients' handlers record about the
// candidate at addr. An arena is owned by one scan between Get and Put and
// reset by the scan that takes it.
type arena struct {
	netsim.Arena
	addr netip.Addr

	// vVP qualification: the IP-IDs of the RSTs ClientA saw, and how many of
	// them arrived before the spoofed burst fired.
	ids  []uint16
	mark int
	// tNode qualification: the ports that answered the sweep, and the
	// SYN-ACKs ClientB saw on the two experiments' flows.
	answered       []uint16
	noRST, withRST int

	onRST, onListener, onSYNACK netsim.PacketHandler
}

// arenas is the package's only mutable state: a free list of scan arenas
// shared by every Scanner and every worker goroutine.
var arenas = sync.Pool{New: func() any {
	a := new(arena)
	a.onRST, a.onListener, a.onSYNACK = a.recordRST, a.recordListener, a.recordSYNACK
	return a
}}

// isolate starts a scan of addr in a: clones of the two clients and, when a
// host is attached there, of the candidate (nil otherwise), on a closed view
// of the network, with the simulator reset. Everything derives from seed.
func (a *arena) isolate(sc *Scanner, addr netip.Addr, seed int64) (clientA, clientB, cand *netsim.Host) {
	a.Isolate(sc.Net)
	clientA = a.Clone(sc.ClientA, seedmix.Mix(seed, 1))
	clientB = a.Clone(sc.ClientB, seedmix.Mix(seed, 2))
	if h, ok := sc.Net.HostAt(addr); ok {
		cand = a.Clone(h, seedmix.Mix(seed, 3))
	}
	a.Sim.Reset(a.View(), seedmix.Mix(seed, 4))
	a.addr = addr
	return clientA, clientB, cand
}

// sweep runs fn(i) for each of n candidates through sc.ForEach. Candidates
// are issued in a keyed random permutation (§5), so consecutive addresses
// are not probed back to back.
func (sc *Scanner) sweep(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	perm := NewPermutation(uint64(n), sc.Seed|1)
	issue := func(k int) { fn(int(perm.Index(uint64(k)))) }
	if sc.ForEach != nil {
		sc.ForEach(n, issue)
		return
	}
	for k := 0; k < n; k++ {
		issue(k)
	}
}

// vvpProbes is the per-phase probe count from §4.2.
const vvpProbes = 5

// DiscoverVVPs runs QualifyVVP for each candidate address and returns the
// ones that qualify, ascending.
func (sc *Scanner) DiscoverVVPs(candidates []netip.Addr) []VVP {
	found := make([]VVP, len(candidates))
	sc.sweep(len(candidates), func(i int) {
		c := candidates[i]
		found[i], _ = sc.QualifyVVP(c, seedmix.Mix(sc.Seed, streamVVP, int64(inet.V4Int(c))))
	})
	out := found[:0]
	for _, v := range found {
		if v.Addr.IsValid() {
			out = append(out, v)
		}
	}
	slices.SortFunc(out, func(a, b VVP) int { return a.Addr.Compare(b.Addr) })
	return out
}

// QualifyVVP qualifies one address per §4.2: five direct SYN-ACK probes one
// second apart (the spacing minimizes reordering), five bursty spoofed
// SYN-ACK probes, five more direct probes. The address qualifies when every
// direct probe drew a RST and the counter grew monotonically by at least
// the total number of packets the host must have sent.
func (sc *Scanner) QualifyVVP(addr netip.Addr, seed int64) (VVP, bool) {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	clientA, clientB, cand := a.isolate(sc, addr, seed)
	if cand == nil {
		return VVP{}, false // nobody there to answer
	}
	a.ids, a.mark = a.ids[:0], 0
	clientA.Handler = a.onRST
	s, port := &a.Sim, sc.Ports[0]
	for k := 0; k < vvpProbes; k++ {
		s.SendAt(float64(k), clientA, clientA.Addr, addr, uint16(20000+k), port, tcpsim.SYNACK)
	}
	// The spoofed probes come from distinct sources; the RSTs they elicit
	// go elsewhere, advancing only a *global* counter.
	for k := 0; k < vvpProbes; k++ {
		s.SendAt(vvpProbes, clientB, spoofSource(clientB.Addr, k), addr, uint16(30000+k), port, tcpsim.SYNACK)
	}
	for k := 0; k < vvpProbes; k++ {
		s.SendAt(float64(vvpProbes+1+k), clientA, clientA.Addr, addr, uint16(20000+vvpProbes+k), port, tcpsim.SYNACK)
	}
	s.Run(2*vvpProbes + 10)
	return qualifyVVP(addr, cand.ASN, a.ids, a.mark)
}

// recordRST is ClientA's handler during vVP qualification.
func (a *arena) recordRST(s *netsim.Sim, pkt netsim.Packet) bool {
	if pkt.Kind == tcpsim.RST && pkt.Src == a.addr {
		a.ids = append(a.ids, pkt.IPID)
		if s.Now() < vvpProbes {
			a.mark++ // arrived before the burst fired
		}
	}
	return true
}

// qualifyVVP applies the §4.2 acceptance rule to the observed RST IP-IDs;
// mark is the index of the first post-burst observation.
func qualifyVVP(addr netip.Addr, asn inet.ASN, ids []uint16, mark int) (VVP, bool) {
	if len(ids) != 2*vvpProbes || mark != vvpProbes {
		return VVP{}, false // silent host, lossy path, or reordering
	}
	// Estimate the background rate from phase (a): each 1 s gap contains
	// one RST of ours plus background.
	var phaseA float64
	for i := 1; i < vvpProbes; i++ {
		d := ids[i] - ids[i-1]
		if d == 0 || d > 1<<14 {
			return VVP{}, false // constant counter or random jumps
		}
		phaseA += float64(d - 1)
	}
	bg := phaseA / float64(vvpProbes-1) // packets/second

	// Across the burst: the host sent 5 spoofed-elicited RSTs plus one to
	// us, so a global counter must grow by at least 6; a per-destination
	// counter grows by exactly 1 (+background).
	burstGrowth := float64(ids[mark] - ids[mark-1])
	// Allow generous background slack (gap is ~1 s long).
	minGrowth := float64(vvpProbes + 1)
	maxGrowth := minGrowth + 12*(bg+1)
	if burstGrowth < minGrowth || burstGrowth > maxGrowth {
		return VVP{}, false
	}
	// Phase (c) must stay monotone and counter-like too.
	for i := mark + 1; i < len(ids); i++ {
		d := ids[i] - ids[i-1]
		if d == 0 || d > 1<<14 {
			return VVP{}, false
		}
	}
	return VVP{Addr: addr, ASN: asn, BackgroundRate: bg}, true
}

// spoofSource derives the k-th spoofed source address near base.
func spoofSource(base netip.Addr, k int) netip.Addr {
	b := base.As4()
	b[3] += byte(k + 1)
	return netip.AddrFrom4(b)
}

// TNodeCandidates appends to dst every attached host inside one of the
// prefixes — what the ZMap phase of tNode discovery probes — as a TNode with
// no port yet, ascending by address. A host under nested prefixes is listed
// once, under the last of them; one that has churned away is listed without
// its AS (nothing will answer there).
func (sc *Scanner) TNodeCandidates(dst []TNode, prefixes []netip.Prefix) []TNode {
	from := len(dst)
	for _, p := range prefixes {
		for _, a := range sc.Net.AddrsIn(p) {
			tn := TNode{Addr: a, Prefix: p}
			if h, ok := sc.Net.HostAt(a); ok {
				tn.ASN = h.ASN
			}
			dst = append(dst, tn)
		}
	}
	// Stable: hosts under nested prefixes stay in prefix order.
	slices.SortStableFunc(dst[from:], func(a, b TNode) int { return a.Addr.Compare(b.Addr) })
	out := dst[:from]
	for i, c := range dst[from:] {
		if next := from + i + 1; next < len(dst) && dst[next].Addr == c.Addr {
			continue
		}
		out = append(out, c)
	}
	return out
}

// TNodeAnswer is what the §4.1 scan found at one address: the first of the
// scanner's ports a service answered on (0: none did) and whether the host
// behind it met conditions (a)–(c).
type TNodeAnswer struct {
	Port      uint16
	Qualified bool
}

// QualifyTNodes runs QualifyTNode for each address; answer i is for
// addrs[i].
func (sc *Scanner) QualifyTNodes(addrs []netip.Addr) []TNodeAnswer {
	out := make([]TNodeAnswer, len(addrs))
	sc.sweep(len(addrs), func(i int) { out[i] = sc.QualifyTNode(addrs[i]) })
	return out
}

// The tNode scan's timeline and flows. The sweep window covers a listener's
// SYN-ACK and both of its retransmissions, so one lost answer does not hide
// it; the second experiment starts after the first one's retransmissions
// have played out, so the counts cannot be confused.
const (
	sweepWindow = 10.0
	secondSYNAt = 30.0
	qualifyEnd  = 60.0

	portSweep   = 25000
	portNoRST   = 46001 // B stays silent: the tNode must retransmit
	portWithRST = 46002 // B RSTs: the tNode must stop
)

// QualifyTNode scans one address per §4.1. ClientA first sends a SYN to each
// of the scanner's ports; if a service answers, it then sends two SYNs
// spoofed as ClientB to that port, and ClientB observes the SYN-ACKs: it
// never answers the first flow, so a compliant host retransmits within the
// RTO (condition b), and RSTs the second, so a compliant host stops
// (condition c). Both must have been answered at all (condition a).
func (sc *Scanner) QualifyTNode(addr netip.Addr) TNodeAnswer {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	seed := seedmix.Mix(sc.Seed, streamTNode, int64(inet.V4Int(addr)))
	clientA, clientB, cand := a.isolate(sc, addr, seed)
	if cand == nil {
		return TNodeAnswer{}
	}
	s := &a.Sim
	a.answered = a.answered[:0]
	clientA.Handler = a.onListener
	for _, port := range sc.Ports {
		s.SendAt(0, clientA, clientA.Addr, addr, portSweep, port, tcpsim.SYN)
	}
	s.Run(sweepWindow)
	var ans TNodeAnswer
	for _, port := range sc.Ports {
		if slices.Contains(a.answered, port) {
			ans.Port = port
			break
		}
	}
	if ans.Port == 0 {
		return ans
	}

	// The sweep's half-open flows are the scanner's doing; qualification
	// starts from a clean endpoint.
	cand.TCP.Reset()
	a.noRST, a.withRST = 0, 0
	clientB.Handler = a.onSYNACK
	s.SendAt(sweepWindow, clientA, clientB.Addr, addr, portNoRST, ans.Port, tcpsim.SYN)
	s.SendAt(sweepWindow+secondSYNAt, clientA, clientB.Addr, addr, portWithRST, ans.Port, tcpsim.SYN)
	s.Run(sweepWindow + qualifyEnd)
	ans.Qualified = a.noRST >= 2 && a.withRST == 1
	return ans
}

// recordListener is ClientA's handler during the port sweep.
func (a *arena) recordListener(_ *netsim.Sim, pkt netsim.Packet) bool {
	if pkt.Kind == tcpsim.SYNACK && pkt.Src == a.addr {
		a.answered = append(a.answered, pkt.SrcPort)
	}
	return true
}

// recordSYNACK is ClientB's handler during the two experiments.
func (a *arena) recordSYNACK(_ *netsim.Sim, pkt netsim.Packet) bool {
	if pkt.Kind != tcpsim.SYNACK || pkt.Src != a.addr {
		return true
	}
	switch pkt.DstPort {
	case portNoRST:
		a.noRST++ // swallow: simulate an unreachable reply path
	case portWithRST:
		a.withRST++
		return false // fall through: the default automaton sends the RST
	}
	return true
}
