// Package trace implements TCP traceroute over the simulated data plane,
// at AS-path granularity — the tool the paper uses for cross-validation
// (§6.3.1) and for diagnosing collateral damage, customer exemptions and
// default routes (§7.4, §7.6). Probes use the same destination port as the
// measurement so the target actually answers, mirroring the paper's method.
package trace

import (
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// Result is one traceroute.
type Result struct {
	Src     inet.ASN
	Dst     netip.Addr
	Port    uint16
	Hops    []inet.ASN // AS-level path actually traversed
	Reached bool       // the last hop is the target host's AS and it answered
	Drop    netsim.DropReason
}

// LastHop returns the final AS on the path, or 0 for an empty path.
func (r Result) LastHop() inet.ASN {
	if len(r.Hops) == 0 {
		return 0
	}
	return r.Hops[len(r.Hops)-1]
}

// FirstHopAfterSource returns the first AS after the source, or 0 when the
// probe never left the source AS — the hop the §7.6 analyses classify
// (customer? single upstream?).
func (r Result) FirstHopAfterSource() inet.ASN {
	if len(r.Hops) < 2 {
		return 0
	}
	return r.Hops[1]
}

// TCPTraceroute issues an AS-granularity TCP traceroute from srcASN to
// dst:port. Reachability additionally requires the destination host to be
// listening on the port, as a real TCP traceroute's final hop does.
func TCPTraceroute(net *netsim.Network, srcASN inet.ASN, dst netip.Addr, port uint16) Result {
	pkt := netsim.Packet{
		Src:     netip.Addr{}, // filled below when a source host exists
		Dst:     dst,
		SrcPort: 33434,
		DstPort: port,
		Kind:    tcpsim.SYN,
	}
	// Use an address inside the source AS when one is attached, so
	// source-sensitive filters behave as they would for real probes.
	if a := net.Graph.AS(srcASN); a != nil && len(a.Originated) > 0 {
		pkt.Src = a.Originated[0].Addr()
	}
	path, host, reason := net.Trace(srcASN, pkt)
	res := Result{Src: srcASN, Dst: dst, Port: port, Hops: path, Drop: reason}
	if reason == netsim.DropNone && host != nil && host.TCP.Listening(port) {
		res.Reached = true
	}
	return res
}
