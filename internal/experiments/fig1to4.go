package experiments

import (
	"io"
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/detect"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/scan"
	"github.com/netsec-lab/rovista/internal/tcpsim"
)

// Fig1Point is one snapshot of Figure 1: ROA coverage and invalid-prefix
// rates as seen at the collector.
type Fig1Point struct {
	Day            int
	CoveredPct     float64 // % of observed prefixes covered by a ROA
	InvalidPct     float64 // % of observed prefixes RPKI-invalid
	ExclusivePct   float64 // % exclusively invalid (test prefixes)
	TotalObserved  int
	SurgeInjection bool // marks the AS-23674/62240-style surge window
}

// Fig1Result is the full Figure 1 reproduction.
type Fig1Result struct {
	Points []Fig1Point
}

// Fig1 reproduces Figure 1: ROA coverage growing over the timeline (top)
// and the percentage of invalid / exclusively-invalid routable prefixes
// (bottom), including a mid-timeline surge of invalid announcements from
// two ASes (the paper's May–August 2022 event).
func Fig1(seed int64, out io.Writer) Fig1Result {
	cfg := smallWorld(seed)
	cfg.Days = 600
	w := mustWorld(cfg)

	// Inject the surge: two extra origins announce a burst of invalid
	// prefixes for roughly a quarter of the timeline.
	surgeStart, surgeEnd := cfg.Days/3, cfg.Days/2
	addSurge(w, surgeStart, surgeEnd, seed)

	var res Fig1Result
	interval := cfg.Days / 20
	for day := 0; day <= cfg.Days; day += interval {
		if err := w.AdvanceTo(day); err != nil {
			panic(err)
		}
		view := w.Collector.Snapshot(w.Graph)
		st := view.Classify(w.VRPs)
		p := Fig1Point{
			Day:            day,
			TotalObserved:  st.Total,
			SurgeInjection: day >= surgeStart && day < surgeEnd,
		}
		if st.Total > 0 {
			p.CoveredPct = 100 * float64(st.Covered) / float64(st.Total)
			p.InvalidPct = 100 * float64(st.Invalid) / float64(st.Total)
			p.ExclusivePct = 100 * float64(st.Exclusive) / float64(st.Total)
		}
		res.Points = append(res.Points, p)
	}

	fprintf(out, "== Figure 1: ROA coverage and invalid routable prefixes over time ==\n")
	fprintf(out, "%8s %14s %12s %14s %8s\n", "day", "ROA-covered%", "invalid%", "exclusive%", "surge")
	for _, p := range res.Points {
		mark := ""
		if p.SurgeInjection {
			mark = "*"
		}
		fprintf(out, "%8d %13.1f%% %11.2f%% %13.2f%% %8s\n", p.Day, p.CoveredPct, p.InvalidPct, p.ExclusivePct, mark)
	}
	return res
}

// addSurge schedules a burst of invalid announcements from two extra wrong
// origins between startDay and endDay.
func addSurge(w *core.World, startDay, endDay int, seed int64) {
	// Reuse victims of existing invalids: announce three more /20s from
	// each victim's reserved /16 region via two fixed wrong origins. The
	// origins must come from the clean set or the announcements never
	// reach the collector (and the surge stays invisible, like the
	// countless misconfigurations the paper could never observe).
	var origins []inet.ASN
	for _, asn := range w.Topo.ASNs {
		if w.Clean[asn] {
			origins = append(origins, asn)
		}
		if len(origins) == 2 {
			break
		}
	}
	if len(origins) < 2 {
		return
	}
	count := 0
	for _, inv := range append([]core.InvalidAnn(nil), w.Invalids...) {
		if inv.Shared || inv.Covered {
			continue
		}
		// The reserved /16 holds 16 /20s; the schedule used index 0.
		base := netip.PrefixFrom(inv.Prefix.Addr(), 16)
		for k := 1; k <= 3; k++ {
			sub := inet.SubnetAt(base, 20, uint32(k))
			w.Invalids = append(w.Invalids, core.InvalidAnn{
				Prefix:   sub,
				Origin:   origins[count%2],
				Victim:   inv.Victim,
				StartDay: startDay,
				EndDay:   endDay,
			})
			count++
		}
		if count >= 12 {
			break
		}
	}
}

// Fig2Event is one rendered packet event of a Figure-2 timeline.
type Fig2Event struct {
	Time    float64
	Desc    string
	Dropped netsim.DropReason
}

// Fig2Result holds the three per-case packet timelines.
type Fig2Result struct {
	Timelines map[string][]Fig2Event // keyed by case name
}

// Fig2 reproduces Figure 2: the packet timeline of the methodology under
// (a) no filtering, (b) inbound filtering, (c) outbound filtering.
func Fig2(seed int64, out io.Writer) Fig2Result {
	res := Fig2Result{Timelines: make(map[string][]Fig2Event)}
	for _, mode := range []string{"no-filtering", "inbound-filtering", "outbound-filtering"} {
		n, client, vvp, tn := detectWorld(seed, mode)
		s := new(netsim.Sim)
		s.Reset(n, seed)
		var evs []Fig2Event
		s.Trace = func(ev netsim.TraceEvent) {
			evs = append(evs, Fig2Event{Time: ev.Time, Desc: ev.Pkt.String(), Dropped: ev.Dropped})
		}
		s.At(0, func() { s.SendFrom(client, client.Addr, vvp, 40000, 443, tcpsim.SYNACK) })
		s.At(0.5, func() {
			s.SendFrom(client, vvp, tn.Addr, 55555, tn.Port, tcpsim.SYN) // spoofed
		})
		s.At(8, func() { s.SendFrom(client, client.Addr, vvp, 40001, 443, tcpsim.SYNACK) })
		s.Run(12)
		res.Timelines[mode] = evs
	}

	fprintf(out, "== Figure 2: methodology packet timelines ==\n")
	for _, mode := range []string{"no-filtering", "inbound-filtering", "outbound-filtering"} {
		fprintf(out, "-- %s --\n", mode)
		for _, e := range res.Timelines[mode] {
			drop := ""
			if e.Dropped != netsim.DropNone {
				drop = "  [DROPPED: " + string(e.Dropped) + "]"
			}
			fprintf(out, "  t=%6.3fs  %s%s\n", e.Time, e.Desc, drop)
		}
	}
	return res
}

// detectWorld builds the canonical 3-AS measurement fixture with the given
// filtering mode and returns (network, client host, vVP address, tNode).
func detectWorld(seed int64, mode string) (*netsim.Network, *netsim.Host, netip.Addr, scan.TNode) {
	n, client, vvpHost, tn := detectFixture(seed, mode == "outbound-filtering")
	if mode == "inbound-filtering" {
		n.IngressFilter[vvpHost.ASN] = func(pkt netsim.Packet) bool {
			return tn.Prefix.Contains(pkt.Src)
		}
	}
	return n, client, vvpHost.Addr, tn
}

// Fig3Case is the recorded IP-ID growth pattern for one filtering case.
type Fig3Case struct {
	Name    string
	IDs     []uint16
	Growth  []float64
	Outcome detect.Outcome
}

// Fig3Result is the Figure-3 reproduction.
type Fig3Result struct {
	Cases []Fig3Case
}

// Fig3 reproduces Figure 3: the expected IP-ID growth pattern per filtering
// case, as produced by an actual measurement round.
func Fig3(seed int64, out io.Writer) Fig3Result {
	var res Fig3Result
	for _, mode := range []string{"no-filtering", "inbound-filtering", "outbound-filtering"} {
		n, client, vvpAddr, tn := detectWorld(seed, mode)
		pr := detect.MeasurePair(n, client, vvpAddr, tn, seed, 0)
		res.Cases = append(res.Cases, Fig3Case{
			Name:    mode,
			IDs:     pr.IDs,
			Growth:  detect.GrowthSeries(pr.IDs),
			Outcome: pr.Outcome,
		})
	}
	fprintf(out, "== Figure 3: IP-ID growth patterns per filtering case ==\n")
	for _, c := range res.Cases {
		fprintf(out, "-- %s (classified: %v) --\n   growth/interval: ", c.Name, c.Outcome)
		for _, g := range c.Growth {
			fprintf(out, "%3.0f ", g)
		}
		fprintf(out, "\n")
	}
	return res
}

// Fig4Result is the Figure-4 reproduction: per-AS vVP counts at the three
// background-traffic cutoffs.
type Fig4Result struct {
	// ASesAtCutoff counts ASes with at least MinVVPs usable vVPs when the
	// cutoff is 10 / 30 / 100 pkt/s.
	ASesAtCutoff map[int]int
	// VVPsPerAS is the (sorted, descending) vVP count per AS at cutoff 10.
	VVPsPerAS []int
	TotalVVPs int
}

// Fig4 reproduces Figure 4: how many ASes become measurable as the
// background-traffic cutoff is relaxed from 10 to 30 to 100 packets/s.
func Fig4(seed int64, out io.Writer) Fig4Result {
	w := mustWorld(mediumWorld(seed))
	if err := w.AdvanceTo(0); err != nil {
		panic(err)
	}
	r := core.NewRunner(w, core.DefaultRunnerConfig(seed))
	vvps := r.DiscoverVVPs()

	res := Fig4Result{ASesAtCutoff: make(map[int]int), TotalVVPs: len(vvps)}
	for _, cutoff := range []int{10, 30, 100} {
		perAS := make(map[inet.ASN]int)
		for _, v := range vvps {
			if v.BackgroundRate <= float64(cutoff) {
				perAS[v.ASN]++
			}
		}
		n := 0
		var counts []int
		for _, c := range perAS {
			if c >= r.Cfg.MinVVPsPerAS {
				n++
			}
			counts = append(counts, c)
		}
		res.ASesAtCutoff[cutoff] = n
		if cutoff == 10 {
			sort.Sort(sort.Reverse(sort.IntSlice(counts)))
			res.VVPsPerAS = counts
		}
	}

	fprintf(out, "== Figure 4: vVPs per AS by background-traffic cutoff ==\n")
	fprintf(out, "total vVPs discovered: %d\n", res.TotalVVPs)
	for _, cutoff := range []int{10, 30, 100} {
		fprintf(out, "  cutoff <= %3d pkt/s: %4d measurable ASes\n", cutoff, res.ASesAtCutoff[cutoff])
	}
	return res
}
