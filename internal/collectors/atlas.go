package collectors

import (
	"math/rand"
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/netsim"
	"github.com/netsec-lab/rovista/internal/trace"
)

// CampaignStats summarizes a §6.3.1-style campaign.
type CampaignStats struct {
	Measurements int
	Failed       int
	// InconsistentASes lists ASes whose probes disagreed on some target;
	// the paper excludes these (0.8% of results).
	InconsistentASes []inet.ASN
	// Tuples holds the surviving (AS, target) → reached consensus.
	Tuples map[inet.ASN]map[netip.Addr]bool
}

// RetentionRate is the fraction of measurements that survived filtering.
func (s CampaignStats) RetentionRate() float64 {
	if s.Measurements == 0 {
		return 0
	}
	return 1 - float64(s.Failed)/float64(s.Measurements)
}

// RunCampaign executes TCP traceroutes from every probe toward every target
// with per-measurement failure noise, then applies the paper's consistency
// filter: an AS's tuples survive only when all of its (non-failed) probes
// agree on every target.
func (f *Fleet) RunCampaign(net *netsim.Network, targets []netip.Addr, port uint16, failRate float64, seed int64) CampaignStats {
	rng := rand.New(rand.NewSource(seed))
	stats := CampaignStats{Tuples: make(map[inet.ASN]map[netip.Addr]bool)}

	type vote struct{ reached, total int }
	votes := make(map[inet.ASN]map[netip.Addr]*vote)
	for _, p := range f.Probes {
		for _, tgt := range targets {
			stats.Measurements++
			if rng.Float64() < failRate {
				stats.Failed++
				continue
			}
			res := trace.TCPTraceroute(net, p.ASN, tgt, port)
			if votes[p.ASN] == nil {
				votes[p.ASN] = make(map[netip.Addr]*vote)
			}
			v := votes[p.ASN][tgt]
			if v == nil {
				v = &vote{}
				votes[p.ASN][tgt] = v
			}
			v.total++
			if res.Reached {
				v.reached++
			}
		}
	}

	for asn, byTarget := range votes {
		consistent := true
		for _, v := range byTarget {
			if v.reached != 0 && v.reached != v.total {
				consistent = false
				break
			}
		}
		if !consistent {
			stats.InconsistentASes = append(stats.InconsistentASes, asn)
			continue
		}
		m := make(map[netip.Addr]bool, len(byTarget))
		for tgt, v := range byTarget {
			m[tgt] = v.reached > 0
		}
		stats.Tuples[asn] = m
	}
	sort.Slice(stats.InconsistentASes, func(i, j int) bool {
		return stats.InconsistentASes[i] < stats.InconsistentASes[j]
	})
	return stats
}
