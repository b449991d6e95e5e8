package core

import (
	"sort"

	"github.com/netsec-lab/rovista/internal/inet"
)

// Timeline is a sequence of measurement snapshots over the world's days —
// RoVista's 20-month longitudinal dataset in miniature. stream.LiveSink's
// RunDays measures one.
type Timeline struct {
	Days      []int
	Snapshots []*Snapshot
}

// ScoreSeries extracts one AS's protection score over time; days without a
// report for the AS yield NaN-free gaps (skipped entries).
func (t *Timeline) ScoreSeries(asn inet.ASN) (days []int, scores []float64) {
	for i, snap := range t.Snapshots {
		if rep, ok := snap.Reports[asn]; ok {
			days = append(days, t.Days[i])
			scores = append(scores, rep.Score)
		}
	}
	return
}

// FullProtectionSeries returns, per snapshot, the percentage of measured
// ASes with a 100% score (Figure 6).
func (t *Timeline) FullProtectionSeries() (days []int, pct []float64) {
	for i, snap := range t.Snapshots {
		if len(snap.Reports) == 0 {
			continue
		}
		full := 0
		for _, rep := range snap.Reports {
			if rep.Score >= 100 {
				full++
			}
		}
		days = append(days, t.Days[i])
		pct = append(pct, 100*float64(full)/float64(len(snap.Reports)))
	}
	return
}

// JumpEvents finds ASes whose score jumped from ≤lo to ≥hi between
// consecutive snapshots, grouped by the day of the jump — the §7.3 signal
// used to spot collateral-benefit cohorts.
func (t *Timeline) JumpEvents(lo, hi float64) map[int][]inet.ASN {
	out := make(map[int][]inet.ASN)
	for i := 1; i < len(t.Snapshots); i++ {
		prev, cur := t.Snapshots[i-1], t.Snapshots[i]
		for asn, rep := range cur.Reports {
			p, ok := prev.Reports[asn]
			if !ok {
				continue
			}
			if p.Score <= lo && rep.Score >= hi {
				out[t.Days[i]] = append(out[t.Days[i]], asn)
			}
		}
	}
	for d := range out {
		sort.Slice(out[d], func(i, j int) bool { return out[d][i] < out[d][j] })
	}
	return out
}
