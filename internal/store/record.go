// Package store is rovistad's longitudinal snapshot store: an append-only,
// crash-tolerant archive of measurement rounds. The paper's public service
// publishes per-AS ROV ratios continuously; Reuter et al.'s critique of
// point-in-time ROV classification is exactly why the store keeps per-round
// *evidence* (RoundStatus, fault/discard counters) next to every score —
// a consumer must be able to tell a confident 0% from a degraded round.
//
// On disk the store is a directory of segment files, each a versioned
// header followed by length+CRC-framed varint-encoded round records (scores
// delta-encoded across the ASN-sorted entry list). Reload tolerates a
// truncated tail — the crash shape of an append-only file — recovering
// exactly the rounds whose records are intact. In memory the store keeps
// the decoded rounds plus a per-AS history index, so queries are O(log n)
// lookups under an RWMutex and never touch the disk.
package store

import (
	"math"
	"sort"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/pipeline"
)

// Entry is one AS's result inside a round record. Scores are stored in
// centi-points (0..10000) so records stay integral and delta-encodable;
// the ±0.005 quantisation is far below the measurement's own noise floor.
// The store holds one Entry per scored AS per archived round, so the counts
// take the narrowest types their ranges fit: 20 bytes an entry.
type Entry struct {
	ASN   inet.ASN
	Centi uint16 // protection score × 100
	VVPs  uint16
	// TNodesMeasured / TNodesFiltered give the score's denominator and
	// numerator, preserved so history stays re-derivable.
	TNodesMeasured, TNodesFiltered uint32
	// Unanimous is false when at least one tNode was discarded for vVP
	// disagreement.
	Unanimous bool
}

// Score returns the protection score in [0, 100].
func (e Entry) Score() float64 { return float64(e.Centi) / 100 }

// Evidence is the round's fault/discard provenance: what the pipeline
// measured, what it threw away, and what the fault layer did. It is the
// longitudinal answer to "can I trust this round's scores".
type Evidence struct {
	PairsMeasured, PairsUsable, PairsDiscarded int
	// Profile names the armed fault profile ("" or "none" when clean).
	Profile                                    string
	PairRetries, PairsRecovered                int
	VVPsChurned                                int
	VVPsUnstable, VVPsRequalified, VVPsDropped int
	// PathCacheFlaps is an archived slot: rounds no longer invalidate the
	// forwarding-path cache, so new records write 0 and only records
	// written before that change can hold a nonzero count. It keeps its
	// place in the segment format.
	PathCacheFlaps int
}

// RoundRecord is one archived measurement round. Entries are sorted by
// ascending ASN; Round is assigned by Store.Append and is the record's
// index in the store's contiguous history.
type RoundRecord struct {
	Round uint32
	Day   int
	// Status is the round's typed health verdict; a degraded round carries
	// its entries (possibly none) but must not be read as zero protection.
	Status pipeline.RoundStatus
	// TestPrefixes / TNodes / AllVVPs are the round's population counts.
	TestPrefixes, TNodes, AllVVPs int
	// ConsistencyCenti is the consistent-cell fraction × 10000.
	ConsistencyCenti uint16
	Evidence         Evidence
	Entries          []Entry
}

// Consistency returns the consistent-pair fraction in [0, 1].
func (r *RoundRecord) Consistency() float64 { return float64(r.ConsistencyCenti) / 10000 }

// Entry returns the record's entry for asn, by binary search.
func (r *RoundRecord) Entry(asn inet.ASN) (Entry, bool) {
	i := sort.Search(len(r.Entries), func(i int) bool { return r.Entries[i].ASN >= asn })
	if i < len(r.Entries) && r.Entries[i].ASN == asn {
		return r.Entries[i], true
	}
	return Entry{}, false
}

// centi quantises a score in [0, 100] to centi-points.
func centi(score float64) uint16 {
	c := math.Round(score * 100)
	if c < 0 {
		return 0
	}
	if c > 10000 {
		return 10000
	}
	return uint16(c)
}

// FromSnapshot converts a measurement round's snapshot into an archivable
// record (Round is left zero; Append assigns it).
func FromSnapshot(snap *core.Snapshot) *RoundRecord {
	rec := &RoundRecord{
		Day:              snap.Day,
		Status:           snap.Status,
		TestPrefixes:     snap.TestPrefixes,
		TNodes:           len(snap.TNodes),
		AllVVPs:          snap.AllVVPs,
		ConsistencyCenti: centi(snap.ConsistentPairFraction * 100),
	}
	if m := snap.Metrics; m != nil {
		rec.Evidence = Evidence{
			PairsMeasured:   m.PairsMeasured,
			PairsUsable:     m.PairsUsable,
			PairsDiscarded:  m.PairsDiscarded,
			Profile:         m.Faults.Profile,
			PairRetries:     m.Faults.PairRetries,
			PairsRecovered:  m.Faults.PairsRecovered,
			VVPsChurned:     m.Faults.VVPsChurned,
			VVPsUnstable:    m.Faults.VVPsUnstable,
			VVPsRequalified: m.Faults.VVPsRequalified,
			VVPsDropped:     m.Faults.VVPsDropped,
		}
	}
	rec.Entries = make([]Entry, 0, len(snap.Reports))
	for asn, rep := range snap.Reports {
		rec.Entries = append(rec.Entries, Entry{
			ASN:            asn,
			Centi:          centi(rep.Score),
			VVPs:           uint16(min(rep.VVPs, math.MaxUint16)),
			TNodesMeasured: uint32(min(rep.TNodesMeasured, math.MaxUint32)),
			TNodesFiltered: uint32(min(rep.TNodesFiltered, math.MaxUint32)),
			Unanimous:      rep.Unanimous,
		})
	}
	sort.Slice(rec.Entries, func(i, j int) bool { return rec.Entries[i].ASN < rec.Entries[j].ASN })
	return rec
}
