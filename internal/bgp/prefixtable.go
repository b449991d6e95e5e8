package bgp

import (
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
)

// PrefixID is a dense interned identifier for a masked IPv4 prefix. Every
// prefix that can appear in routing state — originated prefixes, announced
// prefixes, scoped default routes — is interned into the graph's PrefixTable
// at origination time, so per-AS routing tables index flat slices by ID
// instead of hashing pointer-heavy map keys. IDs are never reused: a world
// that withdraws a prefix keeps its ID (the per-AS slot simply empties),
// which is what lets incremental re-convergence and path caches key on IDs
// across snapshots.
type PrefixID uint32

// NoPrefixID is the sentinel for "no interned prefix covers this address".
const NoPrefixID PrefixID = ^PrefixID(0)

// PrefixTable interns masked IPv4 prefixes to dense PrefixIDs. One table is
// shared by every AS in a Graph. Interning happens only on the serial
// convergence/build path; lookups are lock-free reads and safe to run
// concurrently with each other (the parallel propagate workers and the
// measurement data plane both lean on this).
type PrefixTable struct {
	byKey    map[uint64]PrefixID
	prefixes []netip.Prefix
	keys     []uint64
	// lenCount tracks interned prefixes per prefix length so the global LPM
	// only probes populated lengths — same trick as the per-AS FIB walk.
	lenCount [33]int
	gen      uint64
}

// NewPrefixTable returns an empty table.
func NewPrefixTable() *PrefixTable {
	return &PrefixTable{byKey: make(map[uint64]PrefixID)}
}

// Len reports the number of interned prefixes (also the next ID).
func (t *PrefixTable) Len() int { return len(t.prefixes) }

// Gen returns a counter that increases whenever a new prefix is interned.
// Consumers memoizing address→ID resolutions key on it.
func (t *PrefixTable) Gen() uint64 { return t.gen }

// Intern returns the ID for p (masked), assigning the next dense ID on first
// sight. Not safe for concurrent use; call only from the serial build or
// convergence path.
func (t *PrefixTable) Intern(p netip.Prefix) PrefixID {
	m := p.Masked()
	k := inet.PrefixKey(m)
	if id, ok := t.byKey[k]; ok {
		return id
	}
	id := PrefixID(len(t.prefixes))
	t.byKey[k] = id
	t.prefixes = append(t.prefixes, m)
	t.keys = append(t.keys, k)
	t.lenCount[m.Bits()]++
	t.gen++
	return id
}

// IDOf returns the ID of p (masked) if it has been interned.
func (t *PrefixTable) IDOf(p netip.Prefix) (PrefixID, bool) {
	id, ok := t.byKey[inet.PrefixKey(p.Masked())]
	return id, ok
}

// idOfKey resolves a packed prefix key (see inet.PrefixKey/MaskKey).
func (t *PrefixTable) idOfKey(k uint64) (PrefixID, bool) {
	id, ok := t.byKey[k]
	return id, ok
}

// Prefix returns the prefix behind an ID. IDs come from Intern/IDOf/LPM, so
// out-of-range values are a caller bug and panic via the bounds check.
func (t *PrefixTable) Prefix(id PrefixID) netip.Prefix { return t.prefixes[id] }

// keyOf returns the packed sort key of an interned prefix.
func (t *PrefixTable) keyOf(id PrefixID) uint64 { return t.keys[id] }

// plenOf returns the prefix length of an interned prefix.
func (t *PrefixTable) plenOf(id PrefixID) int { return int(uint8(t.keys[id])) }

// keyContains reports whether the prefix packed in outer contains the one
// packed in inner (both inet.PrefixKey words, addr<<8 | plen): inner is at
// least as long and agrees with outer on outer's first plen bits. The
// shift by 32-plen is the mask; at plen 0 it clears all 32 address bits.
func keyContains(outer, inner uint64) bool {
	plen := outer & 0xff
	return plen <= inner&0xff && (outer^inner)>>8>>(32-plen) == 0
}

// keyOverlaps reports whether two packed prefixes share an address: the
// shorter contains the longer, so they agree on the shorter's bits.
func keyOverlaps(a, b uint64) bool {
	return (a^b)>>8>>(32-min(a&0xff, b&0xff)) == 0
}

// LPM returns the most specific interned prefix containing addr. Because
// every prefix consulted by the data plane (FIB entries, originated prefixes,
// scoped defaults) is interned, two addresses resolving to the same ID are
// forwarded identically from every source AS — the property the netsim
// forwarding-path cache keys on.
func (t *PrefixTable) LPM(addr netip.Addr) (PrefixID, bool) {
	v := inet.V4Int(addr)
	for plen := 32; plen >= 0; plen-- {
		if t.lenCount[plen] == 0 {
			continue
		}
		if id, ok := t.byKey[inet.MaskKey(v, plen)]; ok {
			return id, true
		}
	}
	return NoPrefixID, false
}
