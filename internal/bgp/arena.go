package bgp

import (
	"github.com/netsec-lab/rovista/internal/inet"
)

// Announcement arena chunk sizes. One convergence at paper scale emits a few
// million announcements; carving them out of large chunks turns two heap
// allocations per emission (the announcement and its path slice) into two
// amortized pointer bumps, which is where the multi-GB per-convergence churn
// used to come from.
const (
	annChunkSize  = 1024
	pathChunkASNs = 16384
)

// wireAnn is an announcement as the engine holds it: the AS path (path[0]
// is the sender, path[len-1] the origin) and the PrefixID of the prefix it
// carries — the index of the Adj-RIB-In cell it lands in, so an import reads
// its cell without hashing a prefix. 32 bytes plus 4 per path ASN, against
// 56 for the public Announcement with its netip.Prefix; ImportPolicy still
// sees that one, built on the stack only for an AS that has a policy.
type wireAnn struct {
	path []inet.ASN
	pid  PrefixID
}

// origin returns the announcement's wire origin.
func (w *wireAnn) origin() inet.ASN { return w.path[len(w.path)-1] }

// annArena is a bump allocator for announcements and their AS paths. Each
// propagation worker owns one (worker 0's also serves the serial seeding
// phase), so allocation needs no locking.
//
// Lifetime rule: chunks are never rewritten or reused once full — routes
// installed in Loc-RIBs, collector snapshots, and traced paths all alias the
// announcement storage, so recycling a chunk across convergences would
// corrupt retained state. A superseded chunk simply loses its last reference
// when the routes pointing into it are reset — or, for an announcement only
// unselected routes held, when a full flood releases the spill pool — and
// the garbage collector reclaims it; only the index-addressed per-AS tables
// (Adj-RIB-In cells, Loc-RIB slots, and the spill pool between full floods)
// are reused in place.
type annArena struct {
	anns []wireAnn
	path []inet.ASN
}

// announcement materializes an announcement of prefix id whose path is
// [first, rest...] in arena storage. The returned pointer and its path are
// immutable.
func (ar *annArena) announcement(id PrefixID, first inet.ASN, rest []inet.ASN) *wireAnn {
	need := len(rest) + 1
	if len(ar.path)+need > cap(ar.path) {
		size := pathChunkASNs
		if need > size {
			size = need
		}
		ar.path = make([]inet.ASN, 0, size)
	}
	start := len(ar.path)
	ar.path = append(ar.path, first)
	ar.path = append(ar.path, rest...)
	// Full slice expression: later bumps append past this path's capacity,
	// never into it.
	p := ar.path[start:len(ar.path):len(ar.path)]
	if len(ar.anns) == cap(ar.anns) {
		ar.anns = make([]wireAnn, 0, annChunkSize)
	}
	ar.anns = append(ar.anns, wireAnn{path: p, pid: id})
	return &ar.anns[len(ar.anns)-1]
}
