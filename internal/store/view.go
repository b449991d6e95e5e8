package store

import (
	"fmt"
	"sort"

	"github.com/netsec-lab/rovista/internal/inet"
)

// viewState is the store's complete read state — the rounds slice, the
// per-AS history index, and the generation — published as one immutable
// unit behind Store.state. Readers load the pointer once and see a
// self-consistent world: the generation always equals the number of rounds
// the snapshot holds, and the history index always matches the records.
// Writers never mutate a published viewState; Append builds the successor
// copy-on-write under the writer mutex and publishes it atomically.
//
// Copy-on-write details: the hist map header is copied per publish. The
// records slice and the per-AS point slices are extended with plain append
// — when a slice has spare capacity the new element lands in backing-array
// memory beyond every published reader's length, which no reader can
// observe (no reader looks past its view's length, and only the writer
// appends), so sharing the array is safe and an append costs amortized
// O(1) whatever the number of archived rounds.
type viewState struct {
	records []*RoundRecord
	hist    map[inet.ASN][]HistoryPoint
	gen     uint64
}

// View is an immutable, lock-free read view of the store: every method
// resolves against the same publication, so a sequence of calls on one
// View can never observe a torn or cross-generation state (the
// generation-then-query race the old RWMutex API had). Obtain with
// Store.View; the zero value is empty but usable.
type View struct {
	v *viewState
}

// emptyView backs zero-value and pre-publication views.
var emptyView = &viewState{}

func (w View) state() *viewState {
	if w.v == nil {
		return emptyView
	}
	return w.v
}

// Generation returns the view's publication counter: it changes exactly
// when a round is appended, and equals the number of rounds the view
// holds. Caches key their contents on it.
func (w View) Generation() uint64 { return w.state().gen }

// Rounds returns the number of archived rounds in the view.
func (w View) Rounds() int { return len(w.state().records) }

// Round returns archived round i, or nil when out of range.
func (w View) Round(i int) *RoundRecord {
	recs := w.state().records
	if i < 0 || i >= len(recs) {
		return nil
	}
	return recs[i]
}

// Latest returns the most recent round, or nil on an empty view.
func (w View) Latest() *RoundRecord {
	recs := w.state().records
	if len(recs) == 0 {
		return nil
	}
	return recs[len(recs)-1]
}

// Current returns an AS's most recent score and the round it came from.
func (w View) Current(asn inet.ASN) (HistoryPoint, bool) {
	h := w.state().hist[asn]
	if len(h) == 0 {
		return HistoryPoint{}, false
	}
	return h[len(h)-1], true
}

// Series returns an AS's full score history, sorted by round. The slice is
// shared with the store: read-only.
func (w View) Series(asn inet.ASN) []HistoryPoint { return w.state().hist[asn] }

// EntryAt is the (ASN, round) point lookup: the AS's full entry in that
// round, if it was scored there.
func (w View) EntryAt(asn inet.ASN, round int) (Entry, bool) {
	recs := w.state().records
	if round < 0 || round >= len(recs) {
		return Entry{}, false
	}
	return recs[round].Entry(asn)
}

// TopN returns the n highest-scoring (protected=true) or lowest-scoring
// entries of the latest round, ties broken by ascending ASN.
func (w View) TopN(n int, protected bool) []Entry {
	recs := w.state().records
	if len(recs) == 0 || n <= 0 {
		return nil
	}
	latest := recs[len(recs)-1]
	out := make([]Entry, len(latest.Entries))
	copy(out, latest.Entries)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Centi != out[j].Centi {
			if protected {
				return out[i].Centi > out[j].Centi
			}
			return out[i].Centi < out[j].Centi
		}
		return out[i].ASN < out[j].ASN
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Diff returns the per-AS changes from round `from` to round `to`: score
// movements plus appearances and disappearances, sorted by ASN.
func (w View) Diff(from, to int) ([]DiffEntry, error) {
	recs := w.state().records
	if from < 0 || from >= len(recs) || to < 0 || to >= len(recs) {
		return nil, fmt.Errorf("store: diff rounds (%d, %d) outside history [0, %d)", from, to, len(recs))
	}
	a, b := recs[from].Entries, recs[to].Entries
	var out []DiffEntry
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].ASN < b[j].ASN):
			out = append(out, DiffEntry{ASN: a[i].ASN, From: a[i], Vanished: true})
			i++
		case i >= len(a) || b[j].ASN < a[i].ASN:
			out = append(out, DiffEntry{ASN: b[j].ASN, To: b[j], Appeared: true})
			j++
		default:
			if a[i].Centi != b[j].Centi || a[i].Unanimous != b[j].Unanimous {
				out = append(out, DiffEntry{ASN: a[i].ASN, From: a[i], To: b[j]})
			}
			i++
			j++
		}
	}
	return out, nil
}
