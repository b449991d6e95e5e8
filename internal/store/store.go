package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/netsec-lab/rovista/internal/inet"
)

// Config tunes a store.
type Config struct {
	// SegmentRounds is the number of rounds per segment file before the
	// store rolls to a new one; 0 uses the default (64).
	SegmentRounds int
	// Sync fsyncs the active segment after every append. Off by default:
	// the framing already confines a crash to the tail record, and the
	// serving daemon's data is regenerable.
	Sync bool
}

func (c Config) withDefaults() Config {
	if c.SegmentRounds <= 0 {
		c.SegmentRounds = 64
	}
	return c
}

// Store is the longitudinal archive: rounds 0..Rounds()-1, contiguous,
// append-only. All methods are safe for concurrent use. Reads are
// lock-free: the read state (rounds, per-AS history index, generation) is
// an immutable snapshot behind an atomic pointer, so queries proceed at
// memory speed regardless of writer activity. Append/Compact serialize on
// a writer mutex, build the successor snapshot copy-on-write, and publish
// it atomically. Returned records and slices share the store's memory and
// must be treated as read-only.
type Store struct {
	dir string
	cfg Config

	// state is the published read snapshot; see viewState for the
	// immutability contract.
	state atomic.Pointer[viewState]
	// publishes counts snapshot publications (observability: exposed by
	// the API under /metrics as store_snapshot_publishes).
	publishes atomic.Uint64
	// writerLocks counts writer-mutex acquisitions. The read path never
	// touches mu, and the lock-count guard test pins exactly that: any
	// query sequence leaves this counter unchanged.
	writerLocks atomic.Uint64

	mu           sync.Mutex // writer lock: Append, Compact, Close
	active       *os.File
	activeRounds int // records in the active segment
	// appendErr poisons the store after an unrecoverable write failure
	// (a torn frame that could not be truncated away): further Appends
	// fail instead of silently writing after garbage that reload would
	// stop at, dropping everything behind it.
	appendErr error
}

// HistoryPoint is one (round, score) sample of an AS's history.
type HistoryPoint struct {
	Round uint32
	Centi uint16
}

// Score returns the point's protection score in [0, 100].
func (p HistoryPoint) Score() float64 { return float64(p.Centi) / 100 }

// segName names the segment whose first record is round base. Zero-padded
// so lexical order is round order.
func segName(base uint32) string { return fmt.Sprintf("seg-%08d.rvs", base) }

// Open opens (creating if needed) a store rooted at dir and reloads every
// intact round. Reload is crash-safe: a truncated or corrupt tail in a
// segment ends recovery at the last intact record; the damaged tail — and
// any later, now-unreachable segment files — are removed so the on-disk
// state matches the recovered history before the next append.
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, cfg: cfg}
	st := &viewState{hist: make(map[inet.ASN][]HistoryPoint)}

	names, err := filepath.Glob(filepath.Join(dir, "seg-*.rvs"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)

	next := uint32(0)
	lastPath, lastEnd, lastSize := "", int64(0), int64(0)
	lastRounds := 0
	orphans := []string{}
	broken := false
	for _, path := range names {
		if broken {
			orphans = append(orphans, path)
			continue
		}
		recs, validEnd, err := loadSegment(path, next)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", path, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			indexInto(st, rec)
		}
		next += uint32(len(recs))
		if len(recs) == 0 && validEnd < segHeaderSize {
			// Nothing recoverable (header lost): discard the file entirely.
			orphans = append(orphans, path)
			broken = true
			continue
		}
		lastPath, lastEnd, lastSize, lastRounds = path, validEnd, fi.Size(), len(recs)
		if validEnd < fi.Size() {
			// Truncated tail: later segments can no longer be contiguous.
			broken = true
		}
	}
	for _, path := range orphans {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("store: removing orphaned %s: %w", path, err)
		}
	}

	// Repair the tail unconditionally: whatever follows the last intact
	// record is crash debris even when the segment counts as full under
	// the *current* config (on-disk segments may hold more rounds than
	// cfg.SegmentRounds if the store was written with a larger setting).
	// Leaving it in place would make a later reload stop at the torn
	// frame and orphan-delete every newer, valid segment.
	if lastPath != "" && lastEnd < lastSize {
		if err := os.Truncate(lastPath, lastEnd); err != nil {
			return nil, err
		}
	}

	// Reopen the last segment for appending, unless it is already full —
	// then the next append starts a fresh segment.
	if lastPath != "" && lastRounds < cfg.SegmentRounds {
		f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		s.active = f
		s.activeRounds = lastRounds
	}
	s.publish(st)
	return s, nil
}

// indexInto merges one record into a snapshot still under construction
// (Open's single-threaded reload; never a published snapshot).
func indexInto(st *viewState, rec *RoundRecord) {
	st.records = append(st.records, rec)
	for _, e := range rec.Entries {
		st.hist[e.ASN] = append(st.hist[e.ASN], HistoryPoint{Round: rec.Round, Centi: e.Centi})
	}
	st.gen++
}

// publish makes st the store's current read snapshot.
func (s *Store) publish(st *viewState) {
	s.state.Store(st)
	s.publishes.Add(1)
}

// lockWriter takes the writer mutex, counting the acquisition for the
// lock-count guard.
func (s *Store) lockWriter() {
	s.writerLocks.Add(1)
	s.mu.Lock()
}

// View returns the current immutable read view. All Store query methods
// are shorthands for a fresh View call; callers needing several queries
// against one consistent generation (e.g. the API's cached read path)
// should take a View once and reuse it.
func (s *Store) View() View { return View{s.state.Load()} }

// SnapshotPublishes returns the number of read-snapshot publications since
// Open (Open's initial load counts as one).
func (s *Store) SnapshotPublishes() uint64 { return s.publishes.Load() }

// WriterLockAcquisitions returns the number of writer-mutex acquisitions.
// Reads never acquire it; tests pin that by sampling this around query
// storms.
func (s *Store) WriterLockAcquisitions() uint64 { return s.writerLocks.Load() }

// Close flushes and closes the active segment. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.lockWriter()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// Append archives rec as the next round, assigning rec.Round, persisting it
// to the active segment (rolling to a new segment when full), building the
// successor read snapshot copy-on-write and publishing it atomically. The
// store takes ownership of rec.
func (s *Store) Append(rec *RoundRecord) error {
	s.lockWriter()
	defer s.mu.Unlock()
	if s.appendErr != nil {
		return s.appendErr
	}
	old := s.state.Load()
	rec.Round = uint32(len(old.records))
	sort.Slice(rec.Entries, func(i, j int) bool { return rec.Entries[i].ASN < rec.Entries[j].ASN })
	for i := 1; i < len(rec.Entries); i++ {
		if rec.Entries[i].ASN == rec.Entries[i-1].ASN {
			return fmt.Errorf("store: duplicate ASN %v in round %d", rec.Entries[i].ASN, rec.Round)
		}
	}

	if s.active != nil && s.activeRounds >= s.cfg.SegmentRounds {
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
	}
	if s.active == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, segName(rec.Round)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(encodeSegmentHeader(rec.Round)); err != nil {
			f.Close()
			return err
		}
		s.active = f
		s.activeRounds = 0
	}
	// Remember the pre-write end so a partial write (ENOSPC, I/O error)
	// can be rolled back: a torn frame left in place would make reload
	// stop there, silently dropping every later round Append reported as
	// persisted.
	off, err := s.active.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := writeFramed(s.active, rec); err != nil {
		s.truncateActive(off)
		return err
	}
	if s.cfg.Sync {
		if err := s.active.Sync(); err != nil {
			s.truncateActive(off)
			return err
		}
	}
	s.activeRounds++

	// Build and publish the successor snapshot. The records slice and the
	// per-AS history slices are extended by append (safe: any in-place
	// growth writes beyond every published reader's length); the hist map
	// header is copied.
	next := &viewState{
		records: append(old.records, rec),
		hist:    make(map[inet.ASN][]HistoryPoint, len(old.hist)+len(rec.Entries)),
		gen:     old.gen + 1,
	}
	for asn, h := range old.hist {
		next.hist[asn] = h
	}
	for _, e := range rec.Entries {
		next.hist[e.ASN] = append(next.hist[e.ASN], HistoryPoint{Round: rec.Round, Centi: e.Centi})
	}
	s.publish(next)
	return nil
}

// truncateActive discards the bytes a failed append left beyond off,
// restoring the active segment to a clean frame boundary. If even the
// truncate fails the segment cannot be trusted: close it and poison the
// store (caller holds mu).
func (s *Store) truncateActive(off int64) {
	if err := s.active.Truncate(off); err != nil {
		s.active.Close()
		s.active = nil
		s.appendErr = fmt.Errorf("store: active segment unrecoverable after failed append: %w", err)
	}
}

// Compact rewrites the whole history into a single segment file and removes
// the old ones, reclaiming the per-segment overhead and the fragmentation
// left by small SegmentRounds. Logical content and generation are
// unchanged — the read snapshot is not republished — so concurrent queries
// keep working throughout, and appends resume into the compacted segment.
func (s *Store) Compact() error {
	s.lockWriter()
	defer s.mu.Unlock()
	records := s.state.Load().records
	if len(records) == 0 {
		return nil
	}
	tmp := filepath.Join(s.dir, "compact.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSegmentHeader(0)); err != nil {
		f.Close()
		return err
	}
	for _, rec := range records {
		if _, err := writeFramed(f, rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	old, err := filepath.Glob(filepath.Join(s.dir, "seg-*.rvs"))
	if err != nil {
		return err
	}
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, segName(0))); err != nil {
		return err
	}
	for _, path := range old {
		if path == filepath.Join(s.dir, segName(0)) {
			continue
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	a, err := os.OpenFile(filepath.Join(s.dir, segName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.active = a
	s.activeRounds = len(records)
	return nil
}

// Generation returns a counter that changes whenever a round is appended.
// Caches key their contents on it. For multi-query consistency against one
// generation, use View.
func (s *Store) Generation() uint64 { return s.View().Generation() }

// Rounds returns the number of archived rounds.
func (s *Store) Rounds() int { return s.View().Rounds() }

// Round returns archived round i, or nil when out of range.
func (s *Store) Round(i int) *RoundRecord { return s.View().Round(i) }

// Latest returns the most recent round, or nil on an empty store.
func (s *Store) Latest() *RoundRecord { return s.View().Latest() }

// Current returns an AS's most recent score and the round it came from.
func (s *Store) Current(asn inet.ASN) (HistoryPoint, bool) { return s.View().Current(asn) }

// Series returns an AS's full score history, sorted by round. The slice is
// shared with the store: read-only.
func (s *Store) Series(asn inet.ASN) []HistoryPoint { return s.View().Series(asn) }

// EntryAt is the (ASN, round) point lookup: the AS's full entry in that
// round, if it was scored there.
func (s *Store) EntryAt(asn inet.ASN, round int) (Entry, bool) { return s.View().EntryAt(asn, round) }

// TopN returns the n highest-scoring (protected=true) or lowest-scoring
// entries of the latest round, ties broken by ascending ASN.
func (s *Store) TopN(n int, protected bool) []Entry { return s.View().TopN(n, protected) }

// DiffEntry is one AS's change between two rounds.
type DiffEntry struct {
	ASN      inet.ASN
	From, To Entry
	// Appeared / Vanished flag ASes scored in only one of the rounds
	// (the zero-valued side's Entry is meaningless then).
	Appeared, Vanished bool
}

// Diff returns the per-AS changes from round `from` to round `to`: score
// movements plus appearances and disappearances, sorted by ASN.
func (s *Store) Diff(from, to int) ([]DiffEntry, error) { return s.View().Diff(from, to) }
