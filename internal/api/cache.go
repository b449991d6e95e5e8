package api

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
)

// lockCount counts every mutex acquisition the serving path's shared
// front-end structures make (cache shard fills, rate-limiter client
// registration). The contention-free guard test asserts a warmed cached
// read acquires zero — the lock-count analogue of an AllocsPerRun guard.
var lockCount atomic.Int64

// countedMutex is a sync.Mutex whose acquisitions feed lockCount.
type countedMutex struct{ sync.Mutex }

func (m *countedMutex) Lock() {
	lockCount.Add(1)
	m.Mutex.Lock()
}

// hashString is FNV-1a over the key bytes: allocation-free, good spread on
// URI and dotted-quad strings, cheap enough for the per-request path.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// shardCount picks the front-end shard count: a power of two scaled to the
// core count, so independent clients land on independent shards with high
// probability and the shard mask stays a single AND.
func shardCount() int {
	n := runtime.GOMAXPROCS(0) * 4
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// genCache is the generation-keyed read-through response cache, sharded by
// key hash. Every entry belongs to one store generation; a shard lazily
// resets when a writer observes a newer generation, so a response can
// never outlive the round-set it was computed from.
//
// Reads are lock-free: each shard publishes its generation and its two
// segments together as one immutable shardState behind one atomic pointer,
// so a reader's single load yields a generation and exactly the entries
// computed at it — a concurrent reset can neither hand it pre-reset
// entries under the new generation nor post-reset entries under the old
// one. Writers (cache fills, i.e. response misses) take the shard mutex and
// publish the next state copy-on-write.
//
// Capacity uses segmented (two-generation) eviction instead of a wholesale
// clear: when the hot segment fills, it rotates to cold and a fresh hot
// segment starts. Hot keys stay servable from the cold segment across the
// overflow — a diverse key flood can evict the long tail but costs the hot
// set at most one recompute every two rotations, not a miss storm.
type genCache struct {
	perShard  int
	shardMask uint32
	shards    []cacheShard

	// resets / rotations are observability hooks (Metrics): generation
	// resets and capacity rotations per shard.
	resets    *atomic.Int64
	rotations *atomic.Int64
}

type cacheShard struct {
	state atomic.Pointer[shardState]
	mu    countedMutex
}

// shardState is one published version of a shard. It is never mutated
// after the Store that publishes it, and neither are its maps.
type shardState struct {
	gen       uint64
	hot, cold map[string]cacheEntry
}

type cacheEntry struct {
	status      int
	contentType string
	body        []byte
}

func newGenCache(max int, resets, rotations *atomic.Int64) *genCache {
	if max <= 0 {
		max = 4096
	}
	n := shardCount()
	per := max / n
	if per < 8 {
		per = 8
	}
	return &genCache{
		perShard:  per,
		shardMask: uint32(n - 1),
		shards:    make([]cacheShard, n),
		resets:    resets,
		rotations: rotations,
	}
}

// get returns the cached response for key at store generation gen. It is
// lock-free: a generation mismatch is simply a miss (the reset happens on
// the subsequent put), and segment lookups read immutable maps.
func (c *genCache) get(gen uint64, key string) (cacheEntry, bool) {
	st := c.shards[hashString(key)&c.shardMask].state.Load()
	if st == nil || st.gen != gen {
		return cacheEntry{}, false
	}
	if e, ok := st.hot[key]; ok {
		return e, true
	}
	e, ok := st.cold[key]
	return e, ok
}

// put stores a response computed while the store was at generation gen.
// Runs on the miss path only, under the shard mutex; the next state is
// built copy-on-write so concurrent readers never see a mutating map.
func (c *genCache) put(gen uint64, key string, e cacheEntry) {
	sh := &c.shards[hashString(key)&c.shardMask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var next shardState
	if cur := sh.state.Load(); cur != nil {
		next = *cur
	}
	switch {
	case next.gen > gen:
		// A newer generation owns the shard: this response is already
		// stale, drop it.
		return
	case next.gen < gen:
		// Lazy generation reset: the new state starts with empty segments.
		next = shardState{gen: gen}
		if c.resets != nil {
			c.resets.Add(1)
		}
	}
	switch {
	case next.hot == nil:
		next.hot = map[string]cacheEntry{key: e}
	case len(next.hot) >= c.perShard:
		// Segmented eviction: the full hot segment becomes the cold one
		// (dropping the previous cold), and the new entry seeds a fresh
		// hot segment. No copying, and recently hot keys stay servable.
		next.cold = next.hot
		next.hot = map[string]cacheEntry{key: e}
		if c.rotations != nil {
			c.rotations.Add(1)
		}
	default:
		hot := make(map[string]cacheEntry, len(next.hot)+1)
		for k, v := range next.hot {
			hot[k] = v
		}
		hot[key] = e
		next.hot = hot
	}
	sh.state.Store(&next)
}

// missBuffer is the cache-miss path's ResponseWriter. The handler renders
// its whole answer into it; serve then writes the body to the client once
// and caches that same slice. Nothing reaches the client before the body is
// complete, so a client that disconnects cannot truncate what is cached.
type missBuffer struct {
	// header is the client's own header map: headers are sent only when
	// serve writes the status, after the handler has returned.
	header http.Header
	status int
	body   []byte
}

func (m *missBuffer) Header() http.Header { return m.header }

func (m *missBuffer) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}

func (m *missBuffer) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	m.body = append(m.body, p...)
	return len(p), nil
}
