package service

import (
	"sync"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/temporal"
)

// cacheKey addresses one cache bucket: the (source partition, target
// partition, checkpoint slot) triple of the issue's caching scheme.
// Keying buckets by partition pair and slot gives slot-granular
// invalidation (a schedule change voids exactly the affected slots)
// and partition-level locality: every exact-query entry for one OD
// region at one topology epoch lives in one bucket.
type cacheKey struct {
	src  model.PartitionID
	tgt  model.PartitionID
	slot int
}

// entryKey identifies one exact query inside a bucket. Entries match on
// the full normalised query identity — source and target points, time
// of day and walking speed — because two queries that differ only
// within a partition, or whose walks cross slot boundaries at different
// instants, can legitimately have different answers. The bucket key
// narrows the search; the entry key preserves exact ITSPQ semantics.
type entryKey struct {
	src, tgt geom.Point
	at       temporal.TimeOfDay
	speed    float64
}

// cacheEntry is one stored outcome plus the checkpoint-slot range its
// answer depends on. A found path's validity and optimality depend on
// every slot between departure and arrival: closing a door can only
// break the path itself (whose arrivals lie in that range), and opening
// a door can only create a shorter path, whose door arrivals all
// precede the cached arrival. No-route outcomes and walks that wrap
// past midnight have no such bound and are marked spansAll.
type cacheEntry struct {
	res              Result
	minSlot, maxSlot int
	spansAll         bool
}

func (e cacheEntry) touches(slot int) bool {
	return e.spansAll || (slot >= e.minSlot && slot <= e.maxSlot)
}

// resultCache is a bounded, concurrency-safe map from (bucket, entry)
// to query outcomes. Eviction drops whole buckets (arbitrary order via
// map iteration) until the entry count is back under capacity — crude,
// but O(1) amortised and sufficient for a steady-state serving cache
// where whole OD-pair/slot regions age out together. The epoch counter
// guards against a search that raced an invalidation re-inserting a
// pre-invalidation result: put discards outcomes computed before the
// latest invalidation.
type resultCache struct {
	mu      sync.RWMutex
	cap     int
	size    int
	evicted int64 // entries shed by capacity eviction (not invalidation)
	epochN  uint64
	buckets map[cacheKey]map[entryKey]cacheEntry
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, buckets: make(map[cacheKey]map[entryKey]cacheEntry)}
}

// epoch returns the invalidation epoch; capture it before a search and
// hand it back to put.
func (c *resultCache) epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epochN
}

func (c *resultCache) get(key cacheKey, ekey entryKey) (Result, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.buckets[key]
	if !ok {
		return Result{}, false
	}
	e, ok := b[ekey]
	return e.res, ok
}

// put stores an entry, reporting whether it was kept. False means the
// capture epoch is stale — an invalidation ran while the outcome was
// computed — which callers surface as the epoch_raced miss reason.
func (c *resultCache) put(key cacheKey, ekey entryKey, e cacheEntry, epoch uint64) bool {
	// Never republish transient flags from the computing caller: a
	// later get re-labels the outcome as its own (exact) hit.
	e.res.CacheHit = false
	e.res.Shared = false
	e.res.SharedRun = false
	e.res.Hit = HitMiss
	e.res.Explain = obs.ReasonNone
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epochN {
		return false // an invalidation ran while this outcome was computed
	}
	b, ok := c.buckets[key]
	if !ok {
		b = make(map[entryKey]cacheEntry)
		c.buckets[key] = b
	}
	if _, exists := b[ekey]; !exists {
		c.size++
	}
	b[ekey] = e
	for c.size > c.cap {
		c.evictLocked(key, ekey)
	}
	return true
}

// evictLocked drops one bucket other than keep (the bucket just written
// to). When keep is the only bucket left it sheds that bucket's entries
// individually instead, sparing the entry just written so a hot bucket
// larger than the capacity still serves its latest results.
func (c *resultCache) evictLocked(keep cacheKey, keepE entryKey) {
	for k, b := range c.buckets {
		if k == keep {
			if len(c.buckets) > 1 {
				continue
			}
			for ek := range b {
				if ek == keepE {
					continue
				}
				delete(b, ek)
				c.size--
				c.evicted++
				if c.size <= c.cap {
					return
				}
			}
			return
		}
		c.size -= len(b)
		c.evicted += int64(len(b))
		delete(c.buckets, k)
		return
	}
}

// invalidateSlot drops every entry whose answer can depend on slot:
// entries whose departure-to-arrival slot range contains it, plus all
// unbounded (spansAll) entries.
func (c *resultCache) invalidateSlot(slot int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochN++
	for k, b := range c.buckets {
		for ek, e := range b {
			if e.touches(slot) {
				delete(b, ek)
				c.size--
			}
		}
		if len(b) == 0 {
			delete(c.buckets, k)
		}
	}
}

func (c *resultCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochN++
	c.buckets = make(map[cacheKey]map[entryKey]cacheEntry)
	c.size = 0
}

func (c *resultCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size
}

// usage returns occupancy, capacity and the count of entries shed by
// capacity eviction since construction (invalidation drops not
// included).
func (c *resultCache) usage() (size, capacity int, evicted int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size, c.cap, c.evicted
}

// missEvidence is the skeleton layer's build policy: the bounded set
// of family keys — (source partition, target partition, family slot) —
// that already missed once under the current backend, plus the keys
// whose family build is in flight. A family costs one frozen-topology
// Dijkstra per entry door and pays off only when its pair repeats in
// its slot, so a miss builds only on repeat evidence: its key is
// already recorded here, or it belongs to a jittered SharedPartition
// wave (routePartitionGroup records the key for the wave up front).
// At most one build per key runs at a time: concurrent repeat misses
// of a key under construction skip the build rather than repeat it,
// and lookups of the key wait for it (pending) rather than search. It
// lives on poolBackend, so a graph swap drops it together with the
// store it feeds. The zero value is ready to use.
type missEvidence struct {
	mu   sync.Mutex
	seen map[cacheKey]struct{}
	// building maps each key with a build in flight to a channel
	// closed when that build returns.
	building map[cacheKey]chan struct{}
}

// missEvidenceCapacity bounds the recorded keys. A full set starts
// over, which costs each pair in it at most one more unbuilt miss.
const missEvidenceCapacity = 1024

// repeat records k and reports whether it was already recorded.
func (m *missEvidence) repeat(k cacheKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.repeatLocked(k)
}

func (m *missEvidence) repeatLocked(k cacheKey) bool {
	if _, ok := m.seen[k]; ok {
		return true
	}
	if m.seen == nil {
		m.seen = make(map[cacheKey]struct{})
	} else if len(m.seen) >= missEvidenceCapacity {
		clear(m.seen)
	}
	m.seen[k] = struct{}{}
	return false
}

// claimBuild records k and reports whether the caller should build its
// family now: k was already recorded and no build of k is in flight. A
// true return marks the build in flight; the caller must call endBuild
// once the build returns, whether or not it produced a family.
func (m *missEvidence) claimBuild(k cacheKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.repeatLocked(k) {
		return false
	}
	if _, busy := m.building[k]; busy {
		return false
	}
	if m.building == nil {
		m.building = make(map[cacheKey]chan struct{})
	}
	m.building[k] = make(chan struct{})
	return true
}

// endBuild clears k's in-flight mark and releases its waiters.
func (m *missEvidence) endBuild(k cacheKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if done, ok := m.building[k]; ok {
		close(done)
		delete(m.building, k)
	}
}

// pending returns a channel closed when k's in-flight build returns,
// or nil when no build of k is in flight.
func (m *missEvidence) pending(k cacheKey) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if done, ok := m.building[k]; ok {
		return done
	}
	return nil
}
