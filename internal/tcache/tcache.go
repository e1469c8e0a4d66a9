// Package tcache is the temporal result cache of the serving layer:
// the skeleton-family store. It is keyed at the (source partition,
// target partition) granularity schedule invalidation works at, and per
// pair it holds at most one core.SkeletonFamily per checkpoint slot —
// door-to-door chains with the point-dependent legs factored out, so
// one stored family answers any endpoints inside the pair at any
// departure inside the slot.
//
// The paper's whole premise is that indoor shortest paths vary with
// departure time; the flip side is that between topology checkpoints
// they do not vary at all, and within one slot they do not vary with
// the endpoints' exact coordinates beyond the first and last legs. So
// one point-free store clamped to a checkpoint slot covers every
// reuse: a time-sweep from one point and a jittered crowd leaving one
// hot lobby both compose from the same family. Exact repeats are the
// service's exact cache's job, not this store's.
//
// Layout: buckets keyed by the partition pair, each holding the pair's
// families sorted by window opening and pairwise disjoint, so a lookup
// is one map step plus a short scan. One store serves one engine
// method (service.Pool keeps one pool, and so one store, per method).
//
// Invariants the serving layer relies on:
//
//   - stored families are immutable once inserted; ProbeFamily hands
//     the same pointers to many goroutines (the door/partition slices
//     are shared into composed paths, which are immutable by the
//     repository-wide path contract);
//   - a family answer must be recomposed per query
//     (core.ComposeSkeletonPath), never replayed;
//   - a schedule swap must drop the whole store (service swaps the
//     backend, store included); InvalidateRange supports the finer
//     slot-granular knob;
//   - the epoch counter guards the same race as the exact cache's: a
//     build that overlapped an invalidation must not re-insert its
//     pre-invalidation family.
package tcache

import (
	"sort"
	"sync"

	"indoorpath/internal/core"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// DefaultCapacity bounds the number of stored families when NewStore
// is given zero.
const DefaultCapacity = 4096

// Key addresses one bucket: the OD partition pair of the stored
// families.
type Key struct {
	Src, Tgt model.PartitionID
}

// FamilyEntry is one stored skeleton family with the statistics of the
// search whose miss produced it. All fields are read-only after
// insertion; Window duplicates Fam.Window so probes never chase the
// inner pointer.
type FamilyEntry struct {
	// Window is the departure interval the family's frozen topology
	// holds for (the slot; the whole day for a static-method family).
	Window temporal.Interval
	// Fam is the immutable chain table (core.ComposeSkeletonPath input).
	Fam *core.SkeletonFamily
	// Stats are the search statistics of the engine run whose miss
	// triggered the family build, reported on every skeleton hit.
	Stats core.SearchStats
}

// Store is a bounded, concurrency-safe family store. The zero value
// is not usable; construct with NewStore.
type Store struct {
	mu      sync.RWMutex
	cap     int
	size    int   // total families across all buckets
	evicted int64 // families shed by capacity eviction (not invalidation)
	epochN  uint64
	// buckets holds each pair's families, sorted by Window.Open and
	// pairwise disjoint. A pair stores at most one family per
	// checkpoint slot and hot pairs touch a handful of slots, so
	// lookups scan linearly.
	buckets map[Key][]*FamilyEntry
}

// NewStore builds a store holding at most capacity families (0 means
// DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{cap: capacity, buckets: make(map[Key][]*FamilyEntry)}
}

// Epoch returns the invalidation epoch; capture it before the search
// whose family will be inserted and hand it back to InsertFamily.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochN
}

// MissKind says why a probe found nothing — the decision-provenance
// split between "we never built this", "we built it, but not for this
// departure", and "we built it, but could not certify it for this
// query".
type MissKind uint8

const (
	// MissNone: the probe hit.
	MissNone MissKind = iota
	// MissFamilyAbsent: no family is stored for the pair.
	MissFamilyAbsent
	// MissOutsideWindows: the pair has families, but the departure
	// falls outside every stored family's window.
	MissOutsideWindows
	// MissSkeletonUncertified: a family covers the departure, but
	// composing it for the concrete endpoints could not be certified
	// byte-identical to a fresh search (see core.ComposeSkeletonPath).
	// The store itself never returns this — certification needs the
	// query's points — but the serving layer reports the outcome
	// through the same vocabulary.
	MissSkeletonUncertified
)

// ProbeFamily returns the pair's family covering departure at, or nil
// and why it missed. The returned entry is immutable and shared; the
// caller composes it per query and must fall back to an engine when
// composition refuses.
func (s *Store) ProbeFamily(k Key, at temporal.TimeOfDay) (*FamilyEntry, MissKind) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fams := s.buckets[k]
	if len(fams) == 0 {
		return nil, MissFamilyAbsent
	}
	for _, fe := range fams {
		if fe.Window.Contains(at) {
			return fe, MissNone
		}
	}
	return nil, MissOutsideWindows
}

// InsertFamily stores a family for its pair, keeping the pair's list
// sorted by opening and pairwise disjoint. A family whose window
// overlaps a stored one is dropped — concurrent misses in one slot
// build identical families, so first-in wins. Families computed before
// the current epoch are discarded (they raced an invalidation).
// Reports whether the family was stored.
func (s *Store) InsertFamily(k Key, fe *FamilyEntry, epoch uint64) bool {
	if fe == nil || fe.Fam == nil || fe.Window.Duration() <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != s.epochN {
		return false
	}
	fams := s.buckets[k]
	i := sort.Search(len(fams), func(i int) bool { return fams[i].Window.Open >= fe.Window.Open })
	if i > 0 && fams[i-1].Window.Overlaps(fe.Window) {
		return false
	}
	if i < len(fams) && fams[i].Window.Overlaps(fe.Window) {
		return false
	}
	fams = append(fams, nil)
	copy(fams[i+1:], fams[i:])
	fams[i] = fe
	s.buckets[k] = fams
	s.size++
	for s.size > s.cap {
		s.evictLocked(k, fe)
	}
	return true
}

// evictLocked sheds one family, preferring a bucket other than keep
// (the bucket just written to); within keep it spares keepFE (the
// family just inserted) so a single hot pair past the cap still serves
// its newest slot.
func (s *Store) evictLocked(keep Key, keepFE *FamilyEntry) {
	for k, fams := range s.buckets {
		if k == keep {
			continue
		}
		fams[0] = nil
		s.dropLocked(k, fams[1:])
		return
	}
	fams := s.buckets[keep]
	for i, fe := range fams {
		if fe == keepFE {
			continue
		}
		copy(fams[i:], fams[i+1:])
		fams[len(fams)-1] = nil
		s.dropLocked(keep, fams[:len(fams)-1])
		return
	}
}

// dropLocked records one evicted family and stores the pair's
// remaining list, deleting the bucket when it is empty.
func (s *Store) dropLocked(k Key, rest []*FamilyEntry) {
	s.size--
	s.evicted++
	if len(rest) == 0 {
		delete(s.buckets, k)
		return
	}
	s.buckets[k] = rest
}

// InvalidateRange drops every family overlapping the interval — the
// slot-granular invalidation hook: a schedule concern scoped to one
// checkpoint slot voids exactly the families whose validity touches
// that slot. Static-method families span the whole day and are always
// dropped.
func (s *Store) InvalidateRange(iv temporal.Interval) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epochN++
	for k, old := range s.buckets {
		kept := old[:0]
		for _, fe := range old {
			if fe.Window.Overlaps(iv) {
				s.size--
				continue
			}
			kept = append(kept, fe)
		}
		for i := len(kept); i < len(old); i++ {
			old[i] = nil // release dropped families for GC
		}
		if len(kept) == 0 {
			delete(s.buckets, k)
		} else {
			s.buckets[k] = kept
		}
	}
}

// InvalidateAll drops every family.
func (s *Store) InvalidateAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epochN++
	s.buckets = make(map[Key][]*FamilyEntry)
	s.size = 0
}

// FamLen returns the number of stored families.
func (s *Store) FamLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Cap returns the capacity the store evicts down to.
func (s *Store) Cap() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cap
}

// FamEvictions returns the number of families shed by capacity
// eviction since construction. Invalidation drops are not counted —
// they are correctness, not pressure.
func (s *Store) FamEvictions() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.evicted
}

// PairCoverage summarises one OD-pair bucket: Families counts the
// pair's slot families, Chains their stored chains, and CoveredSec
// the summed family-window seconds. A pair's windows are pairwise
// disjoint, so CoveredSec never exceeds a day: CoveredSec/86400 is
// the share of the 24h departure axis the pair answers without an
// engine.
type PairCoverage struct {
	Key        Key
	Families   int
	Chains     int
	CoveredSec float64
}

// SkeletonCoverage snapshots every bucket's tallies under one read
// lock, sorted by descending chain count (ties by ascending Src then
// Tgt) so scrape output is deterministic.
func (s *Store) SkeletonCoverage() []PairCoverage {
	s.mu.RLock()
	out := make([]PairCoverage, 0, len(s.buckets))
	for k, fams := range s.buckets {
		pc := PairCoverage{Key: k, Families: len(fams)}
		for _, fe := range fams {
			pc.Chains += len(fe.Fam.Chains)
			pc.CoveredSec += float64(fe.Window.Duration())
		}
		out = append(out, pc)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Chains != out[j].Chains {
			return out[i].Chains > out[j].Chains
		}
		if out[i].Key.Src != out[j].Key.Src {
			return out[i].Key.Src < out[j].Key.Src
		}
		return out[i].Key.Tgt < out[j].Key.Tgt
	})
	return out
}
