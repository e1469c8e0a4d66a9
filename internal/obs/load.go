package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Rolling load signals: a lock-free ring of per-second buckets that
// turns the pool's monotone-since-boot counters into "right now"
// rates. Each bucket holds the atomic signal tallies for one wall
// second; readers sum the trailing 10s/1m/5m of buckets into windowed
// totals. The ring is always on — unlike traces it cannot be switched
// off — so Feed must be allocation-free and wait-free on the hot
// path (pinned by BenchmarkLoadRingFeed in CI).
//
// Consistency contract, mirroring Pool.Stats: within one bucket a
// writer adds Queries FIRST and the outcome signals after, while the
// reader loads the outcome signals first and Queries LAST, then
// re-checks the bucket's second. Any windowed view therefore
// satisfies ExactHits+SkeletonHits+Deduped <= Queries —
// hits may be momentarily undercounted relative to arrivals, never
// the reverse.

const (
	// loadRingSize is the bucket count: the 300 s retention plus a
	// 20 s rotation margin, so a slot is never reused while still
	// inside any window. The wall second maps to slot sec % size.
	loadRingSize = LoadRetentionSec + 20

	// LoadRetentionSec bounds how far back windowed views may reach.
	LoadRetentionSec = 300
)

// LoadWindows are the trailing spans, in seconds, served by the
// windowed views (/loadz and the indoorpath_load_* gauges).
var LoadWindows = []int{10, 60, LoadRetentionSec}

// LoadSample is one batch of signal deltas fed into the ring — and,
// symmetrically, the windowed totals read back out. All fields are
// deltas/tallies; rates are derived by the consumer (total / window).
// A query's entire outcome (arrival + hit/miss/dedup + reason) must
// ride in ONE Feed call so it lands in one bucket and the partition
// inequality holds per window.
type LoadSample struct {
	Queries        int64 `json:"queries"`
	ExactHits      int64 `json:"exact_hits"`
	SkeletonHits   int64 `json:"skeleton_hits"`
	Deduped        int64 `json:"deduped"`
	SharedAnswers  int64 `json:"shared_answers"`
	EngineSearches int64 `json:"engine_searches"`

	// Coalescer flush telemetry. HoldNanos is the summed actual hold
	// time of the flushed waiters; HoldTargetNanos is the configured
	// hold times the same waiter count, so hold-window utilization is
	// HoldNanos/HoldTargetNanos and flush fan-out is
	// FlushedQueries/Flushes.
	Flushes         int64 `json:"flushes"`
	FlushedQueries  int64 `json:"flushed_queries"`
	HoldNanos       int64 `json:"hold_nanos"`
	HoldTargetNanos int64 `json:"hold_target_nanos"`

	// Decision-provenance tallies (see Reason). Miss reasons partition
	// the cache misses; solo reasons count members that ran a
	// dedicated search instead of sharing.
	MissUncacheable         int64 `json:"miss_uncacheable"`
	MissNoExactEntry        int64 `json:"miss_no_exact_entry"`
	MissFamilyAbsent        int64 `json:"miss_window_family_absent"`
	MissOutsideWindows      int64 `json:"miss_outside_windows"`
	MissSkeletonUncertified int64 `json:"miss_skeleton_uncertified"`
	MissEpochRaced          int64 `json:"miss_epoch_raced"`
	SoloPrivate             int64 `json:"solo_private_partition"`
	SoloSingleton           int64 `json:"solo_singleton_group"`
	SoloAblation            int64 `json:"solo_ablation"`
}

// CountReason adds one tally to the sample field matching r. ReasonNone
// is a no-op, so callers can feed a "maybe" reason unconditionally.
func (s *LoadSample) CountReason(r Reason) {
	switch r {
	case ReasonUncacheable:
		s.MissUncacheable++
	case ReasonNoExactEntry:
		s.MissNoExactEntry++
	case ReasonWindowFamilyAbsent:
		s.MissFamilyAbsent++
	case ReasonOutsideWindows:
		s.MissOutsideWindows++
	case ReasonSkeletonUncertified:
		s.MissSkeletonUncertified++
	case ReasonEpochRaced:
		s.MissEpochRaced++
	case ReasonPrivatePartition:
		s.SoloPrivate++
	case ReasonSingletonGroup:
		s.SoloSingleton++
	case ReasonAblation:
		s.SoloAblation++
	}
}

// signal indices inside a bucket. loadQueries MUST stay first: the
// snapshot reads signals in descending index order so arrivals are
// loaded last (see the consistency contract above).
const (
	loadQueries = iota
	loadExactHits
	loadDeduped
	loadSharedAnswers
	loadEngineSearches
	loadFlushes
	loadFlushedQueries
	loadHoldNanos
	loadHoldTargetNanos
	loadMissUncacheable
	loadMissNoExactEntry
	loadMissFamilyAbsent
	loadMissOutsideWindows
	loadMissEpochRaced
	loadSoloPrivate
	loadSoloSingleton
	loadSoloAblation
	loadSkeletonHits
	loadMissSkeletonUncertified
	numLoadSignals
)

// loadBucket holds one wall second of tallies. sec is the unix second
// the counts belong to; the zero value (second 0 = 1970) never falls
// inside a window, so fresh buckets read as empty. A negative sec is
// the claim marker of a writer currently zeroing the bucket for
// second -sec.
type loadBucket struct {
	sec    atomic.Int64
	counts [numLoadSignals]atomic.Int64
}

// LoadRing is the lock-free per-second ring. The zero value is NOT
// ready; use NewLoadRing. All methods are safe for concurrent use and
// nil-safe (a nil ring drops feeds and reads empty), so wiring can
// stay unconditional.
type LoadRing struct {
	buckets [loadRingSize]loadBucket
	// now overrides the wall clock in tests (fake-clock rotation
	// edge cases). nil = time.Now().Unix.
	now func() int64
}

// NewLoadRing returns an empty ring covering the last
// LoadRetentionSec seconds.
func NewLoadRing() *LoadRing { return &LoadRing{} }

func (r *LoadRing) clockSec() int64 {
	if r.now != nil {
		return r.now()
	}
	return time.Now().Unix()
}

// bucket returns the bucket for unix second sec, rotating (zeroing) a
// stale slot on first touch of a new second. Rotation uses a claim
// protocol: the winner CASes sec to the negative claim marker, zeroes
// the counters, then publishes the new second; concurrent feeders of
// the same second spin until the claim resolves, so a feed can never
// land in a half-zeroed bucket.
func (r *LoadRing) bucket(sec int64) *loadBucket {
	b := &r.buckets[uint64(sec)%loadRingSize]
	for {
		cur := b.sec.Load()
		if cur == sec {
			return b
		}
		if cur == -sec {
			// Another feeder is resetting this slot for our second.
			runtime.Gosched()
			continue
		}
		if b.sec.CompareAndSwap(cur, -sec) {
			for i := range b.counts {
				b.counts[i].Store(0)
			}
			if !b.sec.CompareAndSwap(-sec, sec) {
				// A newer second stole the slot mid-reset (writer
				// stalled for a full ring revolution); retry.
				continue
			}
			return b
		}
	}
}

// Feed adds the sample's deltas to the current second's bucket.
// Allocation-free; zero fields cost nothing beyond the skip test.
func (r *LoadRing) Feed(s LoadSample) {
	if r == nil {
		return
	}
	b := r.bucket(r.clockSec())
	// Queries first — the reader loads it last.
	b.add(loadQueries, s.Queries)
	b.add(loadExactHits, s.ExactHits)
	b.add(loadDeduped, s.Deduped)
	b.add(loadSharedAnswers, s.SharedAnswers)
	b.add(loadEngineSearches, s.EngineSearches)
	b.add(loadFlushes, s.Flushes)
	b.add(loadFlushedQueries, s.FlushedQueries)
	b.add(loadHoldNanos, s.HoldNanos)
	b.add(loadHoldTargetNanos, s.HoldTargetNanos)
	b.add(loadMissUncacheable, s.MissUncacheable)
	b.add(loadMissNoExactEntry, s.MissNoExactEntry)
	b.add(loadMissFamilyAbsent, s.MissFamilyAbsent)
	b.add(loadMissOutsideWindows, s.MissOutsideWindows)
	b.add(loadMissEpochRaced, s.MissEpochRaced)
	b.add(loadSoloPrivate, s.SoloPrivate)
	b.add(loadSoloSingleton, s.SoloSingleton)
	b.add(loadSoloAblation, s.SoloAblation)
	b.add(loadSkeletonHits, s.SkeletonHits)
	b.add(loadMissSkeletonUncertified, s.MissSkeletonUncertified)
}

func (b *loadBucket) add(i int, v int64) {
	if v != 0 {
		b.counts[i].Add(v)
	}
}

// Windows sums the trailing spans (seconds, each capped at
// LoadRetentionSec) into one LoadSample per span. All spans are
// filled from a single pass over the ring, so the views are mutually
// consistent: the 10s totals are a subset of the same buckets the 5m
// totals saw. Buckets that rotate mid-read are dropped whole, never
// half-counted.
func (r *LoadRing) Windows(spans []int) []LoadSample {
	out := make([]LoadSample, len(spans))
	if r == nil || len(spans) == 0 {
		return out
	}
	maxSpan := 0
	for _, s := range spans {
		if s > LoadRetentionSec {
			s = LoadRetentionSec
		}
		if s > maxSpan {
			maxSpan = s
		}
	}
	now := r.clockSec()
	var c [numLoadSignals]int64
	for sec := now - int64(maxSpan) + 1; sec <= now; sec++ {
		b := &r.buckets[uint64(sec)%loadRingSize]
		if b.sec.Load() != sec {
			continue
		}
		// Outcome signals first, Queries (index 0) last, then confirm
		// the bucket still belongs to sec — a rotation between the
		// two loads of sec would have mixed seconds.
		for i := numLoadSignals - 1; i >= 0; i-- {
			c[i] = b.counts[i].Load()
		}
		if b.sec.Load() != sec {
			continue
		}
		age := int(now - sec) // 0 = current second
		for wi, span := range spans {
			if span > LoadRetentionSec {
				span = LoadRetentionSec
			}
			if age < span {
				out[wi].accumulate(&c)
			}
		}
	}
	return out
}

func (s *LoadSample) accumulate(c *[numLoadSignals]int64) {
	s.Queries += c[loadQueries]
	s.ExactHits += c[loadExactHits]
	s.Deduped += c[loadDeduped]
	s.SharedAnswers += c[loadSharedAnswers]
	s.EngineSearches += c[loadEngineSearches]
	s.Flushes += c[loadFlushes]
	s.FlushedQueries += c[loadFlushedQueries]
	s.HoldNanos += c[loadHoldNanos]
	s.HoldTargetNanos += c[loadHoldTargetNanos]
	s.MissUncacheable += c[loadMissUncacheable]
	s.MissNoExactEntry += c[loadMissNoExactEntry]
	s.MissFamilyAbsent += c[loadMissFamilyAbsent]
	s.MissOutsideWindows += c[loadMissOutsideWindows]
	s.MissEpochRaced += c[loadMissEpochRaced]
	s.SoloPrivate += c[loadSoloPrivate]
	s.SoloSingleton += c[loadSoloSingleton]
	s.SoloAblation += c[loadSoloAblation]
	s.SkeletonHits += c[loadSkeletonHits]
	s.MissSkeletonUncertified += c[loadMissSkeletonUncertified]
}
