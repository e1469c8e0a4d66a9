// Package service is the concurrent query-serving layer over the ITSPQ
// machinery: it turns the "one engine per goroutine over one shared
// graph" pattern into a managed Pool with engine reuse, batch fan-out
// and per-slot result caching, so a server can answer many simultaneous
// ITSPQ queries without per-request engine construction.
//
// Concurrency invariants the pool relies on (and that the rest of the
// repository upholds):
//
//   - model.Venue, dmat.Set and itgraph.Graph are immutable after
//     construction and safe for any number of concurrent readers;
//   - itgraph.SnapshotSeries materialises snapshots on first use behind
//     a mutex with lock-free steady-state reads, and a materialised
//     Snapshot is immutable;
//   - core.Engine keeps mutable search state and is confined to one
//     goroutine at a time — the Pool enforces this by checking engines
//     in and out of a sync.Pool around every search.
//
// Results returned by the pool may be served from its cache, in which
// case the same *core.Path pointer is handed to several callers:
// returned paths must be treated as immutable.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"indoorpath/internal/batchplan"
	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/tcache"
	"indoorpath/internal/temporal"
)

// Options configure a Pool. The zero value is a usable default: ITG/S
// engines, GOMAXPROCS batch workers and a 4096-entry result cache.
type Options struct {
	// Engine is the configuration every pooled engine is built with.
	Engine core.Options
	// Workers bounds RouteBatch fan-out; <= 0 means GOMAXPROCS.
	Workers int
	// CacheCapacity bounds the number of cached query outcomes.
	// 0 means the default capacity; negative disables caching.
	CacheCapacity int
	// WindowCache additionally enables the validity-window temporal
	// result cache (internal/tcache): found no-waiting paths are stored
	// with the departure interval over which the engine's answer is
	// provably unchanged (core.Engine.AnswerWindow), and a later query on the
	// same endpoints and speed departing anywhere inside a stored
	// window is answered without an engine search — doors, partitions
	// and length from the stored answer, arrival times recomputed for
	// the query's own departure. The exact cache (when enabled) is
	// consulted first; window answers obey the same swap semantics (a
	// SetGraph/UpdateSchedules swap drops the whole store) and
	// InvalidateSlot drops windows overlapping the slot's time range.
	// Off by default: the exact cache remains the default backend.
	WindowCache bool
	// WindowCapacity bounds the number of stored validity windows:
	// 0 means tcache.DefaultCapacity, and negative disables the window
	// store even when WindowCache is set (mirroring CacheCapacity).
	// SkeletonCache families share the same store and the same capacity
	// value (budgeted independently — see tcache).
	WindowCapacity int
	// SkeletonCache enables the point-free skeleton layer
	// (core.SkeletonFamily in internal/tcache): an engine miss on a
	// (source partition, target partition) pair with repeat evidence —
	// the pair already missed once in the same family slot under the
	// current graph, or the miss is part of a jittered SharedPartition
	// wave — also builds the pair's door-to-door chain table for the
	// departure's checkpoint slot (the whole day for MethodStatic); a
	// first, unrepeated miss only records the pair. A later query
	// between ANY points of the pair in the slot is answered by
	// composing first-leg + stored chain + last-leg
	// (core.ComposeSkeletonPath) — byte-identical to a fresh search,
	// no engine run. Stats.FamilyBuilds counts the builds.
	// Compositions that cannot be certified fall through to an engine
	// with obs.ReasonSkeletonUncertified provenance. Probe order: exact
	// cache, point windows, skeletons, engine. Families obey the same
	// swap/invalidation semantics as windows and are disabled alongside
	// them by a negative WindowCapacity or by the
	// SinglePartitionExpansion ablation. Off by default.
	SkeletonCache bool
	// SharedBatch enables the shared-execution batch planner
	// (internal/batchplan): RouteBatch partitions each batch into
	// shared-source groups (same source point, departure instant and
	// speed; the time-blind static method merges departures and also
	// forms shared-destination groups served by one reverse run each)
	// and answers every group with a single engine search
	// (core.Engine.RouteMany / RouteManyTo) instead of one per query.
	// Per-entry answers stay byte-identical to a sequential per-query
	// engine and still feed the exact and validity-window caches.
	// Off by default.
	SharedBatch bool
}

// DefaultCacheCapacity is the cache size used when Options.CacheCapacity
// is zero.
const DefaultCacheCapacity = 4096

// Hit is the provenance of one outcome: how the pool produced it.
type Hit string

// Hit values.
const (
	// HitMiss: the outcome came from an engine search.
	HitMiss Hit = "miss"
	// HitExact: served from the exact-identity result cache.
	HitExact Hit = "exact"
	// HitWindow: served from the validity-window cache — the stored
	// answer's doors and partitions with arrivals recomputed for this
	// query's departure.
	HitWindow Hit = "window"
	// HitSkeleton: composed from the pair's stored skeleton family —
	// first-leg + door-to-door chain + last-leg stitched for this
	// query's own endpoints and departure, certified byte-identical to
	// a fresh search.
	HitSkeleton Hit = "skeleton"
)

// Result is one RouteBatch outcome. Path and Err mirror exactly what a
// sequential core.Engine.Route would have returned for the query.
type Result struct {
	Path  *core.Path
	Stats core.SearchStats
	Err   error
	// CacheHit reports that the outcome was served from a result cache
	// (exact, window or skeleton) rather than searched.
	CacheHit bool
	// Hit is the outcome's provenance: HitMiss, HitExact, HitWindow or
	// HitSkeleton. For Shared entries it is the canonical query's
	// provenance.
	Hit Hit
	// Shared reports that the outcome was computed once for an
	// identical query elsewhere in the same batch and shared.
	Shared bool
	// SharedRun reports that the outcome came out of a multi-query
	// shared execution (one engine run answering a whole batchplan
	// group) rather than a dedicated per-query search. Requires
	// Options.SharedBatch.
	SharedRun bool
	// Coalesced reports that the outcome was answered out of a
	// multi-query flush of the standing cross-batch coalescer
	// (internal/coalesce): the solo query was held briefly and batched
	// with concurrently arriving ones. Set by the coalescer, never by
	// the pool itself.
	Coalesced bool
	// Explain is the decision provenance of a cache miss: why no cache
	// could answer (obs.ReasonNoExactEntry, ReasonWindowFamilyAbsent,
	// ReasonOutsideWindows, ReasonSkeletonUncertified, ReasonEpochRaced,
	// ReasonUncacheable). ReasonNone on hits and shared/deduped copies
	// of a hit.
	Explain obs.Reason
}

// Stats are cumulative pool counters, safe to read concurrently. The
// struct is JSON-serialisable as-is, so servers can expose it on a
// stats endpoint without translation.
type Stats struct {
	Queries        int64 `json:"queries"`         // Route calls + batch entries
	Batches        int64 `json:"batches"`         // RouteBatch calls
	CacheHits      int64 `json:"cache_hits"`      // outcomes served from the exact result cache
	WindowHits     int64 `json:"window_hits"`     // outcomes served from the validity-window cache
	SkeletonHits   int64 `json:"skeleton_hits"`   // outcomes composed from a stored skeleton family
	Deduped        int64 `json:"deduped"`         // batch entries shared from an identical query
	EnginesCreated int64 `json:"engines_created"` // engines constructed (vs reused from the pool)
	// EngineSearches counts actual engine runs. It is its own monotone
	// counter (the Prometheus series behind /metricsz must never
	// decrease); CacheMisses() is the derived view over one Stats
	// snapshot, which can transiently differ by in-flight queries —
	// and, with SharedBatch, by design: a shared run answers many
	// cache misses with one engine search, so EngineSearches <=
	// CacheMisses() is the headline saving.
	EngineSearches int64 `json:"engine_searches"`
	// SharedRuns counts multi-query shared executions: engine runs that
	// answered a whole batchplan group at once (Options.SharedBatch).
	SharedRuns int64 `json:"shared_runs"`
	// SharedAnswers counts batch entries answered by a shared run —
	// each cost 1/groupsize of a search instead of a search.
	SharedAnswers int64 `json:"shared_answers"`
	// FamilyBuilds counts skeleton family builds that returned a
	// family, inserts that lost to a concurrent same-slot build
	// included: engine work on top of EngineSearches. Builds are not
	// queries, so they stay outside the hit/miss partition.
	FamilyBuilds int64 `json:"families_built"`
	// Epoch is the backend generation: the number of SetGraph /
	// UpdateSchedules swaps since the pool was built. A response
	// computed at epoch N can never be served once epoch N+1 begins
	// (the swap replaces the cache wholesale).
	Epoch int64 `json:"epoch"`
	// Cache occupancy and pressure. CacheEntries/Windows and the
	// capacities are gauges over the live backend (zero when the cache
	// is disabled); the eviction counters count entries shed by
	// capacity pressure — not invalidation — and stay monotone across
	// backend swaps (retired backends' counts fold into the total at
	// swap time).
	CacheEntries    int64 `json:"cache_entries"`
	CacheCapacity   int64 `json:"cache_capacity"`
	CacheEvictions  int64 `json:"cache_evictions"`
	Windows         int64 `json:"windows"`
	WindowCapacity  int64 `json:"window_capacity"`
	WindowEvictions int64 `json:"window_evictions"`
	SkelFamilies    int64 `json:"skel_families"`
	SkelCapacity    int64 `json:"skel_capacity"`
	SkelEvictions   int64 `json:"skel_evictions"`
	// Reasons are the cumulative decision-provenance tallies: why
	// queries missed every cache and why planned members ran solo.
	Reasons ReasonStats `json:"reasons"`
}

// ReasonStats are cumulative decision-provenance tallies. The miss
// fields partition the engine-answered queries by why no cache could
// serve them; the solo fields count batch/coalesce members that ran a
// dedicated search instead of joining a shared run. Field names match
// the obs.Reason wire vocabulary.
type ReasonStats struct {
	MissUncacheable         int64 `json:"miss_uncacheable"`
	MissNoExactEntry        int64 `json:"miss_no_exact_entry"`
	MissWindowFamilyAbsent  int64 `json:"miss_window_family_absent"`
	MissOutsideWindows      int64 `json:"miss_outside_windows"`
	MissSkeletonUncertified int64 `json:"miss_skeleton_uncertified"`
	MissEpochRaced          int64 `json:"miss_epoch_raced"`
	SoloPrivatePartition    int64 `json:"solo_private_partition"`
	SoloSingletonGroup      int64 `json:"solo_singleton_group"`
	SoloAblation            int64 `json:"solo_ablation"`
}

// ReasonCount pairs a provenance code with its tally.
type ReasonCount struct {
	Reason obs.Reason
	Count  int64
}

// Counts lists the tallies in declaration order — the deterministic
// iteration metrics renderers need. Split miss from solo families with
// obs.Reason.IsMiss.
func (r ReasonStats) Counts() []ReasonCount {
	return []ReasonCount{
		{obs.ReasonUncacheable, r.MissUncacheable},
		{obs.ReasonNoExactEntry, r.MissNoExactEntry},
		{obs.ReasonWindowFamilyAbsent, r.MissWindowFamilyAbsent},
		{obs.ReasonOutsideWindows, r.MissOutsideWindows},
		{obs.ReasonSkeletonUncertified, r.MissSkeletonUncertified},
		{obs.ReasonEpochRaced, r.MissEpochRaced},
		{obs.ReasonPrivatePartition, r.SoloPrivatePartition},
		{obs.ReasonSingletonGroup, r.SoloSingletonGroup},
		{obs.ReasonAblation, r.SoloAblation},
	}
}

// Sub returns the field-wise difference r - o: the movement between
// two snapshots (replay phases report these deltas).
func (r ReasonStats) Sub(o ReasonStats) ReasonStats {
	return ReasonStats{
		MissUncacheable:         r.MissUncacheable - o.MissUncacheable,
		MissNoExactEntry:        r.MissNoExactEntry - o.MissNoExactEntry,
		MissWindowFamilyAbsent:  r.MissWindowFamilyAbsent - o.MissWindowFamilyAbsent,
		MissOutsideWindows:      r.MissOutsideWindows - o.MissOutsideWindows,
		MissSkeletonUncertified: r.MissSkeletonUncertified - o.MissSkeletonUncertified,
		MissEpochRaced:          r.MissEpochRaced - o.MissEpochRaced,
		SoloPrivatePartition:    r.SoloPrivatePartition - o.SoloPrivatePartition,
		SoloSingletonGroup:      r.SoloSingletonGroup - o.SoloSingletonGroup,
		SoloAblation:            r.SoloAblation - o.SoloAblation,
	}
}

// Add returns the field-wise sum r + o (summing across method pools).
func (r ReasonStats) Add(o ReasonStats) ReasonStats {
	return ReasonStats{
		MissUncacheable:         r.MissUncacheable + o.MissUncacheable,
		MissNoExactEntry:        r.MissNoExactEntry + o.MissNoExactEntry,
		MissWindowFamilyAbsent:  r.MissWindowFamilyAbsent + o.MissWindowFamilyAbsent,
		MissOutsideWindows:      r.MissOutsideWindows + o.MissOutsideWindows,
		MissSkeletonUncertified: r.MissSkeletonUncertified + o.MissSkeletonUncertified,
		MissEpochRaced:          r.MissEpochRaced + o.MissEpochRaced,
		SoloPrivatePartition:    r.SoloPrivatePartition + o.SoloPrivatePartition,
		SoloSingletonGroup:      r.SoloSingletonGroup + o.SoloSingletonGroup,
		SoloAblation:            r.SoloAblation + o.SoloAblation,
	}
}

// CacheMisses returns the number of queries that went to an engine:
// every query that was not an exact hit, a window hit, a skeleton
// composition, or shared from an identical batch entry.
func (s Stats) CacheMisses() int64 {
	return s.Queries - s.CacheHits - s.WindowHits - s.SkeletonHits - s.Deduped
}

// String renders a one-line summary of the counters.
func (s Stats) String() string {
	return fmt.Sprintf("queries=%d batches=%d cacheHits=%d windowHits=%d skeletonHits=%d cacheMisses=%d deduped=%d sharedRuns=%d sharedAnswers=%d engines=%d epoch=%d",
		s.Queries, s.Batches, s.CacheHits, s.WindowHits, s.SkeletonHits, s.CacheMisses(), s.Deduped, s.SharedRuns, s.SharedAnswers, s.EnginesCreated, s.Epoch)
}

// poolBackend bundles one graph with the engine pool and result cache
// built over it, so all three can be swapped atomically on a schedule
// update: engines from an old backend can never be checked out against
// a new graph, and results computed on an old graph can only ever land
// in the old (now unreachable) cache — never be served after the swap.
type poolBackend struct {
	g       *itgraph.Graph
	v       *model.Venue
	engines sync.Pool
	cache   *resultCache  // nil when caching is disabled
	windows *tcache.Store // nil unless Options.WindowCache
	// evidence gates skeleton family builds (see missEvidence).
	evidence missEvidence
}

// Pool serves ITSPQ queries concurrently over one shared IT-Graph. It
// keeps warm core.Engines in a sync.Pool (engines are goroutine-
// confined while checked out), deduplicates identical queries inside a
// batch, and caches outcomes keyed by (source partition, target
// partition, checkpoint slot). All methods are safe for concurrent use,
// including SetGraph/UpdateSchedules swapping the graph under live
// queries.
type Pool struct {
	backend atomic.Pointer[poolBackend]
	opts    Options

	queries        atomic.Int64
	batches        atomic.Int64
	cacheHits      atomic.Int64
	windowHits     atomic.Int64
	skeletonHits   atomic.Int64
	deduped        atomic.Int64
	enginesCreated atomic.Int64
	engineSearches atomic.Int64
	sharedRuns     atomic.Int64
	sharedAnswers  atomic.Int64
	familyBuilds   atomic.Int64
	swapEpoch      atomic.Int64

	// reasonCounts are the cumulative decision-provenance tallies,
	// indexed by obs.Reason (ReasonNone's slot stays zero).
	reasonCounts [obs.NumReasons]atomic.Int64

	// load is the always-on rolling load-signal ring. Unlike the
	// caches it survives SetGraph swaps: arrival history is a property
	// of the traffic, not of a backend generation.
	load *obs.LoadRing

	// pairs is the always-on space-saving heavy-hitter table over
	// (source partition, target partition) OD pairs — the evidence base
	// for a door-to-door skeleton store (ROADMAP open item 1). Like
	// load it survives swaps: workload shape outlives any backend.
	pairs *obs.TopK

	// effort* are the per-search engine-effort distributions (count
	// histograms over core.SearchStats), fed once per actual engine
	// run. They survive swaps for the same reason as load.
	effortPops   *obs.Histogram
	effortSettle *obs.Histogram
	effortRelax  *obs.Histogram
	effortTV     *obs.Histogram

	// cacheEvictBase / windowEvictBase / skelEvictBase fold retired
	// backends' eviction counts in at swap time, keeping the exported
	// eviction counters monotone across SetGraph swaps. A scrape racing
	// a swap can transiently under-read by the retiring backend's
	// count; the next scrape corrects it.
	cacheEvictBase  atomic.Int64
	windowEvictBase atomic.Int64
	skelEvictBase   atomic.Int64
}

// New builds a Pool over the graph.
func New(g *itgraph.Graph, opts Options) *Pool {
	p := &Pool{
		opts:         opts,
		load:         obs.NewLoadRing(),
		pairs:        obs.NewTopK(0),
		effortPops:   obs.NewCountHistogram(nil),
		effortSettle: obs.NewCountHistogram(nil),
		effortRelax:  obs.NewCountHistogram(nil),
		effortTV:     obs.NewCountHistogram(nil),
	}
	p.backend.Store(p.newBackend(g))
	return p
}

// LoadRing exposes the pool's rolling load-signal ring: per-second
// arrival/hit/shareability/hold tallies over the last
// obs.LoadRetentionSec seconds. Always non-nil; servers snapshot it
// with LoadRing().Windows(obs.LoadWindows).
func (p *Pool) LoadRing() *obs.LoadRing { return p.load }

// HotPairs snapshots the pool's OD-pair heavy-hitter table, sorted by
// descending query weight. Snapshot it before Stats() when comparing
// tallies against pool counters: Stats reads Queries last, so per-pair
// tallies never exceed the query counter within one scrape.
func (p *Pool) HotPairs() []obs.PairCount { return p.pairs.Snapshot() }

// HotPairCapacity returns the heavy-hitter table's fixed slot budget.
func (p *Pool) HotPairCapacity() int { return p.pairs.Capacity() }

// EffortSnapshot bundles the four per-search engine-effort
// distributions. Each histogram observes once per actual engine run
// (dedicated or shared); the snapshot's SumSeconds fields carry raw
// summed counts (obs.NewCountHistogram semantics).
type EffortSnapshot struct {
	Pops        obs.HistogramSnapshot `json:"pops"`
	Settled     obs.HistogramSnapshot `json:"settled"`
	Relaxations obs.HistogramSnapshot `json:"relaxations"`
	TVChecks    obs.HistogramSnapshot `json:"tv_checks"`
}

// Effort snapshots the per-search engine-effort histograms.
func (p *Pool) Effort() EffortSnapshot {
	return EffortSnapshot{
		Pops:        p.effortPops.Snapshot(),
		Settled:     p.effortSettle.Snapshot(),
		Relaxations: p.effortRelax.Snapshot(),
		TVChecks:    p.effortTV.Snapshot(),
	}
}

// WindowCoverage snapshots the live window store's per-pair window
// counts and day coverage (nil when the window cache is disabled).
func (p *Pool) WindowCoverage() []tcache.PairCoverage {
	b := p.backend.Load()
	if b.windows == nil || !p.opts.WindowCache {
		return nil
	}
	return b.windows.Coverage()
}

// SkeletonCoverage snapshots the live store's per-pair skeleton
// occupancy — slot families, stored chains and covered slot seconds —
// nil when the skeleton cache is disabled.
func (p *Pool) SkeletonCoverage() []tcache.PairCoverage {
	b := p.backend.Load()
	if !p.skeletonEnabled(b) {
		return nil
	}
	return b.windows.SkeletonCoverage()
}

// observeEffort feeds one completed search's statistics into the
// per-search effort histograms. Allocation-free, always on.
func (p *Pool) observeEffort(stats core.SearchStats) {
	p.effortPops.ObserveCount(int64(stats.Pops))
	p.effortSettle.ObserveCount(int64(stats.Settled))
	p.effortRelax.ObserveCount(int64(stats.Relaxations))
	p.effortTV.ObserveCount(int64(stats.Checker.Checks))
}

// pairKeyOf projects a cache key onto the heavy-hitter table's OD-pair
// addressing. Only cacheable queries feed the table: an endpoint in no
// partition has no pair to attribute traffic to.
func pairKeyOf(key cacheKey) obs.PairKey {
	return obs.PairKey{Src: int32(key.src), Tgt: int32(key.tgt)}
}

func (p *Pool) newBackend(g *itgraph.Graph) *poolBackend {
	b := &poolBackend{g: g, v: g.Venue()}
	b.engines.New = func() any {
		p.enginesCreated.Add(1)
		return core.NewEngine(g, p.opts.Engine)
	}
	switch {
	case p.opts.CacheCapacity < 0:
		// caching disabled
	case p.opts.CacheCapacity == 0:
		b.cache = newResultCache(DefaultCacheCapacity)
	default:
		b.cache = newResultCache(p.opts.CacheCapacity)
	}
	if (p.opts.WindowCache || p.opts.SkeletonCache) && p.opts.WindowCapacity >= 0 {
		b.windows = tcache.NewStore(p.opts.WindowCapacity)
	}
	return b
}

// skeletonEnabled reports whether the backend serves and builds
// skeleton families: the option is on, the shared temporal store
// exists, and the engine is not the SinglePartitionExpansion ablation
// (whose visited-partition gate makes per-entry-door families
// unsound — core.BuildSkeletonFamily refuses them anyway).
func (p *Pool) skeletonEnabled(b *poolBackend) bool {
	return p.opts.SkeletonCache && b.windows != nil && !p.opts.Engine.SinglePartitionExpansion
}

// Graph returns the shared IT-Graph.
func (p *Pool) Graph() *itgraph.Graph { return p.backend.Load().g }

// SetGraph atomically replaces the pool's graph together with the warm
// engines and the result cache built over the old one. In-flight
// queries finish against the backend they started on and can only
// populate that backend's now-unreachable cache, so nothing computed
// on the old graph is ever served afterwards. This is the live
// schedule-update hook: build a new graph (e.g. over
// Venue.WithSchedules output) and swap it in without draining the
// server.
func (p *Pool) SetGraph(g *itgraph.Graph) {
	old := p.backend.Load()
	p.backend.Store(p.newBackend(g))
	p.swapEpoch.Add(1)
	// Fold the retired backend's eviction counts into the monotone
	// bases. In-flight queries pinned to the old backend may still
	// evict after this capture; those tail counts are dropped, which
	// only ever under-reports pressure on an unreachable cache.
	if old.cache != nil {
		_, _, ev := old.cache.usage()
		p.cacheEvictBase.Add(ev)
	}
	if old.windows != nil {
		p.windowEvictBase.Add(old.windows.Evictions())
		p.skelEvictBase.Add(old.windows.FamEvictions())
	}
}

// UpdateSchedules is the convenience form of SetGraph for door
// schedule changes: it rebuilds the venue via WithSchedules, builds
// the IT-Graph over it, and swaps it in (nil schedule = always open).
func (p *Pool) UpdateSchedules(updates map[model.DoorID]temporal.Schedule) error {
	v2, err := p.backend.Load().v.WithSchedules(updates)
	if err != nil {
		return err
	}
	g2, err := itgraph.New(v2)
	if err != nil {
		return err
	}
	p.SetGraph(g2)
	return nil
}

// Stats returns a snapshot of the cumulative counters. The counters
// are independent atomics, not one consistent snapshot; CacheHits and
// Deduped are read before Queries so that CacheMisses() can never go
// transiently negative (every route increments queries before its
// hit/dedup counter, so queries read last dominates).
func (p *Pool) Stats() Stats {
	hits := p.cacheHits.Load()
	windowHits := p.windowHits.Load()
	skeletonHits := p.skeletonHits.Load()
	deduped := p.deduped.Load()
	// Eviction bases before backend counts: a swap between the two
	// reads can only under-read (next scrape corrects), never regress.
	cacheEv := p.cacheEvictBase.Load()
	windowEv := p.windowEvictBase.Load()
	skelEv := p.skelEvictBase.Load()
	b := p.backend.Load()
	var cacheSize, cacheCap, winSize, winCap, skelSize, skelCap int
	if b.cache != nil {
		var ev int64
		cacheSize, cacheCap, ev = b.cache.usage()
		cacheEv += ev
	}
	if b.windows != nil {
		winSize, winCap = b.windows.Len(), b.windows.Cap()
		windowEv += b.windows.Evictions()
		skelSize, skelCap = b.windows.FamLen(), b.windows.Cap()
		skelEv += b.windows.FamEvictions()
	}
	return Stats{
		Batches:         p.batches.Load(),
		CacheHits:       hits,
		WindowHits:      windowHits,
		SkeletonHits:    skeletonHits,
		Deduped:         deduped,
		EnginesCreated:  p.enginesCreated.Load(),
		EngineSearches:  p.engineSearches.Load(),
		SharedRuns:      p.sharedRuns.Load(),
		SharedAnswers:   p.sharedAnswers.Load(),
		FamilyBuilds:    p.familyBuilds.Load(),
		Epoch:           p.swapEpoch.Load(),
		CacheEntries:    int64(cacheSize),
		CacheCapacity:   int64(cacheCap),
		CacheEvictions:  cacheEv,
		Windows:         int64(winSize),
		WindowCapacity:  int64(winCap),
		WindowEvictions: windowEv,
		SkelFamilies:    int64(skelSize),
		SkelCapacity:    int64(skelCap),
		SkelEvictions:   skelEv,
		Reasons:         p.reasonStats(),
		Queries:         p.queries.Load(),
	}
}

func (p *Pool) reasonStats() ReasonStats {
	return ReasonStats{
		MissUncacheable:         p.reasonCounts[obs.ReasonUncacheable].Load(),
		MissNoExactEntry:        p.reasonCounts[obs.ReasonNoExactEntry].Load(),
		MissWindowFamilyAbsent:  p.reasonCounts[obs.ReasonWindowFamilyAbsent].Load(),
		MissOutsideWindows:      p.reasonCounts[obs.ReasonOutsideWindows].Load(),
		MissSkeletonUncertified: p.reasonCounts[obs.ReasonSkeletonUncertified].Load(),
		MissEpochRaced:          p.reasonCounts[obs.ReasonEpochRaced].Load(),
		SoloPrivatePartition:    p.reasonCounts[obs.ReasonPrivatePartition].Load(),
		SoloSingletonGroup:      p.reasonCounts[obs.ReasonSingletonGroup].Load(),
		SoloAblation:            p.reasonCounts[obs.ReasonAblation].Load(),
	}
}

// noteMiss books one engine-answered miss: the per-reason counter plus
// one ring sample carrying the query's whole outcome (arrival, search,
// reason) so the windowed partition stays consistent. Allocation-free.
func (p *Pool) noteMiss(reason obs.Reason, extra obs.LoadSample) {
	p.reasonCounts[reason].Add(1)
	extra.Queries = 1
	extra.CountReason(reason)
	p.load.Feed(extra)
}

// noteSolo books one member that ran a dedicated search instead of
// sharing. Solo tallies ride their own sample: they are not part of
// the hit+dedup <= queries partition.
func (p *Pool) noteSolo(reason obs.Reason) {
	p.reasonCounts[reason].Add(1)
	var s obs.LoadSample
	s.CountReason(reason)
	p.load.Feed(s)
}

// workers resolves the effective fan-out width.
func (p *Pool) workers() int {
	if p.opts.Workers > 0 {
		return p.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Route answers one ITSPQ query, exactly as core.Engine.Route would,
// using a pooled engine and the result cache. Safe to call from any
// number of goroutines.
func (p *Pool) Route(q core.Query) (*core.Path, core.SearchStats, error) {
	r := p.route(nil, q)
	return r.Path, r.Stats, r.Err
}

// RouteResult is Route returning the full Result, including the
// CacheHit flag — the form servers want for per-response provenance.
func (p *Pool) RouteResult(q core.Query) Result {
	return p.route(nil, q)
}

// RouteTraced is RouteResult recording observability spans — cache
// probe, engine run (with the search's SearchStats attached) and
// cache store — onto tr. A nil tr selects the untraced fast path:
// identical behaviour, no clock reads, no allocations.
func (p *Pool) RouteTraced(tr *obs.Trace, q core.Query) Result {
	return p.route(tr, q)
}

// route is Route returning the full Result (cache-hit flag included).
func (p *Pool) route(tr *obs.Trace, q core.Query) Result {
	b := p.backend.Load()
	key, ekey, cacheable := keysFor(b, q)
	return p.routeKeyed(tr, b, q, key, ekey, cacheable)
}

// routeKeyed is route with the backend pinned and the cache keys
// already derived (RouteBatch computes them once for deduplication and
// reuses them here). Lookup order: exact cache, then validity-window
// cache, then an engine search whose outcome feeds both.
func (p *Pool) routeKeyed(tr *obs.Trace, b *poolBackend, q core.Query, key cacheKey, ekey entryKey, cacheable bool) Result {
	p.queries.Add(1)
	sp := tr.Start(obs.StageProbe)
	r, ok, epoch, wepoch, reason := p.lookupCaches(b, q, key, ekey, cacheable)
	if tr == nil || ok {
		sp.End()
	} else {
		// Copy under the guard: building the attachment unconditionally
		// would heap-allocate on the untraced path.
		attach := reasonAttrs{Reason: reason.String()}
		sp.EndWith(&attach)
	}
	if ok {
		return r
	}
	sp = tr.Start(obs.StageEngine)
	p.engineSearches.Add(1)
	e := b.engines.Get().(*core.Engine)
	path, stats, err := e.Route(q)
	if tr == nil {
		sp.End()
	} else {
		// Copy under the guard: taking stats' address unconditionally
		// would make it escape and heap-allocate on the untraced path.
		attach := stats
		sp.EndWith(&attach)
	}
	r = Result{Path: path, Stats: stats, Err: err, Hit: HitMiss}
	sp = tr.Start(obs.StageStore)
	if p.storeOutcome(tr, &sp, b, e, q, key, ekey, cacheable, r, epoch, wepoch) {
		// The computed outcome was discarded by an epoch guard: the
		// cache state this miss reasoned about no longer exists.
		reason = obs.ReasonEpochRaced
	}
	b.engines.Put(e)
	sp.End()
	r.Explain = reason
	p.noteMiss(reason, obs.LoadSample{EngineSearches: 1})
	p.observeEffort(stats)
	if cacheable {
		p.pairs.Feed(pairKeyOf(key),
			obs.PairSample{Queries: 1, EngineSearches: 1, Effort: int64(stats.Pops)})
	}
	return r
}

// reasonAttrs is the probe-span attachment on a miss: the decision-
// provenance code, rendered as {"reason":"..."} in trace docs.
type reasonAttrs struct {
	Reason string `json:"reason"`
}

// planAttrs is the plan-span attachment: how the batch decomposed,
// solo provenance included.
type planAttrs struct {
	Units         int `json:"units"`
	SharedGroups  int `json:"shared_groups,omitempty"`
	Deduped       int `json:"deduped,omitempty"`
	SoloPrivate   int `json:"solo_private,omitempty"`
	SoloSingleton int `json:"solo_singleton,omitempty"`
}

// lookupCaches serves q from the exact cache, then the validity-window
// cache, then the pair's skeleton family, counting hits (pool counters
// and the load ring — a hit's whole outcome is fed here in one
// sample). On a miss it returns the store epochs captured before any
// search, for the epoch-guarded inserts of storeOutcome, plus the
// miss's provenance; the caller books the miss (noteMiss) once the
// outcome — including a possible epoch race — is known.
//
// Probe order is cheapest-first: an exact hit is a map step, a window
// hit a binary search plus an arrival rebase, a skeleton hit a
// composition over the family's chains (two distance-matrix reads per
// chain). None of the three checks out an engine.
func (p *Pool) lookupCaches(b *poolBackend, q core.Query, key cacheKey, ekey entryKey, cacheable bool) (Result, bool, uint64, uint64, obs.Reason) {
	useCache := cacheable && b.cache != nil
	useWindows := cacheable && b.windows != nil && p.opts.WindowCache
	useSkel := cacheable && p.skeletonEnabled(b) && key.src != key.tgt
	reason := obs.ReasonNoExactEntry
	if !cacheable {
		reason = obs.ReasonUncacheable
	}
	var epoch, wepoch uint64
	if useCache {
		if r, ok := b.cache.get(key, ekey); ok {
			p.cacheHits.Add(1)
			p.load.Feed(obs.LoadSample{Queries: 1, ExactHits: 1})
			p.pairs.Feed(pairKeyOf(key), obs.PairSample{Queries: 1, ExactHits: 1})
			r.CacheHit = true
			r.Hit = HitExact
			return r, true, 0, 0, obs.ReasonNone
		}
		epoch = b.cache.epoch()
	}
	if useWindows || useSkel {
		wepoch = b.windows.Epoch()
	}
	if useWindows {
		ent, mk := b.windows.Probe(windowKey(key), windowPointKey(ekey), ekey.at)
		if ent != nil {
			// Deliberately not promoted into the exact cache: a sweep
			// workload would flood it with one-shot per-departure
			// entries (evicting genuinely hot exact entries), and the
			// window lookup repeats serve from is already O(log n).
			r := materializeWindow(ent, q, ekey)
			p.windowHits.Add(1)
			p.load.Feed(obs.LoadSample{Queries: 1, WindowHits: 1})
			p.pairs.Feed(pairKeyOf(key), obs.PairSample{Queries: 1, WindowHits: 1})
			r.CacheHit = true
			r.Hit = HitWindow
			return r, true, 0, 0, obs.ReasonNone
		}
		if mk == tcache.MissOutsideWindows {
			reason = obs.ReasonOutsideWindows
		} else {
			reason = obs.ReasonWindowFamilyAbsent
		}
	}
	if useSkel {
		fe, mk := b.windows.ProbeFamily(windowKey(key), ekey.at)
		switch {
		case fe != nil:
			if path, ok := core.ComposeSkeletonPath(b.g, q.Source, q.Target, ekey.at, ekey.speed, fe.Fam); ok {
				r := Result{Path: path, Stats: fe.Stats, CacheHit: true, Hit: HitSkeleton}
				p.skeletonHits.Add(1)
				p.load.Feed(obs.LoadSample{Queries: 1, SkeletonHits: 1})
				p.pairs.Feed(pairKeyOf(key), obs.PairSample{Queries: 1, SkeletonHits: 1})
				return r, true, 0, 0, obs.ReasonNone
			}
			// A family covers the departure but refused these endpoints:
			// the most specific provenance, overriding the point-window
			// miss kinds.
			reason = obs.ReasonSkeletonUncertified
		case mk == tcache.MissOutsideWindows && reason != obs.ReasonOutsideWindows:
			// Skeletons exist for the pair, just not this slot: upgrade
			// "family absent" to the sharper outside-windows provenance
			// (same rule the point probe applies).
			reason = obs.ReasonOutsideWindows
		case reason == obs.ReasonNoExactEntry:
			// Skeleton-only configuration (window cache off): the family
			// store is the temporal cache that had nothing for the pair.
			reason = obs.ReasonWindowFamilyAbsent
		}
	}
	return Result{}, false, epoch, wepoch, reason
}

// storeOutcome feeds one computed outcome into the exact and window
// caches and, when the miss has earned it, the skeleton store. A build
// is due when the skeleton layer is on, no family covers the departure
// yet and the miss carries repeat evidence (missEvidence): its family
// key already missed once under this backend, or a SharedPartition
// wave recorded it. A first, unrepeated miss only records its key. A
// due build runs on the same engine checkout as its own build span,
// carved out of the caller's open store span sp (ended before the
// build, reopened after it). The building miss stores no point-window
// entry: its family answers any endpoints of the pair in the slot, so
// the window would be dead weight. The engine that produced (or
// rebased) the answer must still be checked out: the window derivation
// replays its leg arithmetic and the family build runs its frozen
// Dijkstras. Reports whether an insert was discarded by an epoch guard
// (an invalidation ran while the search was in flight) — the
// epoch_raced provenance.
func (p *Pool) storeOutcome(tr *obs.Trace, sp *obs.Span, b *poolBackend, e *core.Engine, q core.Query,
	key cacheKey, ekey entryKey, cacheable bool, r Result, epoch, wepoch uint64) (raced bool) {

	built := false
	if cacheable && p.skeletonEnabled(b) && key.src != key.tgt && r.Err == nil {
		if _, mk := b.windows.ProbeFamily(windowKey(key), ekey.at); mk != tcache.MissNone &&
			b.evidence.repeat(p.familyKey(key)) {
			sp.End()
			bsp := tr.Start(obs.StageBuild)
			if fam := e.BuildSkeletonFamily(key.src, key.tgt, ekey.at); fam != nil {
				built = true
				p.familyBuilds.Add(1)
				fe := &tcache.FamilyEntry{Window: fam.Window, Fam: fam, Stats: r.Stats}
				// A losing insert against a concurrent same-slot build is
				// not a race — identical families, first-in wins. Only an
				// epoch move is.
				if !b.windows.InsertFamily(windowKey(key), fe, wepoch) &&
					b.windows.Epoch() != wepoch {
					raced = true
				}
			}
			bsp.End()
			*sp = tr.Start(obs.StageStore)
		}
	}
	if cacheable && b.cache != nil {
		if !b.cache.put(key, ekey, entryFor(b, key, r), epoch) {
			raced = true
		}
	}
	if !built && cacheable && b.windows != nil && p.opts.WindowCache && r.Err == nil && r.Path != nil {
		if went := windowEntryFor(e, q, r.Path, r.Stats); went != nil {
			// Insert also rejects overlaps and degenerate windows; only
			// an epoch move counts as a race.
			if !b.windows.Insert(windowKey(key), windowPointKey(ekey), went, wepoch) &&
				b.windows.Epoch() != wepoch {
				raced = true
			}
		}
	}
	return raced
}

// familyKey is a miss's missEvidence key: its partition pair and the
// slot of the family that would cover it — the departure's checkpoint
// slot, or core.SkeletonStaticSlot (the whole day) for the time-blind
// static method, whose misses count as evidence across slots.
func (p *Pool) familyKey(key cacheKey) cacheKey {
	if p.opts.Engine.Method == core.MethodStatic {
		key.slot = core.SkeletonStaticSlot
	}
	return key
}

// windowKey and windowPointKey project the exact-cache keys onto the
// window store's addressing.
func windowKey(key cacheKey) tcache.Key {
	return tcache.Key{Src: key.src, Tgt: key.tgt}
}

func windowPointKey(ekey entryKey) tcache.PointKey {
	return tcache.PointKey{Src: ekey.src, Tgt: ekey.tgt, Speed: ekey.speed}
}

// windowEntryFor derives the validity-window entry for a found path,
// or nil when the answer is not window-cacheable (its walk crosses a
// checkpoint, its arrival wraps midnight, …). Called with the engine
// still checked out: both the window derivation and PathDistances
// replay the engine's own leg arithmetic, so the window and the
// rebased arrivals are faithful to the search that produced the path.
func windowEntryFor(e *core.Engine, q core.Query, path *core.Path, stats core.SearchStats) *tcache.Entry {
	dists := e.PathDistances(path, q)
	w, err := e.AnswerWindowDists(path, q, dists)
	if err != nil {
		return nil
	}
	return &tcache.Entry{
		Window:     w,
		Doors:      path.Doors,
		Partitions: path.Partitions,
		Length:     path.Length,
		Dists:      dists,
		Stats:      stats,
	}
}

// materializeWindow builds the answer for a departure covered by a
// stored window: the entry's door and partition sequences (shared —
// paths are immutable) with every arrival recomputed for this query's
// departure, exactly as the engine's reconstruct would have
// (departure + cumulative distance / speed, the same float64 ops in
// the same order). The original Path.Arrival instants are never
// reused. Stats are the producing search's, mirroring exact hits.
func materializeWindow(ent *tcache.Entry, q core.Query, ekey entryKey) Result {
	arrivals := make([]temporal.TimeOfDay, len(ent.Doors))
	for i, d := range ent.Dists {
		arrivals[i] = ekey.at + temporal.TimeOfDay(d/ekey.speed)
	}
	return Result{
		Path: &core.Path{
			Source:       q.Source,
			Target:       q.Target,
			Doors:        ent.Doors,
			Partitions:   ent.Partitions,
			Length:       ent.Length,
			Arrivals:     arrivals,
			ArrivalAtTgt: ekey.at + temporal.TimeOfDay(ent.Length/ekey.speed),
			DepartedAt:   ekey.at,
		},
		Stats: ent.Stats,
	}
}

// entryFor derives the checkpoint-slot range a cached outcome depends
// on. A found path's answer depends exactly on the slots its walk
// spans; a no-route outcome (or a walk wrapping past midnight) can be
// affected by a schedule change in any slot, so it is marked spansAll
// and dropped on every slot invalidation.
func entryFor(b *poolBackend, key cacheKey, r Result) cacheEntry {
	e := cacheEntry{res: r, minSlot: key.slot, maxSlot: key.slot}
	if r.Err != nil || r.Path == nil || r.Path.ArrivalAtTgt >= temporal.DaySeconds {
		e.spansAll = true
		return e
	}
	e.maxSlot = b.g.Checkpoints().SlotOf(r.Path.ArrivalAtTgt)
	return e
}

// keysFor derives the cache keys of a query. cacheable is false when an
// endpoint lies in no partition (the engine will return ErrNotIndoor
// with a query-specific message; such outcomes are not cached).
func keysFor(b *poolBackend, q core.Query) (cacheKey, entryKey, bool) {
	srcPart, ok := b.v.Locate(q.Source)
	if !ok {
		return cacheKey{}, entryKey{}, false
	}
	tgtPart, ok := b.v.Locate(q.Target)
	if !ok {
		return cacheKey{}, entryKey{}, false
	}
	at := q.At.Mod()
	speed := q.Speed
	if speed <= 0 {
		speed = core.WalkingSpeedMPS
	}
	key := cacheKey{src: srcPart, tgt: tgtPart, slot: b.g.Checkpoints().SlotOf(at)}
	ekey := entryKey{src: q.Source, tgt: q.Target, at: at, speed: speed}
	return key, ekey, true
}

// BatchSummary describes how one RouteBatch was served: how many
// entries came from each cache, how many engine searches actually ran
// (Searches counts runs, so one shared run answering a 64-query group
// adds 1, not 64), and the shared-execution tallies. Queries ==
// ExactHits + WindowHits + SkeletonHits + Deduped + SharedAnswers +
// (Searches - SharedRuns) always holds: every entry is a hit, a
// duplicate, a shared-run answer, or a dedicated search.
type BatchSummary struct {
	Queries       int
	ExactHits     int
	WindowHits    int
	SkeletonHits  int
	Deduped       int
	Searches      int
	SharedRuns    int
	SharedAnswers int
}

// RouteBatch answers a batch of queries with worker fan-out. Identical
// queries (same source, target, normalised time and speed) are searched
// once and shared across the batch; distinct queries run concurrently
// on up to Options.Workers goroutines, each checking a warm engine out
// of the shared pool per query (or per batchplan group when
// Options.SharedBatch is on). Results are positionally aligned with qs,
// and each Path/Err pair is byte-for-byte what a sequential
// core.Engine.Route would have produced.
func (p *Pool) RouteBatch(qs []core.Query) []Result {
	rs, _ := p.RouteBatchSummary(qs)
	return rs
}

// RouteBatchSummary is RouteBatch returning the per-batch serving
// summary alongside the results — the form the HTTP batch endpoint and
// the CLI sweep report from.
func (p *Pool) RouteBatchSummary(qs []core.Query) ([]Result, BatchSummary) {
	return p.RouteBatchSummaryTraced(nil, qs)
}

// RouteBatchSummaryTraced is RouteBatchSummary recording spans onto
// tr: one plan span covering dedup and batchplan grouping, then
// probe/engine/store spans from the work units (batch workers record
// concurrently; the trace is internally synchronised). Nil tr is the
// untraced fast path.
func (p *Pool) RouteBatchSummaryTraced(tr *obs.Trace, qs []core.Query) ([]Result, BatchSummary) {
	p.batches.Add(1)
	out := make([]Result, len(qs))
	sum := BatchSummary{Queries: len(qs)}
	if len(qs) == 0 {
		return out, sum
	}

	planSpan := tr.Start(obs.StagePlan)

	// Shared-query deduplication: collapse identical (ps, pt, t, v)
	// requests onto one canonical search each. The derived keys are
	// kept and fed to routeKeyed so point location runs once per entry.
	type group struct {
		canon int
		dups  []int
	}
	b := p.backend.Load() // one consistent graph view for the whole batch
	keys := make([]cacheKey, len(qs))
	ekeys := make([]entryKey, len(qs))
	cacheable := make([]bool, len(qs))
	groups := make([]group, 0, len(qs))
	index := make(map[entryKey]int, len(qs)) // entryKey -> groups index
	var uncacheable []int                    // queries outside every partition
	for i, q := range qs {
		keys[i], ekeys[i], cacheable[i] = keysFor(b, q)
		if !cacheable[i] {
			uncacheable = append(uncacheable, i)
			continue
		}
		if gi, seen := index[ekeys[i]]; seen {
			groups[gi].dups = append(groups[gi].dups, i)
			continue
		}
		index[ekeys[i]] = len(groups)
		groups = append(groups, group{canon: i})
	}

	// Build the work units: with the shared planner on, canonical
	// cacheable queries are partitioned into batchplan groups (largest
	// fan-out first); otherwise each is its own unit. Unlocatable
	// queries always run solo.
	type unit struct {
		solo int // batch index, when grp is nil
		grp  *batchplan.Group
	}
	var units []unit
	var items []batchplan.Item
	var sharedRuns atomic.Int64 // this batch's shared executions
	if p.opts.SharedBatch {
		items = make([]batchplan.Item, 0, len(groups))
		for _, g := range groups {
			i := g.canon
			items = append(items, batchplan.Item{
				Index:      i,
				Src:        qs[i].Source,
				Tgt:        qs[i].Target,
				At:         ekeys[i].at,
				Speed:      ekeys[i].speed,
				SrcPart:    keys[i].src,
				TgtPart:    keys[i].tgt,
				SrcPrivate: b.v.Partition(keys[i].src).Kind.IsPrivate(),
				TgtPrivate: b.v.Partition(keys[i].tgt).Kind.IsPrivate(),
			})
		}
		plan := batchplan.NewOpts(items, p.opts.Engine.Method, batchplan.Options{
			// Partition-pair coalescing rides the skeleton layer: without
			// a family store the members would just run solo anyway.
			PartitionGroups: p.skeletonEnabled(b),
		})
		units = make([]unit, 0, len(plan.Groups)+len(uncacheable))
		for gi := range plan.Groups {
			units = append(units, unit{solo: -1, grp: &plan.Groups[gi]})
		}
	} else {
		units = make([]unit, 0, len(groups)+len(uncacheable))
		for _, g := range groups {
			units = append(units, unit{solo: g.canon})
		}
	}
	for _, i := range uncacheable {
		units = append(units, unit{solo: i})
	}
	if tr == nil {
		planSpan.End()
	} else {
		// Plan provenance: how the batch decomposed, including why solo
		// groups could not share. Built under the guard (see routeKeyed).
		attach := planAttrs{Units: len(units), Deduped: len(qs) - len(groups) - len(uncacheable)}
		for _, u := range units {
			if u.grp == nil {
				continue
			}
			switch {
			case u.grp.Kind != batchplan.Solo:
				attach.SharedGroups++
			case u.grp.Why == obs.ReasonPrivatePartition:
				attach.SoloPrivate++
			default:
				attach.SoloSingleton++
			}
		}
		planSpan.EndWith(&attach)
	}

	runUnit := func(u unit) {
		if u.grp == nil {
			out[u.solo] = p.routeKeyed(tr, b, qs[u.solo], keys[u.solo], ekeys[u.solo], cacheable[u.solo])
			return
		}
		p.routeGroup(tr, b, qs, items, u.grp, keys, ekeys, out, &sharedRuns)
	}

	w := p.workers()
	if w > len(units) {
		w = len(units)
	}
	if w <= 1 {
		for _, u := range units {
			runUnit(u)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(units) {
						return
					}
					runUnit(units[n])
				}
			}()
		}
		wg.Wait()
	}

	// Propagate canonical outcomes to their duplicates. SharedRun is
	// cleared on the copy (as cache.put does when re-labelling): the
	// duplicate is accounted as deduped, not as a shared-run answer, so
	// per-entry flags always sum to the summary's tallies. One ring
	// sample per group keeps a duplicate's arrival and dedup mark in
	// one bucket.
	for _, g := range groups {
		if n := int64(len(g.dups)); n > 0 {
			p.load.Feed(obs.LoadSample{Queries: n, Deduped: n})
		}
		for _, i := range g.dups {
			p.queries.Add(1)
			p.deduped.Add(1)
			r := out[g.canon]
			r.Shared = true
			r.SharedRun = false
			out[i] = r
		}
		// Pair tallies after the queries.Add loop, so a concurrent
		// scrape that snapshots the table before reading the query
		// counter never sees tallies exceed it.
		if n := int64(len(g.dups)); n > 0 && cacheable[g.canon] {
			p.pairs.Feed(pairKeyOf(keys[g.canon]), obs.PairSample{Queries: n, Deduped: n})
		}
	}

	// Derive the serving summary from the results (Searches counts
	// engine runs: each plain miss ran one, each shared run ran one).
	for i := range out {
		r := &out[i]
		switch {
		case r.Shared:
			sum.Deduped++
		case r.Hit == HitExact:
			sum.ExactHits++
		case r.Hit == HitWindow:
			sum.WindowHits++
		case r.Hit == HitSkeleton:
			sum.SkeletonHits++
		case r.SharedRun:
			sum.SharedAnswers++
		default:
			sum.Searches++
		}
	}
	sum.SharedRuns = int(sharedRuns.Load())
	sum.Searches += sum.SharedRuns
	return out, sum
}

// routeGroup executes one batchplan group: a per-member cache pass
// (exact and window hits never reach the shared run), then one
// checked-out engine answering every remaining member together via
// RouteMany / RouteManyTo, with each answer fed through the same
// epoch-guarded cache inserts a solo search uses. Static groups may
// mix departure instants; those answers are restated per member by a
// bit-identical departure rebase before caching and delivery.
func (p *Pool) routeGroup(tr *obs.Trace, b *poolBackend, qs []core.Query, items []batchplan.Item, grp *batchplan.Group,
	keys []cacheKey, ekeys []entryKey, out []Result, sharedRuns *atomic.Int64) {

	if grp.Kind == batchplan.SharedPartition {
		p.routePartitionGroup(tr, b, qs, items, grp, keys, ekeys, out)
		return
	}
	if grp.Kind == batchplan.Solo || len(grp.Members) == 1 {
		soloWhy := grp.Why
		if soloWhy == obs.ReasonNone {
			// A shared-kind group reduced to one member shares nothing.
			soloWhy = obs.ReasonSingletonGroup
		}
		for _, m := range grp.Members {
			i := items[m].Index
			out[i] = p.routeKeyed(tr, b, qs[i], keys[i], ekeys[i], true)
			if !out[i].CacheHit {
				// Only members that actually ran a dedicated search
				// count as solo decisions; a cache hit shared nothing
				// because it cost nothing.
				p.noteSolo(soloWhy)
			}
		}
		return
	}

	type pending struct {
		i      int // batch index
		epoch  uint64
		wepoch uint64
		reason obs.Reason // the member's miss provenance
	}
	var rem []pending
	var pts []geom.Point
	// One probe span for the whole member cache pass: per-member spans
	// would blow the trace's span budget on a 64-query group.
	sp := tr.Start(obs.StageProbe)
	for _, m := range grp.Members {
		i := items[m].Index
		p.queries.Add(1)
		r, ok, epoch, wepoch, reason := p.lookupCaches(b, qs[i], keys[i], ekeys[i], true)
		if ok {
			out[i] = r
			continue
		}
		rem = append(rem, pending{i: i, epoch: epoch, wepoch: wepoch, reason: reason})
		if grp.Kind == batchplan.SharedSource {
			pts = append(pts, qs[i].Target)
		} else {
			pts = append(pts, qs[i].Source)
		}
	}
	if tr == nil || len(rem) == 0 {
		sp.End()
	} else {
		// The group pass's dominant miss reason (members share endpoint
		// family and departure semantics, so they rarely diverge).
		attach := reasonAttrs{Reason: rem[0].reason.String()}
		sp.EndWith(&attach)
	}
	if len(rem) == 0 {
		return
	}

	e := b.engines.Get().(*core.Engine)
	defer b.engines.Put(e)
	if len(rem) == 1 {
		// The caches absorbed the fan-out: a single miss is a plain
		// solo search (solo provenance: nothing left to share with).
		pm := rem[0]
		sp = tr.Start(obs.StageEngine)
		p.engineSearches.Add(1)
		path, stats, err := e.Route(qs[pm.i])
		if tr == nil {
			sp.End()
		} else {
			attach := stats
			sp.EndWith(&attach)
		}
		r := Result{Path: path, Stats: stats, Err: err, Hit: HitMiss}
		sp = tr.Start(obs.StageStore)
		reason := pm.reason
		if p.storeOutcome(tr, &sp, b, e, qs[pm.i], keys[pm.i], ekeys[pm.i], true, r, pm.epoch, pm.wepoch) {
			reason = obs.ReasonEpochRaced
		}
		sp.End()
		r.Explain = reason
		p.noteMiss(reason, obs.LoadSample{EngineSearches: 1})
		p.noteSolo(obs.ReasonSingletonGroup)
		p.observeEffort(stats)
		p.pairs.Feed(pairKeyOf(keys[pm.i]),
			obs.PairSample{Queries: 1, EngineSearches: 1, Effort: int64(stats.Pops)})
		out[pm.i] = r
		return
	}

	sp = tr.Start(obs.StageEngine)
	var outs []core.ManyOutcome
	if grp.Kind == batchplan.SharedSource {
		outs = e.RouteMany(grp.Source, pts, grp.At, grp.Speed)
	} else {
		outs = e.RouteManyTo(pts, grp.Target, grp.At, grp.Speed)
	}
	if tr == nil {
		sp.End()
	} else {
		// The shared run's frontier stats: every non-solo outcome
		// carries the same search's numbers, so the first one stands
		// for the run.
		attach := outs[0].Stats
		sp.EndWith(&attach)
	}
	nShared := 0
	for _, o := range outs {
		if o.Solo {
			p.engineSearches.Add(1)
		} else if o.Err == nil || errors.Is(o.Err, core.ErrNoRoute) {
			nShared++
		}
	}
	if nShared > 0 {
		p.engineSearches.Add(1) // the one shared search
		// The run's frontier stats, observed once: every non-solo
		// outcome carries the same search's numbers.
		for _, o := range outs {
			if !o.Solo {
				p.observeEffort(o.Stats)
				break
			}
		}
	}
	counted := nShared >= 2 // a "shared run" must actually share
	if counted {
		sharedRuns.Add(1)
		p.sharedRuns.Add(1)
		p.sharedAnswers.Add(int64(nShared))
	}
	sp = tr.Start(obs.StageStore)
	defer func() { sp.End() }() // storeOutcome may reopen sp around a build
	for k, pm := range rem {
		o := outs[k]
		path := o.Path
		if path != nil && ekeys[pm.i].at != path.DepartedAt {
			path = e.RebaseDeparture(path, qs[pm.i])
		}
		fromRun := !o.Solo && (o.Err == nil || errors.Is(o.Err, core.ErrNoRoute))
		r := Result{
			Path:      path,
			Stats:     o.Stats,
			Err:       o.Err,
			Hit:       HitMiss,
			SharedRun: counted && fromRun,
		}
		reason := pm.reason
		if p.storeOutcome(tr, &sp, b, e, qs[pm.i], keys[pm.i], ekeys[pm.i], true, r, pm.epoch, pm.wepoch) {
			reason = obs.ReasonEpochRaced
		}
		r.Explain = reason
		extra := obs.LoadSample{}
		if r.SharedRun {
			extra.SharedAnswers = 1
		}
		ps := obs.PairSample{Queries: 1}
		if o.Solo {
			// The run refused this member (privacy, or the ablation
			// forbids shared expansion) and fell back to a dedicated
			// search — already tallied in engineSearches above.
			extra.EngineSearches = 1
			soloWhy := obs.ReasonPrivatePartition
			if p.opts.Engine.SinglePartitionExpansion {
				soloWhy = obs.ReasonAblation
			}
			p.reasonCounts[soloWhy].Add(1)
			extra.CountReason(soloWhy)
			p.observeEffort(o.Stats)
			// The dedicated fallback search is attributable to the
			// member's own pair; shared-run answers are not (one run
			// spans many pairs), so those feed queries only.
			ps.EngineSearches = 1
			ps.Effort = int64(o.Stats.Pops)
		}
		p.noteMiss(reason, extra)
		p.pairs.Feed(pairKeyOf(keys[pm.i]), ps)
		out[pm.i] = r
	}
	if nShared > 0 {
		p.load.Feed(obs.LoadSample{EngineSearches: 1}) // the one shared search
	}
}

// routePartitionGroup executes one SharedPartition group: members
// sharing (source partition, target partition, departure, speed) but
// not their exact endpoints, served sequentially so that the first
// member's miss builds the pair's skeleton family (inside routeKeyed's
// storeOutcome, traced as a build span) and every later member
// composes from it — a jittered wave out of one hot lobby collapses to
// about one engine search. A wave of two or more members is its own
// repeat evidence: the group records the pair's family key before
// routing, so its first miss builds without waiting for a second one.
// Each member runs the full probe/engine/store path of a solo query, so
// hit, miss and provenance accounting are identical to the unplanned
// flow; members the family cannot certify fall back to dedicated
// searches and are booked as singleton-group solo decisions (the
// producer's search is not solo — the family it built IS the sharing).
func (p *Pool) routePartitionGroup(tr *obs.Trace, b *poolBackend, qs []core.Query, items []batchplan.Item,
	grp *batchplan.Group, keys []cacheKey, ekeys []entryKey, out []Result) {

	if len(grp.Members) >= 2 {
		b.evidence.repeat(p.familyKey(keys[items[grp.Members[0]].Index]))
	}
	produced := false
	for _, m := range grp.Members {
		i := items[m].Index
		r := p.routeKeyed(tr, b, qs[i], keys[i], ekeys[i], true)
		out[i] = r
		if r.CacheHit {
			continue
		}
		if !produced {
			// The group's first engine run: its store stage built the
			// family the rest of the wave composes from.
			produced = true
			continue
		}
		p.noteSolo(obs.ReasonSingletonGroup)
	}
}

// InvalidateSlot drops every cached outcome whose answer can depend on
// checkpoint slot i. A cached path depends on every slot between its
// departure and arrival, not just the departure slot, and no-route
// outcomes have no slot bound at all, so this drops entries whose walk
// spans slot i plus all no-route entries. Note that applying a
// schedule change requires swapping the graph (SetGraph /
// UpdateSchedules, which replace the whole cache); InvalidateSlot is
// the finer-grained knob for cache-only concerns such as bounding
// staleness per slot.
func (p *Pool) InvalidateSlot(i int) {
	b := p.backend.Load()
	if c := b.cache; c != nil {
		c.invalidateSlot(i)
	}
	if w := b.windows; w != nil {
		// A stored window's departures — and, by the answer-window
		// clamp, its whole walks — lie inside one checkpoint slot, so
		// dropping windows overlapping the slot's time range voids
		// exactly the answers that depend on it. Full-day windows
		// (static answers) overlap every slot and always drop.
		cps := b.g.Checkpoints()
		w.InvalidateRange(temporal.Interval{Open: cps.SlotStart(i), Close: cps.SlotEnd(i)})
	}
}

// InvalidateCache drops every cached outcome, windows included.
func (p *Pool) InvalidateCache() {
	b := p.backend.Load()
	if c := b.cache; c != nil {
		c.invalidateAll()
	}
	if w := b.windows; w != nil {
		w.InvalidateAll()
	}
}

// CacheLen returns the number of cached exact outcomes (0 when
// disabled).
func (p *Pool) CacheLen() int {
	c := p.backend.Load().cache
	if c == nil {
		return 0
	}
	return c.len()
}

// WindowLen returns the number of stored validity windows (0 when the
// window cache is disabled).
func (p *Pool) WindowLen() int {
	w := p.backend.Load().windows
	if w == nil {
		return 0
	}
	return w.Len()
}
