package server

import (
	"net/http"

	"indoorpath/internal/core"
	"indoorpath/internal/model"
	"indoorpath/internal/tcache"
	"indoorpath/internal/temporal"
)

// This file implements GET /cachez: the cache- and workload-
// introspection endpoint. Per venue and method it renders exact-cache
// and skeleton-store occupancy vs capacity with eviction counters, the
// skeleton store's per-OD-pair coverage map, the space-saving top-K
// pair table with hit rates, and the per-search engine-effort
// histograms. Supports the shared strict ?venue=/?method= filters.

// maxCoveragePairs caps the per-pair coverage listing in one /cachez
// body. PairsTotal always reports the uncapped count, so the cap is
// never a silent truncation.
const maxCoveragePairs = 64

// handleCachez serves the cache introspection view. Each venue/method
// doc is gathered in one pass whose read order makes the body's
// invariants hold under racing traffic: the top-K table is snapshotted
// before the pool counters (whose own read order puts queries last),
// so every pair tally is <= the body's Queries; occupancy and capacity
// come from one locked read, so occupancy <= capacity.
func (s *Server) handleCachez(w http.ResponseWriter, r *http.Request) {
	f, ok := s.parseScopeFilter(w, r)
	if !ok {
		return
	}
	venues := s.reg.Venues()
	resp := CachezResponse{Venues: make(map[string]map[string]CacheMethodDoc, len(venues))}
	for _, ve := range venues {
		if !f.matchVenue(ve.ID()) {
			continue
		}
		mv := ve.Model()
		methods := make(map[string]CacheMethodDoc, len(pooledMethods))
		for _, m := range pooledMethods {
			if !f.matchMethod(methodName(m)) {
				continue
			}
			methods[methodName(m)] = cacheMethodDoc(ve, m, mv)
		}
		resp.Venues[ve.ID()] = methods
	}
	writeJSON(w, http.StatusOK, resp)
}

// cacheMethodDoc gathers one pool's introspection doc. Read order is
// the scrape-consistency discipline: top-K pairs first, then effort
// histograms and family coverage, then Stats — whose own read order
// puts the query counter last, so it dominates every tally above.
func cacheMethodDoc(ve *Venue, m core.Method, mv *model.Venue) CacheMethodDoc {
	pool := ve.Pool(m)
	pairs := pool.HotPairs()
	effort := pool.Effort()
	coverage := pool.SkeletonCoverage()
	st := pool.Stats()

	doc := CacheMethodDoc{
		Exact: CacheOccupancyDoc{
			Entries:   st.CacheEntries,
			Capacity:  st.CacheCapacity,
			Evictions: st.CacheEvictions,
		},
		Skeleton: SkeletonStoreDoc{
			Families:   st.SkelFamilies,
			Capacity:   st.SkelCapacity,
			Evictions:  st.SkelEvictions,
			PairsTotal: len(coverage),
		},
		PairCapacity: pool.HotPairCapacity(),
		Queries:      st.Queries,
		EngineEffort: effort,
	}

	// The coverage map: per-pair family and chain counts with
	// whole-pair day coverage, most chains first (tcache order),
	// capped but never silently.
	dayCoverage := make(map[tcache.Key]float64, len(coverage))
	for i, pc := range coverage {
		day := pc.CoveredSec / float64(temporal.DaySeconds)
		dayCoverage[pc.Key] = day
		if i < maxCoveragePairs {
			doc.Skeleton.Pairs = append(doc.Skeleton.Pairs, SkeletonPairDoc{
				Src:         partName(mv, pc.Key.Src),
				Tgt:         partName(mv, pc.Key.Tgt),
				Families:    pc.Families,
				Chains:      pc.Chains,
				DayCoverage: day,
			})
		}
	}

	for _, pc := range pairs {
		key := tcache.Key{Src: model.PartitionID(pc.Key.Src), Tgt: model.PartitionID(pc.Key.Tgt)}
		row := HotPairDoc{
			Src:            partName(mv, key.Src),
			Tgt:            partName(mv, key.Tgt),
			Queries:        pc.Queries,
			ExactHits:      pc.ExactHits,
			SkeletonHits:   pc.SkeletonHits,
			Deduped:        pc.Deduped,
			EngineSearches: pc.EngineSearches,
			Effort:         pc.Effort,
			ErrBound:       pc.ErrBound,
			DayCoverage:    dayCoverage[key],
		}
		if pc.Queries > 0 {
			row.ExactHitRate = float64(pc.ExactHits) / float64(pc.Queries)
		}
		doc.TopPairs = append(doc.TopPairs, row)
	}
	return doc
}

// partName resolves a partition ID against the venue model.
func partName(mv *model.Venue, id model.PartitionID) string {
	return mv.Partition(id).Name
}
