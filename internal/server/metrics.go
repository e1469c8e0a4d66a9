package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
)

// This file implements GET /metricsz: the pool counters of /statsz in
// Prometheus text exposition format (version 0.0.4), hand-rolled so the
// daemon stays dependency-free. Output is deterministic — venues sorted
// by ID (Registry.Venues), methods in pooledMethods order — so scrapes
// and tests see stable series ordering. One scrape renders one
// snapshotStats() call: every series in a response body comes from the
// same per-venue counter read.

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricDef is one exported series family over the per-(venue, method)
// pool stats.
type metricDef struct {
	name  string
	kind  string // counter | gauge
	help  string
	value func(VenueStatsDoc, string) int64
}

var poolMetrics = []metricDef{
	{"indoorpath_pool_queries_total", "counter",
		"Route calls and batch entries served, per venue and engine method.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].Queries }},
	{"indoorpath_pool_batches_total", "counter",
		"RouteBatch calls served.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].Batches }},
	{"indoorpath_pool_exact_hits_total", "counter",
		"Outcomes served from the exact-identity result cache.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].CacheHits }},
	{"indoorpath_pool_window_hits_total", "counter",
		"Outcomes served from the validity-window temporal result cache.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].WindowHits }},
	{"indoorpath_pool_skeleton_hits_total", "counter",
		"Outcomes composed from a stored door-to-door skeleton family.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].SkeletonHits }},
	{"indoorpath_pool_deduped_total", "counter",
		"Batch entries shared from an identical query in the same batch.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].Deduped }},
	{"indoorpath_pool_engine_searches_total", "counter",
		"Queries answered by running an engine search (cache misses).",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].EngineSearches }},
	{"indoorpath_pool_family_builds_total", "counter",
		"Skeleton family builds that returned a family (engine work beside searches; builds need repeat evidence).",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].FamilyBuilds }},
	{"indoorpath_pool_shared_runs_total", "counter",
		"Multi-query shared executions: engine runs answering a whole batch group.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].SharedRuns }},
	{"indoorpath_pool_shared_answers_total", "counter",
		"Batch entries answered by a shared multi-query engine run.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].SharedAnswers }},
	{"indoorpath_pool_engines_created_total", "counter",
		"Engines constructed rather than reused from the pool.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].EnginesCreated }},
	{"indoorpath_pool_epoch", "gauge",
		"Backend generation: graph swaps applied to the pool since start.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].Epoch }},
	{"indoorpath_cache_entries", "gauge",
		"Exact-identity result-cache occupancy (entries currently held).",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].CacheEntries }},
	{"indoorpath_cache_capacity", "gauge",
		"Exact-identity result-cache entry capacity.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].CacheCapacity }},
	{"indoorpath_cache_evictions_total", "counter",
		"Exact-cache entries shed by capacity eviction (invalidation swaps excluded); survives backend swaps.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].CacheEvictions }},
	{"indoorpath_window_entries", "gauge",
		"Validity-window store occupancy (windows currently held).",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].Windows }},
	{"indoorpath_window_capacity", "gauge",
		"Validity-window store window capacity.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].WindowCapacity }},
	{"indoorpath_window_evictions_total", "counter",
		"Window-store windows shed by capacity eviction; survives backend swaps.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].WindowEvictions }},
	{"indoorpath_skeleton_families", "gauge",
		"Skeleton-family store occupancy (slot families currently held).",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].SkelFamilies }},
	{"indoorpath_skeleton_capacity", "gauge",
		"Skeleton-family store family capacity.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].SkelCapacity }},
	{"indoorpath_skeleton_evictions_total", "counter",
		"Skeleton families shed by capacity eviction; survives backend swaps.",
		func(d VenueStatsDoc, m string) int64 { return d.Methods[m].SkelEvictions }},
}

// handleMetricsz renders every pool counter, the request/stage latency
// histograms and per-venue and process gauges in Prometheus text
// format.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	sn := s.snapshotStats()
	var sb strings.Builder

	fmt.Fprintf(&sb, "# HELP indoorpath_venues Venues registered in the serving registry.\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_venues gauge\n")
	fmt.Fprintf(&sb, "indoorpath_venues %d\n", len(sn.venues))

	fmt.Fprintf(&sb, "# HELP indoorpath_venue_epoch Schedule updates applied to the venue.\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_venue_epoch gauge\n")
	for i, ve := range sn.venues {
		fmt.Fprintf(&sb, "indoorpath_venue_epoch{venue=%q} %d\n", ve.ID(), sn.docs[i].Epoch)
	}

	for _, md := range poolMetrics {
		fmt.Fprintf(&sb, "# HELP %s %s\n", md.name, md.help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", md.name, md.kind)
		for i, ve := range sn.venues {
			for _, m := range pooledMethods {
				fmt.Fprintf(&sb, "%s{venue=%q,method=%q} %d\n",
					md.name, ve.ID(), methodName(m), md.value(sn.docs[i], methodName(m)))
			}
		}
	}

	// Request-lifecycle counters: real deadline 504s vs clients that
	// hung up first (kept apart so disconnect waves don't read as slow
	// searches).
	fmt.Fprintf(&sb, "# HELP indoorpath_server_timeouts_total Requests that hit the server-side deadline and answered 504.\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_server_timeouts_total counter\n")
	fmt.Fprintf(&sb, "indoorpath_server_timeouts_total %d\n", sn.server.Timeouts)
	fmt.Fprintf(&sb, "# HELP indoorpath_server_client_gone_total Requests whose client disconnected before the answer was ready (no 504 emitted).\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_server_client_gone_total counter\n")
	fmt.Fprintf(&sb, "indoorpath_server_client_gone_total %d\n", sn.server.ClientGone)

	if s.opts.Coalesce {
		writeCoalesceMetrics(&sb, sn)
	}
	writeLoadMetrics(&sb, sn)
	writeReasonMetrics(&sb, sn)
	writeLatencyMetrics(&sb, sn)
	writeEffortMetrics(&sb, sn)

	w.Header().Set("Content-Type", metricsContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(sb.String()))
}

// loadMetrics are the windowed load-signal gauge families: the /loadz
// derived rates re-exported per (venue, method, window) so dashboards
// and the adaptive serving policy read the same numbers. Gauges, not
// counters — each scrape re-derives them from the rolling ring.
var loadMetrics = []struct {
	name  string
	help  string
	value func(LoadWindowDoc) float64
}{
	{"indoorpath_load_arrival_per_sec",
		"Windowed arrival rate: queries per second over the window.",
		func(d LoadWindowDoc) float64 { return d.ArrivalPerSec }},
	{"indoorpath_load_exact_hit_rate",
		"Windowed fraction of queries served from the exact-identity cache.",
		func(d LoadWindowDoc) float64 { return d.ExactHitRate }},
	{"indoorpath_load_window_hit_rate",
		"Windowed fraction of queries served from the validity-window cache.",
		func(d LoadWindowDoc) float64 { return d.WindowHitRate }},
	{"indoorpath_load_skeleton_hit_rate",
		"Windowed fraction of queries composed from a stored skeleton family.",
		func(d LoadWindowDoc) float64 { return d.SkeletonHitRate }},
	{"indoorpath_load_shareability",
		"Windowed fraction of queries answered by another query's engine run (deduped or shared).",
		func(d LoadWindowDoc) float64 { return d.Shareability }},
	{"indoorpath_load_searches_per_query",
		"Windowed engine searches per query: the cache+sharing miss cost.",
		func(d LoadWindowDoc) float64 { return d.SearchesPerQuery }},
	{"indoorpath_load_hold_utilization",
		"Windowed actual vs configured coalescer hold time (1 means windows run their full hold).",
		func(d LoadWindowDoc) float64 { return d.HoldUtilization }},
	{"indoorpath_load_flush_fanout",
		"Windowed queries per coalescer flush.",
		func(d LoadWindowDoc) float64 { return d.FlushFanout }},
}

// windowLabel renders a window span as its metric label: 10s, 1m, 5m.
func windowLabel(sec int) string {
	if sec >= 60 && sec%60 == 0 {
		return strconv.Itoa(sec/60) + "m"
	}
	return strconv.Itoa(sec) + "s"
}

// writeLoadMetrics renders the indoorpath_load_* gauge families from
// the snapshot's one-read-per-ring load view, in deterministic order
// (venues sorted, pooledMethods order, LoadWindows order).
func writeLoadMetrics(sb *strings.Builder, sn statsSnapshot) {
	for _, md := range loadMetrics {
		fmt.Fprintf(sb, "# HELP %s %s\n", md.name, md.help)
		fmt.Fprintf(sb, "# TYPE %s gauge\n", md.name)
		for i, ve := range sn.venues {
			for _, m := range pooledMethods {
				for wi, smp := range sn.loads[i][methodName(m)] {
					doc := loadWindowDoc(obs.LoadWindows[wi], smp)
					fmt.Fprintf(sb, "%s{venue=%q,method=%q,window=%q} %g\n",
						md.name, ve.ID(), methodName(m), windowLabel(doc.WindowSec), md.value(doc))
				}
			}
		}
	}
}

// writeReasonMetrics renders the cumulative decision-provenance
// counters: why queries missed the caches and why plan members ran
// solo, per (venue, method, reason). Reasons with zero counts are
// omitted so the families stay proportional to what actually happened.
func writeReasonMetrics(sb *strings.Builder, sn statsSnapshot) {
	families := []struct {
		name, help string
		miss       bool
	}{
		{"indoorpath_reason_miss_total",
			"Cache misses by provenance reason, per venue and engine method.", true},
		{"indoorpath_reason_solo_total",
			"Plan members that ran a dedicated engine search, by solo reason.", false},
	}
	for _, fam := range families {
		fmt.Fprintf(sb, "# HELP %s %s\n", fam.name, fam.help)
		fmt.Fprintf(sb, "# TYPE %s counter\n", fam.name)
		for i, ve := range sn.venues {
			for _, m := range pooledMethods {
				for _, rc := range sn.docs[i].Methods[methodName(m)].Reasons.Counts() {
					if rc.Count == 0 || rc.Reason.IsMiss() != fam.miss {
						continue
					}
					fmt.Fprintf(sb, "%s{venue=%q,method=%q,reason=%q} %d\n",
						fam.name, ve.ID(), methodName(m), rc.Reason.String(), rc.Count)
				}
			}
		}
	}
}

// writeLatencyMetrics renders the whole-request and per-stage latency
// histogram families. Request series appear per (venue, method,
// outcome) once touched, in deterministic key order; stage series
// always appear, in stage-pipeline order.
func writeLatencyMetrics(sb *strings.Builder, sn statsSnapshot) {
	fmt.Fprintf(sb, "# HELP indoorpath_request_seconds End-to-end request latency per venue, engine method and outcome.\n")
	fmt.Fprintf(sb, "# TYPE indoorpath_request_seconds histogram\n")
	for _, k := range obs.SortedRequestKeys(sn.requests) {
		labels := fmt.Sprintf("venue=%q,method=%q,outcome=%q", k.Venue, k.Method, k.Outcome)
		writeHistogramSeries(sb, "indoorpath_request_seconds", labels, sn.requests[k])
	}
	fmt.Fprintf(sb, "# HELP indoorpath_stage_seconds Time spent per request-pipeline stage, process-wide.\n")
	fmt.Fprintf(sb, "# TYPE indoorpath_stage_seconds histogram\n")
	for _, stage := range obs.StageNames() {
		writeHistogramSeries(sb, "indoorpath_stage_seconds", fmt.Sprintf("stage=%q", stage), sn.stages[stage])
	}
}

// effortMetrics are the per-search engine-effort histogram families:
// count-valued distributions (one observation per engine run), so the
// _sum lines carry raw counts, not seconds.
var effortMetrics = []struct {
	name  string
	help  string
	value func(service.EffortSnapshot) obs.HistogramSnapshot
}{
	{"indoorpath_engine_effort_pops",
		"Heap pops per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.Pops }},
	{"indoorpath_engine_effort_settled",
		"Nodes settled per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.Settled }},
	{"indoorpath_engine_effort_relaxations",
		"Edge relaxations per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.Relaxations }},
	{"indoorpath_engine_effort_tv_checks",
		"Temporal-variation (door interval) checks per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.TVChecks }},
}

// writeEffortMetrics renders the per-search engine-effort histograms
// per (venue, method), from the same snapshot as the pool counters, in
// the deterministic pool-metric order.
func writeEffortMetrics(sb *strings.Builder, sn statsSnapshot) {
	for _, md := range effortMetrics {
		fmt.Fprintf(sb, "# HELP %s %s\n", md.name, md.help)
		fmt.Fprintf(sb, "# TYPE %s histogram\n", md.name)
		for i, ve := range sn.venues {
			for _, m := range pooledMethods {
				labels := fmt.Sprintf("venue=%q,method=%q", ve.ID(), methodName(m))
				writeHistogramSeries(sb, md.name, labels, md.value(sn.docs[i].EngineEffort[methodName(m)]))
			}
		}
	}
}

// writeHistogramSeries renders one histogram in Prometheus text
// format: cumulative _bucket lines, the +Inf bucket, _sum and _count.
// labels is the pre-rendered label list without a trailing comma.
func writeHistogramSeries(sb *strings.Builder, name, labels string, snap obs.HistogramSnapshot) {
	cum := int64(0)
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(sb, "%s_bucket{%s,le=%q} %d\n",
			name, labels, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	if len(snap.Counts) > len(snap.Bounds) {
		cum += snap.Counts[len(snap.Bounds)]
	}
	fmt.Fprintf(sb, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(sb, "%s_sum{%s} %g\n", name, labels, snap.SumSeconds)
	fmt.Fprintf(sb, "%s_count{%s} %d\n", name, labels, cum)
}

// coalesceMetrics are the counter families over the standing
// coalescers' stats (the hold-time histogram is rendered separately).
var coalesceMetrics = []struct {
	name  string
	help  string
	value func(coalesce.Stats) int64
}{
	{"indoorpath_coalesce_queries_total",
		"Solo route requests accepted by the standing coalescer.",
		func(s coalesce.Stats) int64 { return s.Queries }},
	{"indoorpath_coalesce_flushes_total",
		"Coalescer windows flushed (singleton windows included).",
		func(s coalesce.Stats) int64 { return s.Flushes }},
	{"indoorpath_coalesce_groups_total",
		"Coalesced flushes: windows that accumulated two or more solo requests.",
		func(s coalesce.Stats) int64 { return s.Groups }},
	{"indoorpath_coalesce_answers_total",
		"Solo requests answered out of a coalesced (multi-request) flush.",
		func(s coalesce.Stats) int64 { return s.Answers }},
}

// writeCoalesceMetrics renders the coalescer counters and the
// hold-time histogram in Prometheus text format, from the same
// snapshot the rest of the scrape uses. Series appear for every
// (venue, pooled method) whose coalescer exists — i.e. that has routed
// at least once — in the same deterministic order as the pool metrics.
func writeCoalesceMetrics(sb *strings.Builder, sn statsSnapshot) {
	type row struct {
		venue, method string
		st            coalesce.Stats
	}
	var rows []row
	for i, ve := range sn.venues {
		for _, m := range pooledMethods {
			if st, ok := sn.docs[i].Coalesce[methodName(m)]; ok {
				rows = append(rows, row{ve.ID(), methodName(m), st})
			}
		}
	}
	for _, md := range coalesceMetrics {
		fmt.Fprintf(sb, "# HELP %s %s\n", md.name, md.help)
		fmt.Fprintf(sb, "# TYPE %s counter\n", md.name)
		for _, r := range rows {
			fmt.Fprintf(sb, "%s{venue=%q,method=%q} %d\n", md.name, r.venue, r.method, md.value(r.st))
		}
	}
	fmt.Fprintf(sb, "# HELP indoorpath_coalesce_hold_seconds Time a solo request was held between arrival and its flush starting.\n")
	fmt.Fprintf(sb, "# TYPE indoorpath_coalesce_hold_seconds histogram\n")
	for _, r := range rows {
		cum := int64(0)
		for i, bound := range coalesce.HoldBucketBounds {
			cum += r.st.HoldBuckets[i]
			fmt.Fprintf(sb, "indoorpath_coalesce_hold_seconds_bucket{venue=%q,method=%q,le=%q} %d\n",
				r.venue, r.method, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += r.st.HoldBuckets[len(coalesce.HoldBucketBounds)]
		fmt.Fprintf(sb, "indoorpath_coalesce_hold_seconds_bucket{venue=%q,method=%q,le=\"+Inf\"} %d\n",
			r.venue, r.method, cum)
		fmt.Fprintf(sb, "indoorpath_coalesce_hold_seconds_sum{venue=%q,method=%q} %g\n",
			r.venue, r.method, float64(r.st.HoldSumNanos)/1e9)
		fmt.Fprintf(sb, "indoorpath_coalesce_hold_seconds_count{venue=%q,method=%q} %d\n",
			r.venue, r.method, cum)
	}
}
