package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"indoorpath/internal/obs"
	"indoorpath/internal/server"
)

// metricDef is one reported metric. The names, units and directions
// here are the ones BENCHMARK.json declares.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Layer is the package a per-layer metric measures.
	Layer string
	// Moves names the end-to-end metric and workload a per-layer
	// metric should move.
	Moves string
}

// endToEnd are the metrics a user of the service sees that hold still
// from run to run, printed by an untraced run and bounded in
// BENCHMARK.json. live_heap_mb is the serving stack's share of the
// live heap, without the benchmark's own data. fail_frac is printed
// too, but reported as ok_frac (1 - fail_frac) so that the metric is
// never zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ok_frac", Unit: "ratio", Better: "higher"},
	{Name: "alloc_kb_per_query", Unit: "kB", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
}

// unbounded are the end-to-end metrics that follow the host's speed:
// they are printed in the table but are not in the result line. On a
// 2-vCPU guest whose host runs it slower or takes its vCPUs away for
// stretches of minutes, CPU time per query moved by a quarter between
// two sets of ten seeds run ten minutes apart, and in a stretch of
// steal time fresh p50 and p90 doubled and spread by 0.47 and 0.62 of
// their median across ten seeds: more than any bound the benchmark may
// set.
var unbounded = []metricDef{
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p90_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"core.route_ms", "ms", "lower", "core", "cpu_ms_per_query and p99_ms on fresh"},
	{"core.route_allocs", "count", "lower", "core", "cpu_ms_per_query and p99_ms on fresh"},
	{"core.family_build_ms", "ms", "lower", "core", "cpu_ms_per_query on fresh, p50_ms on batch"},
	{"core.compose_ms", "ms", "lower", "core", "p50_ms on crowd"},
	{"core.route_many_ms", "ms", "lower", "core", "queries_per_s on batch"},
	{"core.pops_per_search", "count", "lower", "core", "cpu_ms_per_query on fresh"},
	{"core.relax_per_search", "count", "lower", "core", "cpu_ms_per_query on fresh"},
	{"core.tv_checks_per_search", "count", "lower", "core", "cpu_ms_per_query on fresh"},
	{"core.engine_runs_per_query", "ratio", "lower", "core", "cpu_ms_per_query on fresh and batch"},
	{"tcache.families_built_per_query", "ratio", "lower", "tcache", "cpu_ms_per_query on fresh and batch"},
	{"tcache.family_reuse", "ratio", "higher", "tcache", "cpu_ms_per_query on fresh"},
	{"tcache.window_reuse", "ratio", "higher", "tcache", "live_heap_mb on crowd"},
	{"tcache.entries_end", "count", "lower", "tcache", "live_heap_mb on all workloads"},
	{"service.exact_hit_rate", "ratio", "higher", "service", "cpu_ms_per_query on crowd and flips"},
	{"service.window_hit_rate", "ratio", "higher", "service", "cpu_ms_per_query on crowd and flips"},
	{"service.skeleton_hit_rate", "ratio", "higher", "service", "cpu_ms_per_query on crowd and flips"},
	{"service.miss_rate", "ratio", "lower", "service", "cpu_ms_per_query on crowd and flips"},
	{"service.searches_per_query", "ratio", "lower", "service", "cpu_ms_per_query on fresh"},
	{"service.skeleton_certify_rate", "ratio", "higher", "service", "cpu_ms_per_query on crowd"},
	{"service.engines_created_per_search", "ratio", "lower", "service", "cpu_ms_per_query on fresh"},
	{"service.hit_ms", "ms", "lower", "service", "p50_ms on crowd"},
	{"service.miss_ms", "ms", "lower", "service", "p99_ms on fresh"},
	{"service.probe_ms", "ms", "lower", "service", "p99_ms on fresh, p50_ms on batch"},
	{"service.store_ms", "ms", "lower", "service", "p99_ms on fresh, p50_ms on batch"},
	{"service.engine_ms", "ms", "lower", "service", "p99_ms on fresh, p50_ms on batch"},
	{"batchplan.plan_ms", "ms", "lower", "batchplan", "p50_ms on batch"},
	{"batchplan.answers_per_run", "ratio", "higher", "batchplan", "queries_per_s on batch"},
	{"batchplan.solo_rate", "ratio", "lower", "batchplan", "cpu_ms_per_query on batch"},
	{"coalesce.hold_ms", "ms", "lower", "coalesce", "p50_ms on crowd"},
	{"coalesce.fanout", "ratio", "higher", "coalesce", "cpu_ms_per_query on crowd"},
	{"coalesce.self_ms", "ms", "lower", "coalesce", "p50_ms on crowd"},
	{"server.decode_ms", "ms", "lower", "server", "p50_ms on crowd"},
	{"server.render_ms", "ms", "lower", "server", "p50_ms on crowd"},
	{"server.handler_self_ms", "ms", "lower", "server", "p50_ms on crowd"},
	{"server.transport_ms", "ms", "lower", "server", "p50_ms on crowd"},
	{"server.swap_ms", "ms", "lower", "server", "p99_ms on flips"},
	{"server.timeouts", "count", "lower", "server", "ok_frac on all workloads"},
	{"itgraph.build_ms", "ms", "lower", "itgraph", "setup_s on all workloads, p99_ms on flips"},
	{"itgraph.snapshots_ms", "ms", "lower", "itgraph", "setup_s on all workloads, p99_ms on flips"},
	{"bench.lateness_p99_ms", "ms", "lower", "bench", "validity of every open-loop run"},
	{"bench.trace_overhead_ms", "ms", "lower", "bench", "distance between traced and untraced p50_ms"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns computed values into the printed metric set: every
// defined metric appears, and one without samples on this workload
// reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// printTable writes the metrics as an aligned name/value/unit table.
// Per-layer metrics are grouped under their layer, each with the
// end-to-end metric it should move.
func printTable(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for i, d := range defs {
		if d.Layer != "" && (i == 0 || defs[i-1].Layer != d.Layer) {
			fmt.Fprintf(w, "%s:\n", d.Layer)
		}
		if d.Moves != "" {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s moves %s\n", d.Name, m[d.Name].Value, d.Unit, d.Moves)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
		}
	}
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is one read of the daemon's own counters, flattened to
// named sums over the venue's engine methods.
type counters map[string]float64

// scrape reads /statsz, /cachez and /metricsz on a connection of its
// own, so counter reads never queue behind the workload's requests.
func scrape(base string) (counters, error) {
	c := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	get := func(path string) ([]byte, error) {
		resp, err := c.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		return raw, err
	}
	out := counters{}
	raw, err := get("/statsz")
	if err != nil {
		return nil, err
	}
	var st server.StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	doc := st.Venues[venueID]
	for _, s := range doc.Methods {
		out["queries"] += float64(s.Queries)
		out["exact"] += float64(s.CacheHits)
		out["window"] += float64(s.WindowHits)
		out["skeleton"] += float64(s.SkeletonHits)
		out["deduped"] += float64(s.Deduped)
		out["searches"] += float64(s.EngineSearches)
		out["engines"] += float64(s.EnginesCreated)
		out["shared_runs"] += float64(s.SharedRuns)
		out["shared_answers"] += float64(s.SharedAnswers)
		out["windows"] += float64(s.Windows)
		out["window_evictions"] += float64(s.WindowEvictions)
		out["families"] += float64(s.SkelFamilies)
		out["family_evictions"] += float64(s.SkelEvictions)
		out["uncertified"] += float64(s.Reasons.MissSkeletonUncertified)
		out["solo"] += float64(s.Reasons.SoloPrivatePartition + s.Reasons.SoloSingletonGroup + s.Reasons.SoloAblation)
	}
	addHist := func(prefix string, h obs.HistogramSnapshot) {
		out[prefix+".sum"] += h.SumSeconds
		out[prefix+".n"] += float64(h.Count)
	}
	for _, e := range doc.EngineEffort {
		addHist("pops", e.Pops)
		addHist("relax", e.Relaxations)
		addHist("tv", e.TVChecks)
	}
	for _, cs := range doc.Coalesce {
		out["coal.queries"] += float64(cs.Queries)
		out["coal.flushes"] += float64(cs.Flushes)
		out["coal.hold_ns"] += float64(cs.HoldSumNanos)
	}
	for stage, h := range st.Stages {
		addHist("stage."+stage, h)
	}
	if raw, err = get("/cachez"); err != nil {
		return nil, err
	}
	var cz server.CachezResponse
	if err := json.Unmarshal(raw, &cz); err != nil {
		return nil, fmt.Errorf("cachez: %w", err)
	}
	for _, m := range cz.Venues[venueID] {
		out["entries"] += float64(m.Exact.Entries + m.Window.Windows + m.Skeleton.Families)
	}
	if raw, err = get("/metricsz"); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if ok && name == "indoorpath_server_timeouts_total" {
			out["timeouts"], _ = strconv.ParseFloat(val, 64)
		}
	}
	return out, nil
}

// delta returns after minus before for every named counter.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
