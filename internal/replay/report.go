package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"indoorpath/internal/obs"
	"indoorpath/internal/server"
	"indoorpath/internal/service"
)

// LatencyDoc holds the per-phase latency percentiles in milliseconds
// (nearest-rank over every answered request, errors included — a 400
// burns client time too).
type LatencyDoc struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// ProvenanceDoc counts how the phase's answers were produced, from the
// per-response wire flags (hit / coalesced / shared_run / shared).
type ProvenanceDoc struct {
	// Miss / Exact / Window / Skeleton are the "hit" provenance of
	// each answer (Skeleton counts answers composed point-free from a
	// stored door-to-door skeleton family).
	Miss     int `json:"miss"`
	Exact    int `json:"exact"`
	Window   int `json:"window"`
	Skeleton int `json:"skeleton"`
	// Coalesced counts answers served out of a multi-query coalescer
	// flush; SharedRun counts answers produced by a multi-query shared
	// engine execution; Deduped counts answers shared from an
	// identical query in the same flush. The three overlap with the
	// hit counts (a coalesced answer is also a miss, exact or window).
	Coalesced int `json:"coalesced"`
	SharedRun int `json:"shared_run"`
	Deduped   int `json:"deduped"`
}

// StatsDeltaDoc is the /statsz movement across one phase, summed over
// the venue's method pools: the server-side view that latency numbers
// are judged against. SearchesPerQuery is EngineSearches / Queries;
// EngineRunsPerQuery adds FamiliesBuilt to the numerator.
type StatsDeltaDoc struct {
	Queries        int64 `json:"queries"`
	EngineSearches int64 `json:"engine_searches"`
	ExactHits      int64 `json:"cache_hits"`
	WindowHits     int64 `json:"window_hits"`
	SkeletonHits   int64 `json:"skeleton_hits"`
	Deduped        int64 `json:"deduped"`
	SharedRuns     int64 `json:"shared_runs"`
	SharedAnswers  int64 `json:"shared_answers"`
	Epoch          int64 `json:"epoch"`
	// FamiliesBuilt counts skeleton family builds: engine work that
	// answers no query itself (zero against daemons predating it).
	FamiliesBuilt int64 `json:"families_built"`
	// CoalesceFlushes / CoalescedAnswers move only when the daemon
	// runs with -coalesce.
	CoalesceFlushes  int64 `json:"coalesce_flushes"`
	CoalescedAnswers int64 `json:"coalesced_answers"`
	// Timeouts / ClientGone are the server-wide request-lifecycle
	// counters (not per venue, but a replay run owns the daemon).
	Timeouts   int64 `json:"timeouts"`
	ClientGone int64 `json:"client_gone"`
	// Reasons is the decision-provenance movement: why this phase's
	// misses missed and why its plan members ran solo, summed over the
	// venue's method pools (zero against daemons predating them).
	Reasons service.ReasonStats `json:"reasons"`
}

// StageDeltaDoc is one pipeline stage's histogram movement across a
// phase, from the daemon's /statsz stage histograms: where the
// phase's milliseconds actually went, server-side.
type StageDeltaDoc struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MeanMs  float64 `json:"mean_ms"`
	// P95Ms is the histogram-resolution p95: the upper bound of the
	// bucket holding the nearest-rank observation (the lower bound of
	// the overflow bucket when it lands there).
	P95Ms float64 `json:"p95_ms"`
}

// HistQuantilesDoc holds the phase's request-latency quantiles derived
// from the server-side histogram delta (bucket upper bounds), the
// second, clock-independent view next to the client-side LatencyDoc.
type HistQuantilesDoc struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// HotPairDeltaDoc is one OD partition pair's traffic movement across a
// phase, from the daemon's /cachez top-K tables (before/after deltas
// summed over the venue's method pools). Tallies inherit the
// space-saving table's error bounds, so Share is an estimate — good
// for spotting skew, not for billing.
type HotPairDeltaDoc struct {
	Src     string `json:"src"`
	Tgt     string `json:"tgt"`
	Queries int64  `json:"queries"`
	// Share is Queries over the phase's server-side query delta.
	Share float64 `json:"share"`
}

// EngineEffortDeltaDoc is the phase's per-search engine-effort
// movement from the daemon's /statsz effort histograms, summed over
// the venue's method pools. Means are exact; p95s are
// histogram-resolution bucket bounds.
type EngineEffortDeltaDoc struct {
	// Searches is the number of engine runs the phase's histogram
	// delta covers.
	Searches     int64   `json:"searches"`
	MeanPops     float64 `json:"mean_pops"`
	P95Pops      float64 `json:"p95_pops"`
	MeanTVChecks float64 `json:"mean_tv_checks"`
	P95TVChecks  float64 `json:"p95_tv_checks"`
}

// PhaseReport is one phase's measured outcome.
type PhaseReport struct {
	Name    string `json:"name"`
	Queries int    `json:"queries"`
	// Found / NoRoute partition the 200 answers.
	Found   int `json:"found"`
	NoRoute int `json:"no_route"`
	// Errors counts non-2xx answers other than 504; Timeouts counts
	// 504s. ErrorSamples carries the first few error bodies verbatim.
	Errors       int      `json:"errors"`
	Timeouts     int      `json:"timeouts"`
	ErrorSamples []string `json:"error_samples,omitempty"`
	// Flips is the number of schedule updates this phase fired;
	// MixedAnswers counts answers matching no legal schedule state
	// (must be zero — the flip-storm verdict); TieRelaxed counts
	// answers that matched a state on length+arrival but not doors
	// (an exact-tie artefact, not a violation).
	Flips        int `json:"flips,omitempty"`
	MixedAnswers int `json:"mixed_answers"`
	TieRelaxed   int `json:"tie_relaxed,omitempty"`
	// MixedSamples describes the first few mixed answers.
	MixedSamples []string `json:"mixed_samples,omitempty"`

	LatencyMs  LatencyDoc    `json:"latency"`
	Provenance ProvenanceDoc `json:"provenance"`
	StatsDelta StatsDeltaDoc `json:"stats_delta"`
	// Load is the venue's /loadz block scraped right after the phase
	// finished: per method, one windowed load view per served window
	// (10s/1m/5m). The shortest window approximates the phase's own
	// traffic; wider windows blend preceding phases in. Absent against
	// daemons predating /loadz (the scrape is best-effort).
	Load map[string][]server.LoadWindowDoc `json:"load,omitempty"`
	// Stages is the per-stage latency breakdown from the daemon's
	// stage histograms (absent against daemons predating them).
	Stages []StageDeltaDoc `json:"stage_breakdown,omitempty"`
	// HistLatency is the server-side request-latency view of the same
	// phase, from the venue's request histogram delta.
	HistLatency *HistQuantilesDoc `json:"hist_latency,omitempty"`
	// HotPairs is the phase's top OD-pair traffic movement from the
	// /cachez heavy-hitter tables (absent against daemons predating
	// /cachez — both scrapes are best-effort).
	HotPairs []HotPairDeltaDoc `json:"hot_pairs,omitempty"`
	// EngineEffort is the phase's per-search effort movement from the
	// /statsz effort histograms (absent against daemons predating them
	// or when the phase ran no engine search).
	EngineEffort *EngineEffortDeltaDoc `json:"engine_effort,omitempty"`
	// Warnings flags disagreements between the client-side nearest-rank
	// percentiles and the server-side histogram quantiles beyond bucket
	// resolution — clock or accounting skew worth investigating, not a
	// verdict failure.
	Warnings []string `json:"warnings,omitempty"`
	// SearchesPerQuery is the phase's engine-search rate from the
	// /statsz delta: EngineSearches / Queries (0 when no queries were
	// counted server-side).
	SearchesPerQuery float64 `json:"searches_per_query"`
	// EngineRunsPerQuery counts all of the phase's engine work per
	// query: (EngineSearches + FamiliesBuilt) / Queries from the same
	// delta.
	EngineRunsPerQuery float64 `json:"engine_runs_per_query"`
	// DurationSec is the phase's wall-clock span.
	DurationSec float64 `json:"duration_sec"`
}

// Verdict is one evaluated self-check.
type Verdict struct {
	Phase  string  `json:"phase,omitempty"`
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Value  float64 `json:"value"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
}

// String renders the verdict, e.g.
// `PASS flash-crowd searches_per_query < 0.25 (actual 0.04)`.
func (v Verdict) String() string {
	status := "FAIL"
	if v.Pass {
		status = "PASS"
	}
	scope := v.Phase
	if scope == "" {
		scope = "overall"
	}
	return fmt.Sprintf("%s %s %s %s %g (actual %.4g)", status, scope, v.Metric, v.Op, v.Value, v.Actual)
}

// Report is the structured outcome of one replay run — the
// BENCH_replay.json artifact.
type Report struct {
	Scenario string `json:"scenario"`
	Venue    string `json:"venue"`
	Seed     int64  `json:"seed"`
	Quick    bool   `json:"quick,omitempty"`
	// Fingerprint identifies the generated query stream: two reports
	// with equal fingerprints replayed the same day, so their numbers
	// are directly comparable.
	Fingerprint string `json:"stream_fingerprint"`
	// Target is the daemon the day was replayed against.
	Target      string    `json:"target"`
	Started     time.Time `json:"started"`
	DurationSec float64   `json:"duration_sec"`
	// Process is the daemon's process block from the final /statsz
	// scrape (absent against daemons predating it).
	Process *server.ProcessStatsDoc `json:"process,omitempty"`

	Phases   []PhaseReport `json:"phases"`
	Verdicts []Verdict     `json:"verdicts"`
	// Pass is the conjunction of every verdict.
	Pass bool `json:"pass"`
}

// WriteJSON writes the report as indented JSON (the artifact format).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders a human-readable run summary (what the CLI prints).
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "replay %s on %s (target %s, %d phases, %.1fs)\n",
		r.Scenario, r.Venue, r.Target, len(r.Phases), r.DurationSec)
	for i := range r.Phases {
		ph := &r.Phases[i]
		fmt.Fprintf(&sb, "  %-12s %5d queries  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  %0.3f searches/query",
			ph.Name, ph.Queries, ph.LatencyMs.P50, ph.LatencyMs.P95, ph.LatencyMs.P99, ph.SearchesPerQuery)
		if ph.Flips > 0 {
			fmt.Fprintf(&sb, "  flips %d mixed %d", ph.Flips, ph.MixedAnswers)
		}
		if ph.Errors > 0 || ph.Timeouts > 0 {
			fmt.Fprintf(&sb, "  errors %d timeouts %d", ph.Errors, ph.Timeouts)
		}
		sb.WriteByte('\n')
		for _, w := range ph.Warnings {
			fmt.Fprintf(&sb, "    warn: %s\n", w)
		}
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(&sb, "  %s\n", v)
	}
	if r.Pass {
		sb.WriteString("  ALL VERDICTS PASS\n")
	} else {
		sb.WriteString("  VERDICT FAILURE\n")
	}
	return sb.String()
}

// Cross-check thresholds: the histogram-vs-client comparison needs a
// population for nearest ranks to be meaningful, and allows a little
// absolute slack on top of bucket resolution (timestamps are taken at
// different points of the request path).
const (
	crossCheckMinCount = 20
	crossCheckSlackMs  = 1.0
)

// quantileMs renders a histogram quantile in milliseconds: the bucket
// upper bound, or the lower bound when the observation lands in the
// +Inf overflow bucket (so the value stays finite and JSON-encodable).
func quantileMs(s obs.HistogramSnapshot, q float64) float64 {
	lo, hi := s.QuantileBucket(q)
	if math.IsInf(hi, 1) {
		return lo * 1000
	}
	return hi * 1000
}

// addObservability fills the phase's stage breakdown and server-side
// latency quantiles from the before/after /statsz scrapes, and
// cross-checks the client-side percentiles against them. Both blocks
// stay absent against daemons that don't expose the histograms.
//
// The cross-check is one-sided: the server measures a strict subset of
// what the client's clock sees (no network, no client-side encode), so
// for every request server latency <= client latency, and a server
// histogram bucket that starts ABOVE the client-side percentile —
// beyond slack — cannot be explained by bucket resolution.
func addObservability(phr *PhaseReport, before, after *server.StatsResponse, venue string) {
	for _, name := range obs.StageNames() {
		d := after.Stages[name].Sub(before.Stages[name])
		if d.Count == 0 {
			continue
		}
		phr.Stages = append(phr.Stages, StageDeltaDoc{
			Stage:   name,
			Count:   d.Count,
			TotalMs: d.SumSeconds * 1000,
			MeanMs:  d.MeanSeconds() * 1000,
			P95Ms:   quantileMs(d, 0.95),
		})
	}
	bReq := before.Venues[venue].Requests
	var delta obs.HistogramSnapshot
	for m, a := range after.Venues[venue].Requests {
		delta = delta.Add(a.Sub(bReq[m]))
	}
	if delta.Count == 0 {
		return
	}
	phr.HistLatency = &HistQuantilesDoc{
		Count: delta.Count,
		P50Ms: quantileMs(delta, 0.50),
		P95Ms: quantileMs(delta, 0.95),
		P99Ms: quantileMs(delta, 0.99),
	}
	if delta.Count < crossCheckMinCount {
		return
	}
	for _, c := range []struct {
		q      float64
		name   string
		client float64
	}{
		{0.50, "p50", phr.LatencyMs.P50},
		{0.95, "p95", phr.LatencyMs.P95},
		{0.99, "p99", phr.LatencyMs.P99},
	} {
		lo, _ := delta.QuantileBucket(c.q)
		if lo*1000 > c.client+crossCheckSlackMs {
			phr.Warnings = append(phr.Warnings, fmt.Sprintf(
				"server-side %s bucket starts at %.3fms, above client-side %s %.3fms + %.1fms slack — clock or accounting skew",
				c.name, lo*1000, c.name, c.client, crossCheckSlackMs))
		}
	}
}

// quantileCount renders a count-valued histogram quantile in raw
// units: the bucket upper bound, or the lower bound when the
// observation lands in the +Inf overflow bucket.
func quantileCount(s obs.HistogramSnapshot, q float64) float64 {
	lo, hi := s.QuantileBucket(q)
	if math.IsInf(hi, 1) {
		return lo
	}
	return hi
}

// addEffortDelta fills the phase's engine-effort movement from the
// before/after /statsz effort histograms, summed over the venue's
// method pools. Stays absent against daemons predating the histograms
// (nil EngineEffort maps) or when no engine search ran.
func addEffortDelta(phr *PhaseReport, before, after *server.StatsResponse, venue string) {
	bEff := before.Venues[venue].EngineEffort
	var pops, tv obs.HistogramSnapshot
	for m, a := range after.Venues[venue].EngineEffort {
		pops = pops.Add(a.Pops.Sub(bEff[m].Pops))
		tv = tv.Add(a.TVChecks.Sub(bEff[m].TVChecks))
	}
	if pops.Count == 0 {
		return
	}
	phr.EngineEffort = &EngineEffortDeltaDoc{
		Searches:     pops.Count,
		MeanPops:     pops.MeanSeconds(),
		P95Pops:      quantileCount(pops, 0.95),
		MeanTVChecks: tv.MeanSeconds(),
		P95TVChecks:  quantileCount(tv, 0.95),
	}
}

// hotPairsCap bounds the per-phase hot-pair listing: the heaviest
// movers tell the skew story, the long tail just bloats the artifact.
const hotPairsCap = 5

// hotPairDelta derives a phase's top OD-pair traffic movement from
// before/after /cachez scrapes: per-pair query deltas summed over the
// venue's method pools, heaviest first, capped at hotPairsCap rows.
// totalQueries (the phase's server-side query delta) scales Share.
// Pairs evicted from the space-saving table mid-phase under-count;
// pairs admitted by takeover inherit the evictee's weight — the table
// bounds the error (HotPairDoc.ErrBound) but the delta stays an
// estimate.
func hotPairDelta(before, after map[string]server.CacheMethodDoc, totalQueries int64) []HotPairDeltaDoc {
	if after == nil {
		return nil
	}
	type pk struct{ src, tgt string }
	base := make(map[pk]int64)
	for _, doc := range before {
		for _, p := range doc.TopPairs {
			base[pk{p.Src, p.Tgt}] += p.Queries
		}
	}
	moved := make(map[pk]int64)
	for _, doc := range after {
		for _, p := range doc.TopPairs {
			moved[pk{p.Src, p.Tgt}] += p.Queries
		}
	}
	var rows []HotPairDeltaDoc
	for k, q := range moved {
		d := q - base[k]
		if d <= 0 {
			continue
		}
		row := HotPairDeltaDoc{Src: k.src, Tgt: k.tgt, Queries: d}
		if totalQueries > 0 {
			row.Share = float64(d) / float64(totalQueries)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Queries != rows[j].Queries {
			return rows[i].Queries > rows[j].Queries
		}
		if rows[i].Src != rows[j].Src {
			return rows[i].Src < rows[j].Src
		}
		return rows[i].Tgt < rows[j].Tgt
	})
	if len(rows) > hotPairsCap {
		rows = rows[:hotPairsCap]
	}
	return rows
}

// HotPairsTable renders the per-phase hot-pair movement as an aligned
// text table (printed by itspqreplay -v). Empty when no phase carries
// hot pairs (e.g. against a daemon predating /cachez).
func (r *Report) HotPairsTable() string {
	var sb strings.Builder
	header := false
	for i := range r.Phases {
		ph := &r.Phases[i]
		for _, hp := range ph.HotPairs {
			if !header {
				fmt.Fprintf(&sb, "%-14s %-24s %-24s %8s %7s\n", "phase", "src", "tgt", "queries", "share")
				header = true
			}
			fmt.Fprintf(&sb, "%-14s %-24s %-24s %8d %6.1f%%\n", ph.Name, hp.Src, hp.Tgt, hp.Queries, hp.Share*100)
		}
	}
	return sb.String()
}

// EffortTable renders the per-phase engine-effort movement as an
// aligned text table (printed by itspqreplay -v), with the phase's
// family builds and engine runs per query (builds included) beside
// the search effort. Empty when no phase carries an effort delta.
func (r *Report) EffortTable() string {
	var sb strings.Builder
	header := false
	for i := range r.Phases {
		ph := &r.Phases[i]
		e := ph.EngineEffort
		if e == nil {
			continue
		}
		if !header {
			fmt.Fprintf(&sb, "%-14s %9s %7s %10s %10s %10s %13s %13s\n",
				"phase", "searches", "builds", "runs/query", "mean_pops", "p95_pops", "mean_tvcheck", "p95_tvcheck")
			header = true
		}
		fmt.Fprintf(&sb, "%-14s %9d %7d %10.3f %10.1f %10.1f %13.1f %13.1f\n",
			ph.Name, e.Searches, ph.StatsDelta.FamiliesBuilt, ph.EngineRunsPerQuery,
			e.MeanPops, e.P95Pops, e.MeanTVChecks, e.P95TVChecks)
	}
	return sb.String()
}

// StageTable renders the per-phase stage latency breakdown as an
// aligned text table (what itspqreplay -v prints), with one request-
// histogram summary line per phase. Empty when the daemon exposed no
// stage histograms.
func (r *Report) StageTable() string {
	present := false
	for i := range r.Phases {
		if len(r.Phases[i].Stages) > 0 {
			present = true
			break
		}
	}
	if !present {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-8s %8s %10s %10s %12s\n",
		"phase", "stage", "count", "mean_ms", "p95_ms", "total_ms")
	for i := range r.Phases {
		ph := &r.Phases[i]
		for _, sd := range ph.Stages {
			fmt.Fprintf(&sb, "%-14s %-8s %8d %10.3f %10.3f %12.1f\n",
				ph.Name, sd.Stage, sd.Count, sd.MeanMs, sd.P95Ms, sd.TotalMs)
		}
		if h := ph.HistLatency; h != nil {
			fmt.Fprintf(&sb, "%-14s %-8s %8d  server-side request p50<=%.3fms p95<=%.3fms p99<=%.3fms\n",
				ph.Name, "request", h.Count, h.P50Ms, h.P95Ms, h.P99Ms)
		}
	}
	return sb.String()
}

// ReasonsTable renders the per-phase decision-provenance movement —
// the miss and solo reason tallies from the /statsz deltas — as an
// aligned text table (printed by itspqreplay -v after the stage
// table). Zero rows are skipped; empty when no phase recorded any
// reason (e.g. against a daemon predating provenance).
func (r *Report) ReasonsTable() string {
	var sb strings.Builder
	header := false
	for i := range r.Phases {
		ph := &r.Phases[i]
		for _, rc := range ph.StatsDelta.Reasons.Counts() {
			if rc.Count == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(&sb, "%-14s %-5s %-22s %8s\n", "phase", "kind", "reason", "count")
				header = true
			}
			kind := "solo"
			if rc.Reason.IsMiss() {
				kind = "miss"
			}
			fmt.Fprintf(&sb, "%-14s %-5s %-22s %8d\n", ph.Name, kind, rc.Reason.String(), rc.Count)
		}
	}
	return sb.String()
}

// phase returns the named phase report, or nil.
func (r *Report) phase(name string) *PhaseReport {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// metricValue reads one metric from a phase report.
func (ph *PhaseReport) metricValue(metric string) float64 {
	switch metric {
	case MetricQueries:
		return float64(ph.Queries)
	case MetricErrors:
		return float64(ph.Errors)
	case MetricTimeouts:
		return float64(ph.Timeouts)
	case MetricMixedAnswers:
		return float64(ph.MixedAnswers)
	case MetricSearchesPerQuery:
		return ph.SearchesPerQuery
	case MetricEngineRunsPerQuery:
		return ph.EngineRunsPerQuery
	case MetricP50Ms:
		return ph.LatencyMs.P50
	case MetricP95Ms:
		return ph.LatencyMs.P95
	case MetricP99Ms:
		return ph.LatencyMs.P99
	case MetricMaxMs:
		return ph.LatencyMs.Max
	case MetricCoalesced:
		return float64(ph.Provenance.Coalesced)
	case MetricExactHits:
		return float64(ph.Provenance.Exact)
	case MetricWindowHits:
		return float64(ph.Provenance.Window)
	case MetricSkeletonHits:
		return float64(ph.Provenance.Skeleton)
	}
	return math.NaN()
}

// overallMetric aggregates a metric across phases. Counts sum;
// the per-query rates re-derive from the summed deltas; percentile
// metrics take the worst phase (a regression anywhere must trip a
// bound, and per-phase latency populations are not mergeable from
// percentiles alone).
func (r *Report) overallMetric(metric string) float64 {
	switch metric {
	case MetricSearchesPerQuery, MetricEngineRunsPerQuery:
		var runs, queries int64
		for i := range r.Phases {
			d := &r.Phases[i].StatsDelta
			runs += d.EngineSearches
			if metric == MetricEngineRunsPerQuery {
				runs += d.FamiliesBuilt
			}
			queries += d.Queries
		}
		if queries == 0 {
			return 0
		}
		return float64(runs) / float64(queries)
	case MetricP50Ms, MetricP95Ms, MetricP99Ms, MetricMaxMs:
		worst := 0.0
		for i := range r.Phases {
			if v := r.Phases[i].metricValue(metric); v > worst {
				worst = v
			}
		}
		return worst
	default:
		sum := 0.0
		for i := range r.Phases {
			sum += r.Phases[i].metricValue(metric)
		}
		return sum
	}
}

// evaluate fills Verdicts and Pass from the scenario's checks.
func (r *Report) evaluate(checks []Check) {
	r.Pass = true
	r.Verdicts = make([]Verdict, 0, len(checks))
	for _, c := range checks {
		var actual float64
		if c.Phase == "" {
			actual = r.overallMetric(c.Metric)
		} else if ph := r.phase(c.Phase); ph != nil {
			actual = ph.metricValue(c.Metric)
		} else {
			actual = math.NaN()
		}
		v := Verdict{Phase: c.Phase, Metric: c.Metric, Op: c.Op, Value: c.Value,
			Actual: actual, Pass: !math.IsNaN(actual) && c.compare(actual)}
		if !v.Pass {
			r.Pass = false
		}
		r.Verdicts = append(r.Verdicts, v)
	}
}

// percentile returns the nearest-rank percentile of an ascending
// sorted sample (p in (0, 100]); 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencyDoc summarises a latency sample (milliseconds, unsorted).
func latencyDoc(ms []float64) LatencyDoc {
	if len(ms) == 0 {
		return LatencyDoc{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	return LatencyDoc{
		P50: percentile(sorted, 50),
		P95: percentile(sorted, 95),
		P99: percentile(sorted, 99),
		Max: sorted[len(sorted)-1],
	}
}
