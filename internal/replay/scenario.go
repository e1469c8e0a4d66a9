// Package replay is the workload replay harness: a deterministic,
// seeded load generator plus an HTTP driver that replays a synthetic
// "day in the venue" against a live query daemon (internal/server over
// httptest, or a real itspqd reached by URL) and records what the
// serving stack actually did — per-phase latency percentiles, engine
// searches per query, cache/window/coalesce provenance counts scraped
// from /statsz, error and timeout tallies, and schedule-flip
// consistency checks — as a structured BENCH_replay.json artifact with
// embedded pass/fail verdicts.
//
// A Scenario is a declarative phase list: each Phase states how many
// queries to send, with what concurrency and arrival shape (closed
// loop or synchronised waves), which OD partition pairs to skew
// towards, the departure-time window, the method mix, an optional hot
// template set (a finite set of repeated query instances — the shape
// flash crowds take), and optional mid-phase schedule flips (PUT
// /schedules racing the traffic). The query stream is a pure function
// of (scenario, seed): the driver's wall-clock measurements vary run
// to run, but the queries themselves are byte-identical across runs
// and across PRs, so two BENCH_replay.json artifacts are always
// measuring the same replayed day.
//
// Flip phases are verified from the outside: every response must
// byte-match the answer a sequential core.Engine would give under one
// of the schedule states the daemon could legally have been in when it
// served the query (the states acknowledged before the query was sent,
// up to the states initiated before its response arrived). An answer
// matching no such state is a "mixed" answer — half pre-flip, half
// post-flip — which the serving invariants of PRs 2–5 promise can
// never happen; the flip-storm verdict requires zero of them.
package replay

import (
	"fmt"
	"sort"
	"strings"

	"indoorpath/internal/temporal"
)

// Scenario is one declarative replay workload: a named phase list over
// one served venue, plus the self-check verdicts the resulting report
// is judged by.
type Scenario struct {
	// Name identifies the scenario in reports and CLI flags.
	Name string `json:"name"`
	// Venue is the served venue ID, which must be one of the built-in
	// presets (the generator rebuilds the preset model locally to
	// sample OD points and compute flip oracles, so the daemon under
	// test must serve the same preset under the same ID — exactly what
	// `itspqd -preset` does).
	Venue string `json:"venue"`
	// Seed drives every random choice of the query stream. Same seed +
	// same scenario = byte-identical stream.
	Seed int64 `json:"seed"`
	// Phases run in order.
	Phases []Phase `json:"phases"`
	// Checks are the self-check verdicts evaluated over the finished
	// report.
	Checks []Check `json:"checks"`
}

// Phase is one segment of the replayed day.
type Phase struct {
	// Name identifies the phase in reports and checks.
	Name string `json:"name"`
	// Count is the number of queries this phase sends.
	Count int `json:"count"`
	// Concurrency is the number of parallel clients; <= 0 means 1.
	Concurrency int `json:"concurrency,omitempty"`
	// Waves synchronises the clients: all Concurrency queries of a
	// wave are fired together and the next wave starts only when the
	// wave has drained. This is the arrival shape that exercises the
	// coalescer (concurrent solo arrivals inside one hold window);
	// false means a closed loop where each client sends back to back.
	Waves bool `json:"waves,omitempty"`
	// Mix weights the engine methods queries are assigned. The zero
	// value means all-asyn.
	Mix MethodMix `json:"mix"`
	// OD skews endpoint sampling over partition pairs: each query
	// picks a pair by weight, then uniform interior points in the two
	// partition rectangles. Partitions are referenced by name.
	OD []ODWeight `json:"od"`
	// WindowOpen/WindowClose bound the departure times sampled
	// (uniform, whole seconds, half-open [open, close)).
	WindowOpen  temporal.TimeOfDay `json:"window_open"`
	WindowClose temporal.TimeOfDay `json:"window_close"`
	// Templates, when positive, first generates this many fixed query
	// instances and then samples every query from that hot set — the
	// shape of a flash crowd (everyone asks the same few questions),
	// and the shape that makes flip oracles tractable. 0 means every
	// query is a fresh random instance.
	Templates int `json:"templates,omitempty"`
	// Speed is the walking speed in m/s for every query; 0 means the
	// paper's 5 km/h.
	Speed float64 `json:"speed,omitempty"`
	// Flips are mid-phase schedule updates racing the traffic. Phases
	// with flips must use Templates so every answer can be verified
	// against per-state engine oracles.
	Flips []Flip `json:"flips,omitempty"`
}

// MethodMix weights the pooled engine methods. Weights are relative;
// the zero value means all-asyn. The waiting method is deliberately
// absent: it has no pool and no comparable serving counters.
type MethodMix struct {
	Syn    float64 `json:"syn,omitempty"`
	Asyn   float64 `json:"asyn,omitempty"`
	Static float64 `json:"static,omitempty"`
}

// normalised returns the mix with an all-asyn fallback.
func (m MethodMix) normalised() MethodMix {
	if m.Syn <= 0 && m.Asyn <= 0 && m.Static <= 0 {
		return MethodMix{Asyn: 1}
	}
	if m.Syn < 0 {
		m.Syn = 0
	}
	if m.Asyn < 0 {
		m.Asyn = 0
	}
	if m.Static < 0 {
		m.Static = 0
	}
	return m
}

// ODWeight is one weighted OD partition pair.
type ODWeight struct {
	Src    string  `json:"src"`
	Tgt    string  `json:"tgt"`
	Weight float64 `json:"weight"`
}

// Flip is one mid-phase schedule update: after the given fraction of
// the phase's queries has been dispatched, the driver PUTs the update
// map (door name -> ATI strings; nil = always open, empty = always
// closed — the wire convention) while traffic keeps flowing.
type Flip struct {
	// After is the fraction of the phase's query stream dispatched
	// before the flip fires, in (0, 1).
	After float64 `json:"after"`
	// Updates is the schedule update, by door name.
	Updates map[string][]string `json:"updates"`
}

// Check is one self-check verdict: compare a report metric against a
// static bound. Phase names the phase the metric is read from; empty
// means the whole run.
type Check struct {
	Phase  string  `json:"phase,omitempty"`
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Value  float64 `json:"value"`
}

// Metric names Check understands (per phase and overall).
const (
	MetricQueries          = "queries"            // queries sent
	MetricErrors           = "errors"             // non-2xx answers (504s excluded)
	MetricTimeouts         = "timeouts"           // 504 answers
	MetricMixedAnswers     = "mixed_answers"      // flip answers matching no legal schedule state
	MetricSearchesPerQuery = "searches_per_query" // engine searches / served queries, from /statsz deltas
	MetricP50Ms            = "p50_ms"
	MetricP95Ms            = "p95_ms"
	MetricP99Ms            = "p99_ms"
	MetricMaxMs            = "max_ms"
	MetricCoalesced        = "coalesced"     // answers flagged coalesced
	MetricExactHits        = "exact_hits"    // answers flagged hit=exact
	MetricWindowHits       = "window_hits"   // answers flagged hit=window
	MetricSkeletonHits     = "skeleton_hits" // answers flagged hit=skeleton
	// MetricEngineRunsPerQuery is (engine searches + skeleton family
	// builds) / served queries, from the same /statsz deltas.
	MetricEngineRunsPerQuery = "engine_runs_per_query"
)

// validMetrics is the closed set of metric names.
var validMetrics = map[string]bool{
	MetricQueries: true, MetricErrors: true, MetricTimeouts: true,
	MetricMixedAnswers: true, MetricSearchesPerQuery: true, MetricEngineRunsPerQuery: true,
	MetricP50Ms: true, MetricP95Ms: true, MetricP99Ms: true, MetricMaxMs: true,
	MetricCoalesced: true, MetricExactHits: true, MetricWindowHits: true,
	MetricSkeletonHits: true,
}

// compare applies the check's operator.
func (c Check) compare(actual float64) bool {
	switch c.Op {
	case "<":
		return actual < c.Value
	case "<=":
		return actual <= c.Value
	case ">":
		return actual > c.Value
	case ">=":
		return actual >= c.Value
	case "==":
		return actual == c.Value
	}
	return false
}

// String renders the check, e.g. `flash-crowd searches_per_query < 0.25`.
func (c Check) String() string {
	scope := c.Phase
	if scope == "" {
		scope = "overall"
	}
	return fmt.Sprintf("%s %s %s %g", scope, c.Metric, c.Op, c.Value)
}

// Validate checks scenario well-formedness: non-empty phases with
// positive counts, known check metrics/operators bound to existing
// phases, flip fractions in (0,1), and the flip-phases-are-templated
// rule (answer verification needs a finite instance set).
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("replay: scenario has no name")
	}
	if sc.Venue == "" {
		return fmt.Errorf("replay: scenario %q names no venue", sc.Name)
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("replay: scenario %q has no phases", sc.Name)
	}
	names := make(map[string]bool, len(sc.Phases))
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		if ph.Name == "" {
			return fmt.Errorf("replay: scenario %q: phase %d has no name", sc.Name, i)
		}
		if names[ph.Name] {
			return fmt.Errorf("replay: scenario %q: duplicate phase %q", sc.Name, ph.Name)
		}
		names[ph.Name] = true
		if ph.Count <= 0 {
			return fmt.Errorf("replay: phase %q: count must be positive", ph.Name)
		}
		if len(ph.OD) == 0 {
			return fmt.Errorf("replay: phase %q: no OD pairs", ph.Name)
		}
		for _, od := range ph.OD {
			if od.Weight <= 0 {
				return fmt.Errorf("replay: phase %q: OD %s->%s weight must be positive", ph.Name, od.Src, od.Tgt)
			}
		}
		if !ph.WindowOpen.Valid() || !ph.WindowClose.Valid() || ph.WindowOpen >= ph.WindowClose {
			return fmt.Errorf("replay: phase %q: bad departure window [%v, %v)", ph.Name, ph.WindowOpen, ph.WindowClose)
		}
		if ph.Templates < 0 {
			return fmt.Errorf("replay: phase %q: negative template count", ph.Name)
		}
		if len(ph.Flips) > 0 && ph.Templates == 0 {
			return fmt.Errorf("replay: phase %q: flips require a template set (answers are verified against per-state oracles)", ph.Name)
		}
		prev := 0.0
		for _, f := range ph.Flips {
			if f.After <= 0 || f.After >= 1 {
				return fmt.Errorf("replay: phase %q: flip fraction %g outside (0, 1)", ph.Name, f.After)
			}
			if f.After < prev {
				return fmt.Errorf("replay: phase %q: flips out of order", ph.Name)
			}
			prev = f.After
			if len(f.Updates) == 0 {
				return fmt.Errorf("replay: phase %q: empty flip update", ph.Name)
			}
		}
	}
	for _, c := range sc.Checks {
		if !validMetrics[c.Metric] {
			return fmt.Errorf("replay: check %s: unknown metric %q", c, c.Metric)
		}
		switch c.Op {
		case "<", "<=", ">", ">=", "==":
		default:
			return fmt.Errorf("replay: check %s: unknown operator %q", c, c.Op)
		}
		if c.Phase != "" && !names[c.Phase] {
			return fmt.Errorf("replay: check %s: unknown phase %q", c, c.Phase)
		}
	}
	return nil
}

// Built-in scenario names.
const (
	ScenarioSteady       = "steady"
	ScenarioRushHour     = "rush-hour"
	ScenarioFlashCrowd   = "flash-crowd"
	ScenarioFlipStorm    = "flip-storm"
	ScenarioNeighborhood = "neighborhood"
)

// Scenarios lists the built-in scenario names, sorted.
func Scenarios() []string {
	out := []string{ScenarioSteady, ScenarioRushHour, ScenarioFlashCrowd, ScenarioFlipStorm, ScenarioNeighborhood}
	sort.Strings(out)
	return out
}

// hospitalVisiting / hospitalPharmacy are the hospital preset's
// original door schedules, restated for restore flips so a replayed
// day against a persistent daemon ends where it began.
var (
	hospitalVisiting = []string{"10:00-12:00", "14:00-18:00"}
	hospitalPharmacy = []string{"8:00-20:00"}
)

// Builtin returns a built-in scenario by name. quick shrinks the
// per-phase counts 10x for CI smoke runs and tests; the stream stays
// deterministic per (name, quick, seed). The returned scenario is a
// fresh copy the caller may tweak (Seed in particular).
func Builtin(name string, quick bool) (*Scenario, error) {
	count := func(nQuick int) int {
		if quick {
			return nQuick
		}
		return nQuick * 10
	}
	var sc *Scenario
	switch name {
	case ScenarioSteady:
		sc = &Scenario{
			Name:  ScenarioSteady,
			Venue: "hospital",
			Seed:  1,
			Phases: []Phase{{
				Name:        "steady",
				Count:       count(120),
				Concurrency: 4,
				Mix:         MethodMix{Syn: 1, Asyn: 2, Static: 1},
				OD: []ODWeight{
					{Src: "lobby", Tgt: "pharmacy", Weight: 2},
					{Src: "emergency", Tgt: "ward-2", Weight: 2},
					{Src: "corridor", Tgt: "ward-5", Weight: 1},
					{Src: "pharmacy", Tgt: "emergency", Weight: 1},
				},
				WindowOpen:  temporal.MustParse("10:30"),
				WindowClose: temporal.MustParse("11:30"),
				Templates:   16,
			}},
			Checks: []Check{
				{Metric: MetricErrors, Op: "==", Value: 0},
				{Metric: MetricTimeouts, Op: "==", Value: 0},
				{Metric: MetricP99Ms, Op: "<", Value: 1500},
			},
		}
	case ScenarioRushHour:
		// The flagship "day in the venue": a dawn trickle, the
		// rush-hour OD-skewed wave (fresh random endpoints — nothing
		// shares an exact point, so only the skeleton store's
		// point-free composition can absorb it), a flash crowd on one
		// hot OD pair, a flip storm racing schedule updates against
		// traffic, and an afternoon taper.
		sc = &Scenario{
			Name:  ScenarioRushHour,
			Venue: "hospital",
			Seed:  1,
			Phases: []Phase{
				{
					Name:        "dawn",
					Count:       count(40),
					Concurrency: 2,
					Mix:         MethodMix{Asyn: 3, Static: 1},
					OD: []ODWeight{
						{Src: "lobby", Tgt: "emergency", Weight: 2},
						{Src: "emergency", Tgt: "pharmacy", Weight: 1},
					},
					WindowOpen:  temporal.MustParse("8:30"),
					WindowClose: temporal.MustParse("9:30"),
				},
				{
					Name:        "rush",
					Count:       count(200),
					Concurrency: 8,
					Waves:       true,
					Mix:         MethodMix{Syn: 1, Asyn: 2, Static: 1},
					OD: []ODWeight{
						{Src: "lobby", Tgt: "ward-1", Weight: 5},
						{Src: "lobby", Tgt: "ward-2", Weight: 3},
						{Src: "emergency", Tgt: "pharmacy", Weight: 2},
						{Src: "corridor", Tgt: "ward-4", Weight: 1},
						{Src: "pharmacy", Tgt: "ward-6", Weight: 1},
					},
					WindowOpen:  temporal.MustParse("10:15"),
					WindowClose: temporal.MustParse("11:45"),
				},
				{
					Name:        "flash-crowd",
					Count:       count(200),
					Concurrency: 16,
					Waves:       true,
					Mix:         MethodMix{Asyn: 1},
					OD: []ODWeight{
						{Src: "emergency", Tgt: "ward-1", Weight: 1},
					},
					WindowOpen:  temporal.MustParse("11:00"),
					WindowClose: temporal.MustParse("11:10"),
					Templates:   8,
				},
				{
					Name:        "flip-storm",
					Count:       count(120),
					Concurrency: 8,
					Waves:       true,
					Mix:         MethodMix{Syn: 1, Asyn: 1, Static: 1},
					OD: []ODWeight{
						{Src: "emergency", Tgt: "ward-1", Weight: 2},
						{Src: "lobby", Tgt: "pharmacy", Weight: 1},
					},
					WindowOpen:  temporal.MustParse("11:00"),
					WindowClose: temporal.MustParse("11:30"),
					Templates:   6,
					Flips: []Flip{
						{After: 0.25, Updates: map[string][]string{"ward-1-door": {}}},
						{After: 0.50, Updates: map[string][]string{"ward-1-door": nil, "pharmacy-corridor": {}}},
						{After: 0.75, Updates: map[string][]string{"ward-1-door": hospitalVisiting, "pharmacy-corridor": hospitalPharmacy}},
					},
				},
				{
					Name:        "taper",
					Count:       count(40),
					Concurrency: 2,
					Mix:         MethodMix{Asyn: 2, Syn: 1},
					OD: []ODWeight{
						{Src: "corridor", Tgt: "ward-3", Weight: 1},
						{Src: "lobby", Tgt: "pharmacy", Weight: 1},
					},
					WindowOpen:  temporal.MustParse("14:30"),
					WindowClose: temporal.MustParse("15:30"),
					Templates:   12,
				},
			},
			Checks: []Check{
				{Metric: MetricErrors, Op: "==", Value: 0},
				{Metric: MetricTimeouts, Op: "==", Value: 0},
				{Metric: MetricMixedAnswers, Op: "==", Value: 0},
				// The rush wave draws fresh random endpoints, so the
				// point-keyed caches score ~0 on it; with the skeleton
				// store on it must compose point-free answers and stay
				// at or under half an engine search per query.
				{Phase: "rush", Metric: MetricSkeletonHits, Op: ">", Value: 0},
				{Phase: "rush", Metric: MetricSearchesPerQuery, Op: "<=", Value: 0.5},
				// The same half-run bound with skeleton family builds
				// counted as engine runs: a build only pays off when its
				// pair repeats, so the builds must stay amortised too.
				{Phase: "rush", Metric: MetricEngineRunsPerQuery, Op: "<=", Value: 0.5},
				{Phase: "flash-crowd", Metric: MetricSearchesPerQuery, Op: "<", Value: 0.25},
				{Phase: "flip-storm", Metric: MetricMixedAnswers, Op: "==", Value: 0},
				// Generous static latency bound: the regression gate for
				// CI, far above anything a healthy run produces.
				{Metric: MetricP99Ms, Op: "<", Value: 1500},
			},
		}
	case ScenarioFlashCrowd:
		sc = &Scenario{
			Name:  ScenarioFlashCrowd,
			Venue: "hospital",
			Seed:  1,
			Phases: []Phase{{
				Name:        "flash-crowd",
				Count:       count(200),
				Concurrency: 16,
				Waves:       true,
				Mix:         MethodMix{Asyn: 1},
				OD: []ODWeight{
					{Src: "emergency", Tgt: "ward-1", Weight: 1},
				},
				WindowOpen:  temporal.MustParse("11:00"),
				WindowClose: temporal.MustParse("11:10"),
				Templates:   8,
			}},
			Checks: []Check{
				{Metric: MetricErrors, Op: "==", Value: 0},
				{Metric: MetricTimeouts, Op: "==", Value: 0},
				{Phase: "flash-crowd", Metric: MetricSearchesPerQuery, Op: "<", Value: 0.25},
			},
		}
	case ScenarioFlipStorm:
		sc = &Scenario{
			Name:  ScenarioFlipStorm,
			Venue: "hospital",
			Seed:  1,
			Phases: []Phase{{
				Name:        "flip-storm",
				Count:       count(120),
				Concurrency: 8,
				Waves:       true,
				Mix:         MethodMix{Syn: 1, Asyn: 1, Static: 1},
				OD: []ODWeight{
					{Src: "emergency", Tgt: "ward-1", Weight: 2},
					{Src: "lobby", Tgt: "pharmacy", Weight: 1},
				},
				WindowOpen:  temporal.MustParse("11:00"),
				WindowClose: temporal.MustParse("11:30"),
				Templates:   6,
				Flips: []Flip{
					{After: 0.25, Updates: map[string][]string{"ward-1-door": {}}},
					{After: 0.50, Updates: map[string][]string{"ward-1-door": nil, "pharmacy-corridor": {}}},
					{After: 0.75, Updates: map[string][]string{"ward-1-door": hospitalVisiting, "pharmacy-corridor": hospitalPharmacy}},
				},
			}},
			Checks: []Check{
				{Metric: MetricErrors, Op: "==", Value: 0},
				{Metric: MetricTimeouts, Op: "==", Value: 0},
				{Metric: MetricMixedAnswers, Op: "==", Value: 0},
			},
		}
	case ScenarioNeighborhood:
		// The point-free motivator: waves of queries between the same
		// hot partition pairs with every endpoint independently
		// jittered — Templates is deliberately 0, so no two queries
		// repeat an exact point and the exact/window caches score ~0.
		// Only skeleton composition can absorb the wave. A short scout
		// phase sends the first travellers through each pair (their
		// misses build the door-to-door families), then the jittered
		// crowd arrives and must compose: the verdicts require skeleton
		// hits on the wire and at most half an engine search per query.
		// Departures stay inside the 10:00–12:00 visiting-hours
		// checkpoint slot so one family per pair covers the whole day
		// segment being replayed.
		sc = &Scenario{
			Name:  ScenarioNeighborhood,
			Venue: "hospital",
			Seed:  1,
			Phases: []Phase{
				{
					Name:        "scout",
					Count:       count(6),
					Concurrency: 1,
					Mix:         MethodMix{Asyn: 1},
					OD: []ODWeight{
						{Src: "emergency", Tgt: "ward-1", Weight: 3},
						{Src: "lobby", Tgt: "pharmacy", Weight: 2},
					},
					WindowOpen:  temporal.MustParse("10:15"),
					WindowClose: temporal.MustParse("10:30"),
				},
				{
					Name:        "neighborhood",
					Count:       count(200),
					Concurrency: 16,
					Waves:       true,
					Mix:         MethodMix{Asyn: 1},
					OD: []ODWeight{
						{Src: "emergency", Tgt: "ward-1", Weight: 3},
						{Src: "lobby", Tgt: "pharmacy", Weight: 2},
					},
					WindowOpen:  temporal.MustParse("10:30"),
					WindowClose: temporal.MustParse("11:30"),
				},
			},
			Checks: []Check{
				{Metric: MetricErrors, Op: "==", Value: 0},
				{Metric: MetricTimeouts, Op: "==", Value: 0},
				{Phase: "neighborhood", Metric: MetricSkeletonHits, Op: ">", Value: 0},
				{Phase: "neighborhood", Metric: MetricSearchesPerQuery, Op: "<=", Value: 0.5},
			},
		}
	default:
		return nil, fmt.Errorf("replay: unknown scenario %q (want one of %s)", name, strings.Join(Scenarios(), ", "))
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}
