package replay

import (
	"net/http/httptest"
	"testing"

	"indoorpath/internal/server"
	"indoorpath/internal/service"
)

// newSoakServer boots an in-process daemon serving the hospital preset
// with the full serving stack on — window cache, skeleton-family
// store, shared-execution batch planner and request coalescing — the
// configuration the scenarios are written to exercise (and what the CI
// replay-smoke job boots as a real process).
func newSoakServer(t testing.TB) *httptest.Server {
	t.Helper()
	reg := server.NewRegistry(service.Options{WindowCache: true, SkeletonCache: true, SharedBatch: true})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{Coalesce: true}))
	t.Cleanup(ts.Close)
	return ts
}

func runBuiltin(t *testing.T, name string, quick bool) *Report {
	t.Helper()
	sc, err := Builtin(name, quick)
	if err != nil {
		t.Fatal(err)
	}
	ts := newSoakServer(t)
	rep, err := Run(sc, Options{BaseURL: ts.URL, Quick: quick, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFlipStormSoak replays the flip-storm scenario — schedule updates
// racing waves of syn/asyn/static traffic — against an in-process
// server with coalescing, window cache and shared execution all
// enabled, and asserts the PR 2/5 atomicity invariants from the
// OUTSIDE: every answer byte-matches a sequential engine under some
// schedule state the daemon could legally have been in, never a mix of
// pre- and post-flip state. The short variant replays the quick
// stream; the full run replays the 10x day.
func TestFlipStormSoak(t *testing.T) {
	rep := runBuiltin(t, ScenarioFlipStorm, testing.Short())

	if len(rep.Phases) != 1 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	ph := &rep.Phases[0]
	if ph.Errors != 0 {
		t.Fatalf("errors = %d, samples %v", ph.Errors, ph.ErrorSamples)
	}
	if ph.Timeouts != 0 {
		t.Fatalf("timeouts = %d", ph.Timeouts)
	}
	if ph.MixedAnswers != 0 {
		t.Fatalf("MIXED-SCHEDULE ANSWERS: %d\n%v", ph.MixedAnswers, ph.MixedSamples)
	}
	if ph.Flips != 3 || ph.StatsDelta.Epoch != 3 {
		t.Fatalf("flips = %d, epoch delta = %d, want 3/3", ph.Flips, ph.StatsDelta.Epoch)
	}
	// Every query is counted by exactly one method pool, flips add none.
	if want := int64(ph.Queries); ph.StatsDelta.Queries != want {
		t.Fatalf("statsz queries delta = %d, want %d", ph.StatsDelta.Queries, want)
	}
	// The hot set is 6 templates over (up to) 4 schedule states; with
	// exact caching on, engine searches stay around states * templates
	// regardless of how many queries replayed (window cache and
	// coalescing only push the number lower). 2x slack tolerates
	// concurrent same-template misses racing a cache fill.
	if maxSearches := int64(2 * 4 * 6); ph.StatsDelta.EngineSearches > maxSearches {
		t.Fatalf("engine searches = %d, want <= %d (~6 templates x 4 states)", ph.StatsDelta.EngineSearches, maxSearches)
	}
	if !rep.Pass {
		t.Fatalf("verdicts failed:\n%s", rep.Summary())
	}
	if rep.Process == nil || rep.Process.StartTime == "" {
		t.Fatalf("report has no process block: %+v", rep.Process)
	}
}

// TestSteadyReplay smoke-runs the steady scenario end to end and spot
// checks the report plumbing (latency populated, provenance counted,
// fingerprint recorded, verdicts evaluated).
func TestSteadyReplay(t *testing.T) {
	rep := runBuiltin(t, ScenarioSteady, true)
	if !rep.Pass {
		t.Fatalf("verdicts failed:\n%s", rep.Summary())
	}
	if rep.Fingerprint != goldenFingerprints[ScenarioSteady] {
		t.Fatalf("report fingerprint %s does not match the golden stream", rep.Fingerprint)
	}
	ph := &rep.Phases[0]
	if ph.LatencyMs.P50 <= 0 || ph.LatencyMs.Max < ph.LatencyMs.P99 || ph.LatencyMs.P99 < ph.LatencyMs.P50 {
		t.Fatalf("latency doc not ordered: %+v", ph.LatencyMs)
	}
	if ph.Found == 0 {
		t.Fatal("no found answers")
	}
	// 120 queries over 16 templates: the exact cache must absorb most.
	if got := ph.Provenance.Exact + ph.Provenance.Window; got == 0 {
		t.Fatalf("no cache hits across a templated phase: %+v", ph.Provenance)
	}
	if len(rep.Verdicts) != 3 {
		t.Fatalf("verdicts = %+v", rep.Verdicts)
	}

	// The stage breakdown and the server-side latency view must be
	// populated from the daemon's histograms, and the client-vs-server
	// quantile cross-check must not warn against an in-process server
	// (both clocks are the same machine).
	stages := map[string]StageDeltaDoc{}
	for _, sd := range ph.Stages {
		stages[sd.Stage] = sd
	}
	for _, want := range []string{"decode", "probe", "engine", "render"} {
		if stages[want].Count == 0 {
			t.Errorf("stage breakdown missing %q: %+v", want, ph.Stages)
		}
	}
	if ph.HistLatency == nil {
		t.Fatal("no server-side latency quantiles in the phase report")
	}
	if got, want := ph.HistLatency.Count, int64(ph.Queries); got != want {
		t.Errorf("server-side request histogram delta count = %d, want %d", got, want)
	}
	if ph.HistLatency.P50Ms <= 0 || ph.HistLatency.P99Ms < ph.HistLatency.P50Ms {
		t.Errorf("server-side quantiles not ordered: %+v", ph.HistLatency)
	}
	if len(ph.Warnings) != 0 {
		t.Errorf("latency cross-check warned in-process: %v", ph.Warnings)
	}
	if rep.StageTable() == "" {
		t.Error("StageTable empty despite stage breakdowns")
	}

	// The cache-introspection deltas: the phase runs engine searches,
	// so the effort block must be populated and self-consistent, and
	// the /cachez hot-pair delta must cover some of the phase's
	// traffic with shares that cannot exceed the whole.
	if ph.EngineEffort == nil {
		t.Fatal("no engine-effort delta in the phase report")
	}
	if ph.EngineEffort.Searches != ph.StatsDelta.EngineSearches {
		t.Errorf("effort searches = %d, stats delta = %d", ph.EngineEffort.Searches, ph.StatsDelta.EngineSearches)
	}
	if ph.EngineEffort.MeanPops <= 0 || ph.EngineEffort.P95Pops < ph.EngineEffort.MeanPops {
		t.Errorf("effort pops not ordered: %+v", ph.EngineEffort)
	}
	if len(ph.HotPairs) == 0 {
		t.Fatal("no hot-pair delta in the phase report")
	}
	var share float64
	for i, hp := range ph.HotPairs {
		if hp.Queries <= 0 || hp.Src == "" || hp.Tgt == "" {
			t.Errorf("hot pair %d malformed: %+v", i, hp)
		}
		if i > 0 && hp.Queries > ph.HotPairs[i-1].Queries {
			t.Errorf("hot pairs not sorted: %+v", ph.HotPairs)
		}
		share += hp.Share
	}
	if share <= 0 || share > 1.0001 {
		t.Errorf("hot-pair shares sum to %v, want (0, 1]", share)
	}
	if rep.HotPairsTable() == "" || rep.EffortTable() == "" {
		t.Error("hot-pair / effort tables empty despite populated blocks")
	}
}

// TestFlashCrowdSharing pins the headline sharing verdict: a flash
// crowd (200 identical-ish queries over 8 templates in waves of 16)
// must cost well under 0.25 engine searches per query with the serving
// stack on.
func TestFlashCrowdSharing(t *testing.T) {
	rep := runBuiltin(t, ScenarioFlashCrowd, true)
	if !rep.Pass {
		t.Fatalf("verdicts failed:\n%s", rep.Summary())
	}
	ph := &rep.Phases[0]
	if ph.SearchesPerQuery >= 0.25 {
		t.Fatalf("searches/query = %v, want < 0.25", ph.SearchesPerQuery)
	}
}

// TestNeighborhoodSoak replays the jittered-endpoint scenario — hot
// partition pairs, but no two queries sharing an exact point — against
// the full serving stack and pins the point-free headline: the crowd
// is answered by skeleton composition ("hit":"skeleton" on the wire,
// matching the server-side SkeletonHits movement) at no more than half
// an engine search per query, a load today's point-keyed caches score
// ~1.0 on.
func TestNeighborhoodSoak(t *testing.T) {
	rep := runBuiltin(t, ScenarioNeighborhood, true)
	if !rep.Pass {
		t.Fatalf("verdicts failed:\n%s", rep.Summary())
	}
	ph := rep.phase("neighborhood")
	if ph == nil {
		t.Fatalf("no neighborhood phase in %+v", rep.Phases)
	}
	if ph.Errors != 0 || ph.Timeouts != 0 {
		t.Fatalf("errors = %d timeouts = %d, samples %v", ph.Errors, ph.Timeouts, ph.ErrorSamples)
	}
	// The wire provenance and the /statsz delta must agree: every
	// answer flagged "skeleton" moved the pool counter.
	if ph.Provenance.Skeleton == 0 {
		t.Fatalf("no skeleton answers across the jittered phase: %+v", ph.Provenance)
	}
	if int64(ph.Provenance.Skeleton) != ph.StatsDelta.SkeletonHits {
		t.Fatalf("wire skeleton answers %d != statsz delta %d",
			ph.Provenance.Skeleton, ph.StatsDelta.SkeletonHits)
	}
	// Exact points never repeat (Templates is 0), so the point-keyed
	// caches cannot be what absorbed the load.
	if ph.SearchesPerQuery > 0.5 {
		t.Fatalf("searches/query = %v, want <= 0.5", ph.SearchesPerQuery)
	}
	// The phase's hit classes partition its server-side queries.
	d := &ph.StatsDelta
	if d.ExactHits+d.WindowHits+d.SkeletonHits+d.Deduped > d.Queries {
		t.Fatalf("phase stats delta does not partition: %+v", d)
	}
}

// TestRunRejectsMissingVenue: a daemon that does not serve the
// scenario's venue must fail fast, before any load is generated.
func TestRunRejectsMissingVenue(t *testing.T) {
	reg := server.NewRegistry(service.Options{})
	if _, err := reg.AddPresets("office"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{}))
	t.Cleanup(ts.Close)
	sc, err := Builtin(ScenarioSteady, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc, Options{BaseURL: ts.URL}); err == nil {
		t.Fatal("Run accepted a daemon without the scenario's venue")
	}
}

// TestReplayCountsFamilyBuilds: the per-phase engine_runs_per_query
// adds the phase's skeleton family builds (from the /statsz
// families_built delta) to its engine searches, and the overall metric
// re-derives from the summed deltas. The neighborhood scout repeats
// each warmed pair, so it must build at least one family.
func TestReplayCountsFamilyBuilds(t *testing.T) {
	rep := runBuiltin(t, ScenarioNeighborhood, true)
	scout := rep.phase("scout")
	if scout == nil || scout.StatsDelta.FamiliesBuilt == 0 {
		t.Fatalf("scout phase built no family: %+v", scout)
	}
	var runs, queries int64
	for i := range rep.Phases {
		ph := &rep.Phases[i]
		d := ph.StatsDelta
		if d.Queries == 0 {
			continue
		}
		want := float64(d.EngineSearches+d.FamiliesBuilt) / float64(d.Queries)
		if ph.EngineRunsPerQuery != want || ph.EngineRunsPerQuery < ph.SearchesPerQuery {
			t.Fatalf("%s: engine_runs_per_query %v, want %v (searches_per_query %v)",
				ph.Name, ph.EngineRunsPerQuery, want, ph.SearchesPerQuery)
		}
		runs += d.EngineSearches + d.FamiliesBuilt
		queries += d.Queries
	}
	if got, want := rep.overallMetric(MetricEngineRunsPerQuery), float64(runs)/float64(queries); got != want {
		t.Fatalf("overall engine_runs_per_query = %v, want %v", got, want)
	}
}
