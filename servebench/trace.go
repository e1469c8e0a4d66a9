package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"indoorpath/internal/batchplan"
	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/server"
	"indoorpath/internal/temporal"
)

// Span names: the public function each traced call enters.
const (
	spanHTTP      = "http.Client.Do"
	spanHandler   = "server.Server.ServeHTTP"
	spanCoalesce  = "coalesce.Coalescer.Route"
	spanPoolRoute = "service.Pool.RouteResult"
	spanPoolBatch = "service.Pool.RouteBatchSummary"
	spanRoute     = "core.Engine.Route"
	spanFamily    = "core.Engine.BuildSkeletonFamily"
	spanCompose   = "core.ComposeSkeletonPath"
	spanMany      = "core.Engine.RouteMany"
	spanPlan      = "batchplan.NewOpts"
	spanSwap      = "server.Venue.UpdateSchedules"
	spanGraph     = "itgraph.New"
	spanSnaps     = "itgraph.SnapshotSeries.BuildAll"
)

// coreRepeats is how often the traced run times graph builds and
// swaps, which no workload request triggers on its own.
const coreRepeats = 3

// dropCounter wraps a target so that, inside the timed window, every
// schedule update first reads how many windows and families the swap
// is about to drop: a swap replaces every tier, so those are stored
// entries the end-of-window counters no longer show.
type dropCounter struct {
	target
	base     string
	counting atomic.Bool
	mu       sync.Mutex
	windows  float64
	families float64
}

func (d *dropCounter) update(u map[string][]string) error {
	if d.counting.Load() {
		if c, err := scrape(d.base); err == nil {
			d.mu.Lock()
			d.windows += c["windows"]
			d.families += c["families"]
			d.mu.Unlock()
		}
	}
	return d.target.update(u)
}

// traceRun is the traced run. It sends the same stream and warm-up
// through the stack one layer lower at a time, each pass on a fresh
// stack: loopback HTTP without spans (the overhead reference), loopback
// HTTP with spans and the daemon's counters read at the window's edges,
// Server.ServeHTTP on a recorder, Coalescer.Route, Pool.RouteResult,
// and finally direct core calls for what the pool pass reported. Each
// pass's timed window is a third of the run's.
func traceRun(c *venueCtx, spec workloadSpec, seed int64, cfg runConfig, out io.Writer) (result, int, error) {
	window := max(cfg.window/3, min(cfg.window, 1))
	w, err := buildWorkload(c, spec, seed, cfg.warm, window)
	if err != nil {
		return result{}, 0, err
	}
	describeStream(out, w)
	orc, err := newOracle(c, w, cfg.tieBudget)
	if err != nil {
		return result{}, 0, err
	}
	tr := newTracer()
	var passes []*passResult

	pass := func(listen bool, body func(st *stack) *passResult) (*stack, error) {
		st, err := bootStack(listen, conns)
		if err != nil {
			return nil, err
		}
		passes = append(passes, body(st))
		st.close()
		return st, nil
	}

	// Pass 0: untraced loopback HTTP.
	var p0 *passResult
	if _, err := pass(true, func(st *stack) *passResult {
		p0 = drive(w, &wireTarget{st: st}, cfg.warm, window, nil, "", nil)
		return p0
	}); err != nil {
		return result{}, 0, err
	}

	// Pass 1: traced loopback HTTP with counter reads.
	var p1 *passResult
	var before, after counters
	var scrapeErr error
	var drops *dropCounter
	if _, err := pass(true, func(st *stack) *passResult {
		drops = &dropCounter{target: &wireTarget{st: st}, base: st.base}
		hook := func(open bool) {
			cs, err := scrape(st.base)
			if err != nil && scrapeErr == nil {
				scrapeErr = err
			}
			if open {
				before = cs
			} else {
				after = cs
			}
			drops.counting.Store(open)
		}
		p1 = drive(w, drops, cfg.warm, window, tr, spanHTTP, hook)
		return p1
	}); err != nil {
		return result{}, 0, err
	}
	if scrapeErr != nil {
		return result{}, 0, fmt.Errorf("reading the daemon's counters: %w", scrapeErr)
	}

	// Pass 2: the handler on a recorder.
	if _, err := pass(false, func(st *stack) *passResult {
		return drive(w, &wireTarget{st: st, handler: true}, cfg.warm, window, tr, spanHandler, nil)
	}); err != nil {
		return result{}, 0, err
	}

	// Pass 3: the coalescer. Batch requests bypass it in the server, so
	// the batch workload has no coalescer pass.
	below := spanCoalesce
	if w.OpenLoop {
		if _, err := pass(false, func(st *stack) *passResult {
			return drive(w, newPoolTarget(st, true), cfg.warm, window, tr, spanCoalesce, nil)
		}); err != nil {
			return result{}, 0, err
		}
	} else {
		below = spanPoolBatch
	}

	// Pass 4: the pool, kept for the core pass.
	poolSpan := spanPoolRoute
	if !w.OpenLoop {
		poolSpan = spanPoolBatch
	}
	var p4 *passResult
	st4, err := pass(false, func(st *stack) *passResult {
		p4 = drive(w, newPoolTarget(st, false), cfg.warm, window, tr, poolSpan, nil)
		return p4
	})
	if err != nil {
		return result{}, 0, err
	}

	// Pass 5: direct core calls.
	cs, err := corePass(c, orc, p4, poolSpan, st4.venue, tr)
	if err != nil {
		return result{}, 0, err
	}

	var v verdict
	for _, p := range passes {
		v.add(orc.check(p))
	}
	behind := reportVerdict(out, v, p1, w)

	d := delta(before, after)
	q := d["queries"]
	built := d["families"] + d["family_evictions"] + drops.families
	stored := d["windows"] + d["window_evictions"] + drops.windows
	stageMs := func(stage string) float64 { return 1000 * ratio(d["stage."+stage+".sum"], d["stage."+stage+".n"]) }
	var hitMs, missMs []float64
	if w.OpenLoop {
		for _, r := range p4.timed() {
			if r.answers[0].hit == "miss" {
				missMs = append(missMs, ms(r.done.Sub(r.sent)))
			} else {
				hitMs = append(hitMs, ms(r.done.Sub(r.sent)))
			}
		}
	}
	p50 := func(p *passResult) float64 {
		var lat []float64
		for _, r := range p.timed() {
			lat = append(lat, ms(r.done.Sub(r.due)))
		}
		return quantile(sortedCopy(lat), 0.5)
	}
	vals := map[string]float64{
		"core.route_ms":                      mean(tr.durations(spanRoute)),
		"core.route_allocs":                  cs.routeAllocs,
		"core.family_build_ms":               mean(tr.durations(spanFamily)),
		"core.compose_ms":                    mean(tr.durations(spanCompose)),
		"core.route_many_ms":                 mean(tr.durations(spanMany)),
		"core.pops_per_search":               ratio(d["pops.sum"], d["pops.n"]),
		"core.relax_per_search":              ratio(d["relax.sum"], d["relax.n"]),
		"core.tv_checks_per_search":          ratio(d["tv.sum"], d["tv.n"]),
		"core.engine_runs_per_query":         ratio(d["searches"]+built, q),
		"tcache.families_built_per_query":    ratio(built, q),
		"tcache.family_reuse":                ratio(d["skeleton"], built),
		"tcache.window_reuse":                ratio(d["window"], stored),
		"tcache.entries_end":                 after["entries"],
		"service.exact_hit_rate":             ratio(d["exact"], q),
		"service.window_hit_rate":            ratio(d["window"], q),
		"service.skeleton_hit_rate":          ratio(d["skeleton"], q),
		"service.miss_rate":                  ratio(q-d["exact"]-d["window"]-d["skeleton"]-d["deduped"], q),
		"service.searches_per_query":         ratio(d["searches"], q),
		"service.skeleton_certify_rate":      ratio(d["skeleton"], d["skeleton"]+d["uncertified"]),
		"service.engines_created_per_search": ratio(d["engines"], d["searches"]),
		"service.hit_ms":                     mean(hitMs),
		"service.miss_ms":                    mean(missMs),
		"service.probe_ms":                   stageMs("probe"),
		"service.store_ms":                   stageMs("store"),
		"service.engine_ms":                  stageMs("engine"),
		"batchplan.plan_ms":                  mean(tr.durations(spanPlan)),
		"batchplan.answers_per_run":          ratio(d["shared_answers"], d["shared_runs"]),
		"batchplan.solo_rate":                ratio(d["solo"], d["solo"]+d["shared_answers"]),
		"coalesce.hold_ms":                   ratio(d["coal.hold_ns"], d["coal.queries"]) / 1e6,
		"coalesce.fanout":                    ratio(d["coal.queries"], d["coal.flushes"]),
		"coalesce.self_ms":                   selfMs(tr, spanCoalesce, spanPoolRoute),
		"server.decode_ms":                   stageMs("decode"),
		"server.render_ms":                   stageMs("render"),
		"server.handler_self_ms":             selfMs(tr, spanHandler, below),
		"server.transport_ms":                selfMs(tr, spanHTTP, spanHandler),
		"server.swap_ms":                     mean(tr.durations(spanSwap)),
		"server.timeouts":                    d["timeouts"],
		"itgraph.build_ms":                   mean(tr.durations(spanGraph)),
		"itgraph.snapshots_ms":               mean(tr.durations(spanSnaps)),
		"bench.lateness_p99_ms":              latenessP99(p1),
		"bench.trace_overhead_ms":            p50(p1) - p50(p0),
	}
	res := result{Correct: v.allWrong == 0, Attempted: v.attempted, Failed: v.failed + v.wrong, Metrics: fill(perLayer, vals)}

	fmt.Fprintf(out, "per-pass mean service time (ms), %gs timed window each:\n", window)
	for _, name := range []string{spanHTTP, spanHandler, spanCoalesce, poolSpan} {
		if d := tr.durations(name); len(d) > 0 {
			fmt.Fprintf(out, "  %-36s %10.4f  (%d calls)\n", name, mean(d), len(d))
		}
	}
	fmt.Fprintf(out, "tracing overhead: traced HTTP p50 %.4f ms - untraced p50 %.4f ms = %.4f ms\n", p50(p1), p50(p0), p50(p1)-p50(p0))
	printTable(out, perLayer, res.Metrics)
	if behind {
		return res, v.allWrong, errBehind
	}
	return res, v.allWrong, nil
}

// selfMs is a layer's self time: the mean, over timed requests traced
// at both layers, of the outer span minus the inner one.
func selfMs(tr *tracer, outer, inner string) float64 {
	o, in := tr.byReq(outer), tr.byReq(inner)
	var diffs []float64
	for req, d := range o {
		if di, ok := in[req]; ok {
			diffs = append(diffs, ms(d-di))
		}
	}
	return mean(diffs)
}

// coreStats are the core pass's own counts.
type coreStats struct {
	routeAllocs float64 // heap allocations per Engine.Route
}

// corePass makes the core calls the pool pass implied, timing each:
// Engine.Route for every query the pool answered with a search,
// Engine.BuildSkeletonFamily for every (method, pair, slot) family the
// pool stored, ComposeSkeletonPath for every skeleton hit, and
// batchplan.NewOpts per batch request plus RouteMany/RouteManyTo per
// shared group. Each core span's parent is the pool-pass span of the
// request that implied it. It then times graph builds and swaps on ve.
func corePass(c *venueCtx, orc *oracle, p4 *passResult, poolSpan string, ve *server.Venue, tr *tracer) (coreStats, error) {
	var cs coreStats
	parents := tr.spanOf(poolSpan)
	parent := func(req int) int {
		if i, ok := parents[req]; ok {
			return i
		}
		return -1
	}
	engines := map[[2]any]*core.Engine{}
	engine := func(g int, method string) *core.Engine {
		k := [2]any{g, method}
		if e, ok := engines[k]; ok {
			return e
		}
		e := core.NewEngine(orc.graphs[g], core.Options{Method: methods[method]})
		engines[k] = e
		return e
	}
	type item struct {
		r *record
		j int
		g int
	}
	var misses, skels []item
	for _, r := range p4.timed() {
		g := orc.states(r, p4.updates)[0]
		for j, a := range r.answers {
			switch a.hit {
			case "miss":
				misses = append(misses, item{r, j, g})
			case "skeleton":
				skels = append(skels, item{r, j, g})
			}
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, it := range misses {
		e := engine(it.g, it.r.method)
		t0 := time.Now()
		_, _, _ = e.Route(it.r.queries[it.j]) // answers were checked in the pool pass
		tr.add(spanRoute, t0, time.Now(), parent(it.r.idx), it.r.idx, false)
	}
	runtime.ReadMemStats(&m1)
	cs.routeAllocs = ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(misses)))

	type famKey struct {
		g        int
		method   string
		src, tgt model.PartitionID
		slot     int
	}
	keyOf := func(it item) (famKey, bool) {
		q := it.r.queries[it.j]
		g := orc.graphs[it.g]
		s, ok1 := g.Venue().Locate(q.Source)
		t, ok2 := g.Venue().Locate(q.Target)
		if !ok1 || !ok2 || s == t {
			return famKey{}, false
		}
		slot := -1
		if it.r.method != "static" {
			slot = g.Checkpoints().SlotOf(q.At.Mod())
		}
		return famKey{it.g, it.r.method, s, t, slot}, true
	}
	fams := map[famKey]*core.SkeletonFamily{}
	for _, it := range misses {
		// The pool builds a family on a found miss whose pair had none
		// for the slot; an uncertified composition had one.
		if a := it.r.answers[it.j]; !a.found || a.why == "skeleton_uncertified" {
			continue
		}
		k, ok := keyOf(it)
		if _, seen := fams[k]; !ok || seen {
			continue
		}
		t0 := time.Now()
		fams[k] = engine(k.g, k.method).BuildSkeletonFamily(k.src, k.tgt, it.r.queries[it.j].At.Mod())
		tr.add(spanFamily, t0, time.Now(), parent(it.r.idx), it.r.idx, false)
	}
	for _, it := range skels {
		k, ok := keyOf(it)
		if !ok {
			continue
		}
		q := it.r.queries[it.j]
		fam, have := fams[k]
		if !have {
			// Built before the window in the pool pass: not timed here.
			fam = engine(k.g, k.method).BuildSkeletonFamily(k.src, k.tgt, q.At.Mod())
			fams[k] = fam
		}
		if fam == nil {
			continue
		}
		speed := q.Speed
		if speed <= 0 {
			speed = core.WalkingSpeedMPS
		}
		t0 := time.Now()
		core.ComposeSkeletonPath(orc.graphs[k.g], q.Source, q.Target, q.At.Mod(), speed, fam)
		tr.add(spanCompose, t0, time.Now(), parent(it.r.idx), it.r.idx, false)
	}

	// Only batch requests are planned here: on route workloads the
	// program plans coalescer flushes, whose members the benchmark does
	// not see, so plan and shared-run times are taken on batch alone.
	for _, r := range p4.timed() {
		if len(r.queries) < 2 {
			continue
		}
		g := orc.states(r, p4.updates)[0]
		items := planItems(orc.graphs[g], r.queries)
		t0 := time.Now()
		plan := batchplan.NewOpts(items, methods[r.method], batchplan.Options{PartitionGroups: stackConfig.Pool.SkeletonCache})
		tr.add(spanPlan, t0, time.Now(), parent(r.idx), r.idx, false)
		for _, grp := range plan.Groups {
			var pts []geom.Point
			for _, m := range grp.Members {
				if grp.Kind == batchplan.SharedTarget {
					pts = append(pts, items[m].Src)
				} else {
					pts = append(pts, items[m].Tgt)
				}
			}
			e := engine(g, r.method)
			t0 := time.Now()
			switch grp.Kind {
			case batchplan.SharedSource:
				e.RouteMany(grp.Source, pts, grp.At, grp.Speed)
			case batchplan.SharedTarget:
				e.RouteManyTo(pts, grp.Target, grp.At, grp.Speed)
			default:
				continue
			}
			tr.add(spanMany, t0, time.Now(), parent(r.idx), r.idx, false)
		}
	}

	for i := 0; i < coreRepeats; i++ {
		t0 := time.Now()
		g, err := itgraph.New(c.v)
		if err != nil {
			return cs, err
		}
		tr.add(spanGraph, t0, time.Now(), -1, -1, false)
		t0 = time.Now()
		g.Snapshots().BuildAll()
		tr.add(spanSnaps, t0, time.Now(), -1, -1, false)
	}
	// A swap re-applying a door's own schedule rebuilds the graph and
	// drops every tier, as any schedule update does.
	var door model.Door
	for _, d := range ve.Model().Doors() {
		if d.HasTemporalVariation() {
			door = d
			break
		}
	}
	for i := 0; i < coreRepeats; i++ {
		t0 := time.Now()
		if _, err := ve.UpdateSchedules(map[model.DoorID]temporal.Schedule{door.ID: door.ATIs.Clone()}); err != nil {
			return cs, err
		}
		tr.add(spanSwap, t0, time.Now(), -1, -1, false)
	}
	return cs, nil
}

// planItems locates a batch's distinct queries the way the pool does
// before planning: identical queries collapse onto one item.
func planItems(g *itgraph.Graph, qs []core.Query) []batchplan.Item {
	v := g.Venue()
	seen := map[core.Query]bool{}
	var items []batchplan.Item
	for i, q := range qs {
		s, ok1 := v.Locate(q.Source)
		t, ok2 := v.Locate(q.Target)
		speed := q.Speed
		if speed <= 0 {
			speed = core.WalkingSpeedMPS
		}
		q.At, q.Speed = q.At.Mod(), speed
		if !ok1 || !ok2 || seen[q] {
			continue
		}
		seen[q] = true
		items = append(items, batchplan.Item{
			Index: i, Src: q.Source, Tgt: q.Target, At: q.At, Speed: speed,
			SrcPart: s, TgtPart: t,
			SrcPrivate: v.Partition(s).Kind.IsPrivate(), TgtPrivate: v.Partition(t).Kind.IsPrivate(),
		})
	}
	return items
}
