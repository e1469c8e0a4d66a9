// Family-window suite: the skeleton store's slot windows. A family is
// keyed by its partition pair and valid over one checkpoint slot (the
// whole day for the static method), so these tests pin how the pool
// serves departures inside and outside those windows: time sweeps and
// shifted departures of one pair, answered point-free.
package service

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/temporal"
)

// windowDemoVenue: hall and shop joined by one door open [8:00, 16:00)
// — checkpoint slots [0,8), [8,16), [16,24) — the minimal fixture where
// family behaviour is fully predictable: the hall -> shop pair can only
// have a family in the [8,16) slot.
func windowDemoVenue(t testing.TB) (*itgraph.Graph, *model.Venue) {
	t.Helper()
	b := model.NewBuilder("window-demo")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), temporal.MustSchedule(
		temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))))
	b.ConnectBi(d, hall, shop)
	v := b.MustBuild()
	return itgraph.MustNew(v), v
}

// skelPool builds an asyn pool with the skeleton store on.
func skelPool(g *itgraph.Graph, workers int) *Pool {
	return New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, Workers: workers, SkeletonCache: true})
}

// demoQuery is a hall -> shop query; k moves both endpoints so each k
// is a distinct exact-cache key of the same partition pair.
func demoQuery(k int, at temporal.TimeOfDay) core.Query {
	d := float64(k) / 2
	return core.Query{Source: geom.Pt(5-d, 5, 0), Target: geom.Pt(15+d, 5, 0), At: at}
}

// buildDemoFamily routes two noon misses of the hall -> shop pair: the
// first records the repeat evidence, the second builds the family.
func buildDemoFamily(t *testing.T, pool *Pool) {
	t.Helper()
	for k := 0; k < 2; k++ {
		if r := pool.route(nil, demoQuery(k, temporal.Clock(12, 0, 0))); r.Err != nil || r.Hit != HitMiss {
			t.Fatalf("building miss %d: hit=%q err=%v", k, r.Hit, r.Err)
		}
	}
	if st := pool.Stats(); st.FamilyBuilds != 1 || st.SkelFamilies != 1 {
		t.Fatalf("after two noon misses: %v, want one family built", st)
	}
}

func TestWindowPoolProvenance(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := skelPool(g, 0)
	engine := core.NewEngine(g, core.Options{Method: core.MethodAsyn})

	// No family for the pair yet: both misses say so.
	q0 := demoQuery(0, temporal.Clock(12, 0, 0))
	r0 := pool.route(nil, q0)
	q1 := demoQuery(1, temporal.Clock(12, 30, 0))
	r1 := pool.route(nil, q1)
	for i, r := range []Result{r0, r1} {
		if r.Err != nil || r.Hit != HitMiss || r.CacheHit || r.Explain != obs.ReasonWindowFamilyAbsent {
			t.Fatalf("miss %d: hit=%q cacheHit=%v explain=%q err=%v, want a window_family_absent miss",
				i, r.Hit, r.CacheHit, r.Explain, r.Err)
		}
	}

	// Same slot, new points, shifted departure: composed from the family
	// the second miss built, byte-identical to a fresh engine run.
	q2 := demoQuery(2, temporal.Clock(13, 30, 0))
	r2 := pool.route(nil, q2)
	if r2.Hit != HitSkeleton || !r2.CacheHit || r2.Explain != obs.ReasonNone {
		t.Fatalf("shifted route: hit=%q cacheHit=%v explain=%q, want skeleton", r2.Hit, r2.CacheHit, r2.Explain)
	}
	wantPath, _, err := engine.Route(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2.Path, wantPath) {
		t.Fatalf("skeleton answer differs from engine:\n got  %+v\n want %+v", r2.Path, wantPath)
	}
	// Stats on a skeleton hit are the building search's, like exact hits.
	if r2.Stats != r1.Stats {
		t.Fatalf("skeleton hit stats %+v, want the building search's %+v", r2.Stats, r1.Stats)
	}
	// The engine-computed original is an exact hit.
	if r := pool.route(nil, q0); r.Hit != HitExact || !r.CacheHit {
		t.Fatalf("original repeat: hit=%q, want exact", r.Hit)
	}

	// The pair has a family, just not for this slot.
	q4 := demoQuery(3, temporal.Clock(7, 0, 0))
	if r := pool.route(nil, q4); r.Hit != HitMiss || r.Explain != obs.ReasonOutsideWindows {
		t.Fatalf("other-slot departure: hit=%q explain=%q, want an outside_windows miss", r.Hit, r.Explain)
	}

	st := pool.Stats()
	if st.Queries != 5 || st.CacheHits != 1 || st.SkeletonHits != 1 || st.CacheMisses() != 3 {
		t.Fatalf("stats = %v", st)
	}
	// At quiescence the real engine-run counter agrees with the derived
	// miss count (the former is what /metricsz exports: it must be
	// monotone, which the derived view is not under concurrency).
	if st.EngineSearches != st.CacheMisses() {
		t.Fatalf("EngineSearches = %d, CacheMisses() = %d", st.EngineSearches, st.CacheMisses())
	}
	if st.Reasons.MissWindowFamilyAbsent != 2 || st.Reasons.MissOutsideWindows != 1 {
		t.Fatalf("reasons = %+v", st.Reasons)
	}
}

// TestWindowPoolKeyIsolation: a family is keyed by its partition pair
// alone — any endpoints and any walking speed of the pair compose from
// it — while the reversed pair is a different key.
func TestWindowPoolKeyIsolation(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := skelPool(g, 0)
	engine := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
	buildDemoFamily(t, pool)

	qMoved := demoQuery(5, temporal.Clock(12, 30, 0))
	qMoved.Source = geom.Pt(3, 8, 0)
	qFast := demoQuery(6, temporal.Clock(14, 0, 0))
	qFast.Speed = 3.0
	for _, q := range []core.Query{qMoved, qFast} {
		r := pool.route(nil, q)
		if r.Hit != HitSkeleton {
			t.Fatalf("%+v: hit=%q, want skeleton", q, r.Hit)
		}
		want, _, err := engine.Route(q)
		if err != nil || !reflect.DeepEqual(r.Path, want) {
			t.Fatalf("%+v: composed path differs from engine (%v)", q, err)
		}
	}
	// The reversed pair has no family of its own.
	qBack := core.Query{Source: geom.Pt(15, 5, 0), Target: geom.Pt(5, 5, 0), At: temporal.Clock(12, 0, 0)}
	if r := pool.route(nil, qBack); r.Hit != HitMiss || r.Explain != obs.ReasonWindowFamilyAbsent {
		t.Fatalf("reversed pair: hit=%q explain=%q, want a window_family_absent miss", r.Hit, r.Explain)
	}
}

// TestWindowPoolNoRouteNotWindowCached: no-route outcomes never build a
// family; only the exact cache holds them.
func TestWindowPoolNoRouteNotWindowCached(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := skelPool(g, 0)
	for k := 0; k < 3; k++ {
		if r := pool.route(nil, demoQuery(k, temporal.Clock(20, k, 0))); !errors.Is(r.Err, core.ErrNoRoute) || r.Hit != HitMiss {
			t.Fatalf("night query %d: hit=%q err=%v, want a no-route miss", k, r.Hit, r.Err)
		}
	}
	if st := pool.Stats(); st.FamilyBuilds != 0 || st.SkelFamilies != 0 {
		t.Fatalf("no-route misses built families: %v", st)
	}
	// The exact cache still covers the identical repeat.
	if r := pool.route(nil, demoQuery(0, temporal.Clock(20, 0, 0))); r.Hit != HitExact || !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("repeat: hit=%q err=%v, want an exact no-route", r.Hit, r.Err)
	}
}

func TestWindowPoolSwapDropsStore(t *testing.T) {
	g, v := windowDemoVenue(t)
	pool := skelPool(g, 0)
	buildDemoFamily(t, pool)

	// Close the door for the day: the swap must drop the whole store and
	// post-swap queries must never see the pre-swap family.
	did, _ := v.DoorByName("d")
	night := temporal.MustSchedule(temporal.MustInterval(temporal.Clock(2, 0, 0), temporal.Clock(3, 0, 0)))
	if err := pool.UpdateSchedules(map[model.DoorID]temporal.Schedule{did: night}); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.SkelFamilies != 0 {
		t.Fatalf("SkelFamilies = %d after swap, want 0", st.SkelFamilies)
	}
	r := pool.route(nil, demoQuery(4, temporal.Clock(12, 30, 0)))
	if r.Hit != HitMiss || !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("post-swap: hit=%q err=%v, want a fresh no-route", r.Hit, r.Err)
	}
}

// TestWindowPoolInvalidateSlot: InvalidateSlot drops exactly the
// families whose slot window overlaps the slot, and InvalidateCache
// drops the rest together with the exact cache.
func TestWindowPoolInvalidateSlot(t *testing.T) {
	g := sweepVenue(t)
	pool := skelPool(g, 0)
	// room0 -> room1 crosses the always-open d1, so the pair has a
	// family in every slot; build the 4:00 and the 12:00 ones.
	pairQuery := func(k int, at temporal.TimeOfDay) core.Query {
		d := float64(k) / 2
		return core.Query{Source: geom.Pt(5-d, 5, 0), Target: geom.Pt(15+d, 5, 0), At: at}
	}
	early, noon := temporal.Clock(4, 0, 0), temporal.Clock(12, 0, 0)
	for _, at := range []temporal.TimeOfDay{early, noon} {
		for k := 0; k < 2; k++ {
			if r := pool.route(nil, pairQuery(k, at)); r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	if st := pool.Stats(); st.SkelFamilies != 2 {
		t.Fatalf("SkelFamilies = %d, want 2", st.SkelFamilies)
	}
	cps := g.Checkpoints()
	pool.InvalidateSlot(cps.SlotOf(temporal.Clock(21, 0, 0)))
	if st := pool.Stats(); st.SkelFamilies != 2 {
		t.Fatalf("SkelFamilies = %d after unrelated slot invalidation, want 2", st.SkelFamilies)
	}
	pool.InvalidateSlot(cps.SlotOf(noon))
	if st := pool.Stats(); st.SkelFamilies != 1 {
		t.Fatalf("SkelFamilies = %d, want 1", st.SkelFamilies)
	}
	if r := pool.route(nil, pairQuery(3, temporal.Clock(13, 0, 0))); r.Hit != HitMiss || r.Explain != obs.ReasonOutsideWindows {
		t.Fatalf("post-invalidation: hit=%q explain=%q, want an outside_windows miss", r.Hit, r.Explain)
	}
	if r := pool.route(nil, pairQuery(3, temporal.Clock(4, 30, 0))); r.Hit != HitSkeleton {
		t.Fatalf("surviving slot: hit=%q, want skeleton", r.Hit)
	}
	pool.InvalidateCache()
	if st := pool.Stats(); st.SkelFamilies != 0 || pool.CacheLen() != 0 {
		t.Fatalf("families=%d exact=%d after InvalidateCache", st.SkelFamilies, pool.CacheLen())
	}
}

// sweepVenue: six rooms in a row joined by five doors with staggered
// business hours, so a day sweep of the long OD pair moves through
// no-route phases, a found phase, and plenty of reusable windows.
// Checkpoints: 6:00, 8:00, 10:00, 16:00, 20:00, 22:00.
func sweepVenue(t testing.TB) *itgraph.Graph {
	t.Helper()
	b := model.NewBuilder("sweep")
	scheds := []temporal.Schedule{
		nil, // always open
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(6, 0, 0), temporal.Clock(22, 0, 0))),
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))),
		nil,
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(10, 0, 0), temporal.Clock(20, 0, 0))),
	}
	var prev model.PartitionID
	for i := 0; i <= len(scheds); i++ {
		p := b.AddPartition(fmt.Sprintf("room%d", i), model.PublicPartition,
			geom.NewRect(float64(i)*10, 0, float64(i+1)*10, 10, 0))
		if i > 0 {
			d := b.AddDoor(fmt.Sprintf("d%d", i), model.PublicDoor,
				geom.Pt(float64(i)*10, 5, 0), scheds[i-1])
			b.ConnectBi(d, prev, p)
		}
		prev = p
	}
	return itgraph.MustNew(b.MustBuild())
}

// TestWindowPoolSweepByteIdentical is the family store's oracle bar
// on time sweeps: a fine departure-time sweep through a skeleton-cache
// pool answers byte-identically to a sequential engine, for every
// method, while actually serving skeleton hits. The random grid venue
// adds adversarial breadth (random schedules, directionality, private
// rooms).
func TestWindowPoolSweepByteIdentical(t *testing.T) {
	sweepG := sweepVenue(t)
	rng := rand.New(rand.NewSource(31))
	gridG := itgraph.MustNew(gridVenue(t, rng, 4, 5))
	fixtures := []struct {
		name string
		g    *itgraph.Graph
		ods  []core.Query
	}{
		{"sweep", sweepG, []core.Query{
			{Source: geom.Pt(5, 5, 0), Target: geom.Pt(55, 5, 0)},  // crosses every door
			{Source: geom.Pt(5, 5, 0), Target: geom.Pt(25, 5, 0)},  // first two doors
			{Source: geom.Pt(32, 5, 0), Target: geom.Pt(38, 5, 0)}, // intra-room
		}},
		{"grid", gridG, []core.Query{
			{Source: geom.Pt(5, 5, 0), Target: geom.Pt(45, 35, 0)},
			{Source: geom.Pt(15, 25, 0), Target: geom.Pt(25, 25, 0)},
			{Source: geom.Pt(5, 35, 0), Target: geom.Pt(15, 35, 0)},
		}},
	}
	for _, fx := range fixtures {
		for _, method := range []core.Method{core.MethodSyn, core.MethodAsyn, core.MethodStatic} {
			pool := New(fx.g, Options{Engine: core.Options{Method: method}, SkeletonCache: true})
			seq := core.NewEngine(fx.g, core.Options{Method: method})
			for _, od := range fx.ods {
				for at := temporal.TimeOfDay(0); at < temporal.DaySeconds; at += 900 { // 15 min steps
					q := od
					q.At = at
					wantPath, _, wantErr := seq.Route(q)
					got := pool.route(nil, q)
					if (got.Err == nil) != (wantErr == nil) {
						t.Fatalf("%s/%v at %v: err %v vs %v (hit=%q)", fx.name, method, at, got.Err, wantErr, got.Hit)
					}
					if wantErr != nil {
						if errors.Is(got.Err, core.ErrNoRoute) != errors.Is(wantErr, core.ErrNoRoute) {
							t.Fatalf("%s/%v at %v: err %v vs %v", fx.name, method, at, got.Err, wantErr)
						}
						continue
					}
					if !reflect.DeepEqual(got.Path, wantPath) {
						t.Fatalf("%s/%v at %v (hit=%q): path mismatch\n got  %+v\n want %+v",
							fx.name, method, at, got.Hit, got.Path, wantPath)
					}
				}
			}
			st := pool.Stats()
			if fx.name == "sweep" && st.SkeletonHits == 0 {
				t.Fatalf("%s/%v: sweep produced no skeleton hits (%v)", fx.name, method, st)
			}
			if st.EngineSearches != st.CacheMisses() {
				t.Fatalf("%s/%v: engine searches %d, misses %d: %v", fx.name, method, st.EngineSearches, st.CacheMisses(), st)
			}
		}
	}
}

// TestWindowPoolSweepBeatsExact pins the family store on a one-point
// departure-time sweep: it serves skeleton hits and runs strictly fewer
// engine runs — searches plus family builds — than the exact-only
// cache, which runs one search per departure.
func TestWindowPoolSweepBeatsExact(t *testing.T) {
	g := sweepVenue(t)
	var batch []core.Query
	for at := temporal.TimeOfDay(0); at < temporal.DaySeconds; at += 600 { // 10 min steps
		batch = append(batch, core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(55, 5, 0), At: at})
	}
	exact := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, Workers: 1})
	skel := skelPool(g, 1)
	for _, pool := range []*Pool{exact, skel} {
		for _, r := range pool.RouteBatch(batch) {
			if r.Err != nil && !errors.Is(r.Err, core.ErrNoRoute) {
				t.Fatal(r.Err)
			}
		}
	}
	se, ss := exact.Stats(), skel.Stats()
	if ss.SkeletonHits == 0 {
		t.Fatalf("skeleton pool served no skeleton hits on a sweep: %v", ss)
	}
	if runs := ss.EngineSearches + ss.FamilyBuilds; runs >= se.EngineSearches {
		t.Fatalf("skeleton pool ran %d engine runs, exact pool %d — want strictly fewer", runs, se.EngineSearches)
	}
}

// TestWindowPoolBatchComposesWithDedup: inside one batch, identical
// queries still dedupe (sharing the canonical outcome and provenance)
// and later departures of the pair compose from the family an earlier
// entry built, all byte-identical to a sequential engine.
func TestWindowPoolBatchComposesWithDedup(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := skelPool(g, 1)
	batch := []core.Query{
		demoQuery(0, temporal.Clock(12, 0, 0)),
		demoQuery(0, temporal.Clock(12, 0, 0)), // duplicate → shared
		demoQuery(1, temporal.Clock(13, 0, 0)), // repeat miss → builds the family
		demoQuery(1, temporal.Clock(13, 0, 0)), // duplicate → shared
		demoQuery(2, temporal.Clock(14, 0, 0)), // same slot → skeleton hit
		demoQuery(2, temporal.Clock(14, 0, 0)), // duplicate of the hit → shared
		demoQuery(3, temporal.Clock(7, 0, 0)),  // other slot → miss (no route)
	}
	rs := pool.RouteBatch(batch)
	seq := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
	for i, q := range batch {
		wantPath, _, wantErr := seq.Route(q)
		sameOutcome(t, fmt.Sprintf("batch[%d]", i), rs[i].Path, rs[i].Err, wantPath, wantErr)
	}
	wantHits := []struct {
		hit    Hit
		shared bool
	}{
		{HitMiss, false}, {HitMiss, true}, {HitMiss, false}, {HitMiss, true},
		{HitSkeleton, false}, {HitSkeleton, true}, {HitMiss, false},
	}
	for i, want := range wantHits {
		if rs[i].Hit != want.hit || rs[i].Shared != want.shared {
			t.Fatalf("batch[%d]: hit=%q shared=%v, want %q/%v", i, rs[i].Hit, rs[i].Shared, want.hit, want.shared)
		}
	}
	st := pool.Stats()
	if st.Deduped != 3 || st.SkeletonHits != 1 || st.FamilyBuilds != 1 {
		t.Fatalf("stats = %v, want deduped=3 skeletonHits=1 familyBuilds=1", st)
	}
}

// TestWindowPoolDisabledByDefault: without SkeletonCache — or under the
// SinglePartitionExpansion ablation, whose families would be unsound —
// no family is built or served and misses never consult the store.
func TestWindowPoolDisabledByDefault(t *testing.T) {
	g, _ := windowDemoVenue(t)
	for _, opts := range []Options{
		{Engine: core.Options{Method: core.MethodAsyn}},
		{Engine: core.Options{Method: core.MethodAsyn, SinglePartitionExpansion: true}, SkeletonCache: true},
	} {
		pool := New(g, opts)
		for k := 0; k < 4; k++ {
			r := pool.route(nil, demoQuery(k, temporal.Clock(12, k, 0)))
			if r.Err != nil || r.Hit != HitMiss || r.Explain != obs.ReasonNoExactEntry {
				t.Fatalf("%+v query %d: hit=%q explain=%q err=%v, want a no_exact_entry miss", opts, k, r.Hit, r.Explain, r.Err)
			}
		}
		if st := pool.Stats(); st.FamilyBuilds != 0 || st.SkelFamilies != 0 || st.SkelCapacity != 0 {
			t.Fatalf("%+v: family store active: %v", opts, st)
		}
		if pool.SkeletonCoverage() != nil {
			t.Fatalf("%+v: coverage reported without a store", opts)
		}
	}
}
