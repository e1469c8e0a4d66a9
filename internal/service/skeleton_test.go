// Skeleton-layer suite: pool answers composed from stored skeleton
// families must be byte-identical to fresh sequential engine runs, a
// jittered same-pair wave must collapse to about one search, and the
// hit/miss partition must keep holding with the new hit class.
package service

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/temporal"
)

// jitterPair returns n queries between independently jittered interior
// points of two fixed cells of a gridVenue (cell size 10), all at the
// same departure — the hot-lobby wave shape exact and window caches
// get zero reuse on.
func jitterPair(rng *rand.Rand, sr, sc, tr, tc int, at temporal.TimeOfDay, n int) []core.Query {
	qs := make([]core.Query, n)
	for i := range qs {
		qs[i] = core.Query{
			Source: geom.Pt(float64(sc)*10+1+rng.Float64()*8, float64(sr)*10+1+rng.Float64()*8, 0),
			Target: geom.Pt(float64(tc)*10+1+rng.Float64()*8, float64(tr)*10+1+rng.Float64()*8, 0),
			At:     at,
		}
	}
	return qs
}

// TestSkeletonPoolByteIdentical: every answer out of a skeleton-cache
// pool — composed or searched — equals the fresh sequential engine
// answer byte for byte, across methods and random temporal venues, and
// the workload actually exercises compositions.
func TestSkeletonPoolByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	var skeletonHits int64
	for trial := 0; trial < 6; trial++ {
		v := gridVenue(t, rng, 3, 3)
		g := itgraph.MustNew(v)
		for _, m := range allMethods {
			pool := New(g, Options{
				Engine:        core.Options{Method: m},
				CacheCapacity: -1, // isolate the skeleton path
				SkeletonCache: true,
			})
			oracle := core.NewEngine(g, core.Options{Method: m})
			at := temporal.TimeOfDay(rng.Intn(86400))
			for _, q := range jitterPair(rng, 0, 0, 2, 2, at, 12) {
				r := pool.RouteResult(q)
				wantPath, _, wantErr := oracle.Route(q)
				if (r.Err == nil) != (wantErr == nil) {
					t.Fatalf("%v hit=%q: err %v, sequential %v", m, r.Hit, r.Err, wantErr)
				}
				if !reflect.DeepEqual(r.Path, wantPath) {
					t.Fatalf("%v hit=%q at %v: pool path %+v != sequential %+v", m, r.Hit, q.At, r.Path, wantPath)
				}
			}
			skeletonHits += pool.Stats().SkeletonHits
		}
	}
	if skeletonHits == 0 {
		t.Fatal("no skeleton hits across all trials — the property was vacuous")
	}
}

// TestSkeletonPoolStatsPartition pins the extended accounting: exact +
// window + skeleton + deduped + misses == queries, engine searches
// never exceed misses, gauges reflect the store, and provenance uses
// the new reason when a family refuses.
func TestSkeletonPoolStatsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	v := gridVenue(t, rng, 3, 3)
	pool := New(itgraph.MustNew(v), Options{
		Engine:        core.Options{Method: core.MethodSyn},
		WindowCache:   true,
		SkeletonCache: true,
	})
	at := temporal.Clock(12, 0, 0)
	// Warm-up with repeat evidence: (0,0)->(0,1) is this venue's
	// routable pair at noon, so its second miss builds the family the
	// rest of the wave composes from.
	pool.RouteBatch(jitterPair(rng, 0, 0, 0, 1, at, 20))
	pool.RouteBatch(jitterPair(rng, 0, 2, 2, 0, at, 20))
	for _, q := range randomQueries(rng, 60, 30, 30) {
		pool.Route(q)
	}
	st := pool.Stats()
	if st.SkeletonHits == 0 {
		t.Fatalf("no skeleton hits: %v", st)
	}
	if got := st.CacheHits + st.WindowHits + st.SkeletonHits + st.Deduped + st.CacheMisses(); got != st.Queries {
		t.Fatalf("partition broken: hits+misses=%d queries=%d (%v)", got, st.Queries, st)
	}
	if st.EngineSearches > st.CacheMisses() {
		t.Fatalf("EngineSearches %d > CacheMisses %d", st.EngineSearches, st.CacheMisses())
	}
	if st.SkelFamilies == 0 || st.SkelCapacity == 0 {
		t.Fatalf("skeleton gauges empty: %v", st)
	}
	missSum := st.Reasons.MissUncacheable + st.Reasons.MissNoExactEntry +
		st.Reasons.MissWindowFamilyAbsent + st.Reasons.MissOutsideWindows +
		st.Reasons.MissSkeletonUncertified + st.Reasons.MissEpochRaced
	if missSum != st.CacheMisses() {
		t.Fatalf("miss reasons sum %d != CacheMisses %d (%v)", missSum, st.CacheMisses(), st.Reasons)
	}
	if cov := pool.SkeletonCoverage(); len(cov) == 0 {
		t.Fatal("SkeletonCoverage empty with families stored")
	}
}

// TestSkeletonWaveCollapses: a coalesced batch wave out of one hot
// partition pair with jittered endpoints must be answered by a handful
// of searches, the rest composed — the headline saving of the
// point-free layer (ISSUE 10 acceptance: searches/query well below 1).
func TestSkeletonWaveCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	v := openGridVenue(t, rng, 3, 3)
	g := itgraph.MustNew(v)
	for _, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
		pool := New(g, Options{
			Engine:        core.Options{Method: m},
			SharedBatch:   true,
			SkeletonCache: true,
			Workers:       4,
		})
		const n = 32
		qs := jitterPair(rng, 0, 0, 2, 2, temporal.Clock(9, 0, 0), n)
		rs, sum := pool.RouteBatchSummary(qs)
		for i, r := range rs {
			if r.Err != nil {
				t.Fatalf("%v query %d: %v", m, i, r.Err)
			}
		}
		if sum.SkeletonHits == 0 {
			t.Fatalf("%v: wave composed nothing: %+v", m, sum)
		}
		if ratio := float64(sum.Searches) / float64(n); ratio > 0.5 {
			t.Fatalf("%v: searches/query = %.2f, want <= 0.5 (%+v)", m, ratio, sum)
		}
		if got := sum.ExactHits + sum.WindowHits + sum.SkeletonHits + sum.Deduped +
			sum.SharedAnswers + sum.Searches - sum.SharedRuns; got != sum.Queries {
			t.Fatalf("%v: summary partition broken: %+v", m, sum)
		}
	}
}

// TestSkeletonUncertifiedProvenance: with a family stored but the
// departure near enough the slot close that the walk cannot finish
// inside it, the composition must refuse and the miss must carry
// obs.ReasonSkeletonUncertified.
func TestSkeletonUncertifiedProvenance(t *testing.T) {
	b := model.NewBuilder("uncert")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0),
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))))
	b.ConnectBi(d, hall, room)
	v := b.MustBuild()
	pool := New(itgraph.MustNew(v), Options{
		Engine:        core.Options{Method: core.MethodSyn},
		CacheCapacity: -1,
		SkeletonCache: true,
	})
	// Two seeding misses at different points of the pair: the second
	// has repeat evidence and builds the family.
	seed := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(18, 5, 0), At: temporal.Clock(12, 0, 0)}
	if r := pool.RouteResult(seed); r.Err != nil {
		t.Fatal(r.Err)
	}
	seed2 := core.Query{Source: geom.Pt(3, 6, 0), Target: geom.Pt(17, 6, 0), At: temporal.Clock(12, 0, 0)}
	if r := pool.RouteResult(seed2); r.Err != nil {
		t.Fatal(r.Err)
	}
	// 16:00:00 - 2s: inside the slot, but ~16 m of walk cannot finish
	// before the 16:00 checkpoint.
	late := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(18, 4, 0), At: temporal.Clock(16, 0, 0) - 2}
	r := pool.RouteResult(late)
	if r.CacheHit {
		t.Fatalf("late query must not be served from the family (hit=%q)", r.Hit)
	}
	if r.Explain != obs.ReasonSkeletonUncertified {
		t.Fatalf("Explain = %q, want %q", r.Explain, obs.ReasonSkeletonUncertified)
	}
	if st := pool.Stats(); st.Reasons.MissSkeletonUncertified == 0 {
		t.Fatalf("MissSkeletonUncertified not tallied: %v", st.Reasons)
	}
}

// TestRaceSkeletonSwapByteIdentical extends the swap-atomicity bar to
// skeleton compositions: goroutines fire jittered same-pair queries at
// a skeleton pool while another swaps between two schedule sets;
// every response must equal a sequential answer over the pre- or
// post-swap graph — a composition from a stale family would produce a
// third outcome.
func TestRaceSkeletonSwapByteIdentical(t *testing.T) {
	b := model.NewBuilder("skel-swap-race")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 20, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(0, 10, 20, 20, 0))
	near := b.AddDoor("near", model.PublicDoor, geom.Pt(2, 10, 0), nil)
	far := b.AddDoor("far", model.PublicDoor, geom.Pt(18, 10, 0), nil)
	b.ConnectBi(near, hall, room)
	b.ConnectBi(far, hall, room)
	v := b.MustBuild()
	nearID, _ := v.DoorByName("near")
	farID, _ := v.DoorByName("far")

	closed := temporal.Schedule{} // empty = always closed
	vA, err := v.WithSchedules(map[model.DoorID]temporal.Schedule{nearID: nil, farID: closed})
	if err != nil {
		t.Fatal(err)
	}
	vB, err := v.WithSchedules(map[model.DoorID]temporal.Schedule{nearID: closed, farID: nil})
	if err != nil {
		t.Fatal(err)
	}
	gA, gB := itgraph.MustNew(vA), itgraph.MustNew(vB)

	// A fixed roster of jittered endpoint pairs, each with sequential
	// oracle answers on both graphs.
	rng := rand.New(rand.NewSource(441))
	const nq = 24
	qs := make([]core.Query, nq)
	wantA := make([]*core.Path, nq)
	wantB := make([]*core.Path, nq)
	eA := core.NewEngine(gA, core.Options{Method: core.MethodAsyn})
	eB := core.NewEngine(gB, core.Options{Method: core.MethodAsyn})
	for i := range qs {
		qs[i] = core.Query{
			Source: geom.Pt(1+rng.Float64()*18, 1+rng.Float64()*8, 0),
			Target: geom.Pt(1+rng.Float64()*18, 11+rng.Float64()*8, 0),
			At:     temporal.Clock(12, 0, 0),
		}
		if wantA[i], _, err = eA.Route(qs[i]); err != nil {
			t.Fatal(err)
		}
		if wantB[i], _, err = eB.Route(qs[i]); err != nil {
			t.Fatal(err)
		}
	}

	pool := New(gA, Options{
		Engine:        core.Options{Method: core.MethodAsyn},
		CacheCapacity: -1,
		SkeletonCache: true,
	})
	done := make(chan struct{})
	errc := make(chan error, 8)
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			g := gA
			if i%2 == 0 {
				g = gB
			}
			pool.SetGraph(g)
		}
	}()
	var routers sync.WaitGroup
	for w := 0; w < 6; w++ {
		routers.Add(1)
		seed := int64(600 + w)
		go func() {
			defer routers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				k := rng.Intn(nq)
				r := pool.RouteResult(qs[k])
				if r.Err != nil {
					select {
					case errc <- r.Err:
					default:
					}
					return
				}
				if !reflect.DeepEqual(r.Path, wantA[k]) && !reflect.DeepEqual(r.Path, wantB[k]) {
					select {
					case errc <- fmt.Errorf("query %d (hit=%q): path matches neither schedule set's sequential answer", k, r.Hit):
					default:
					}
					return
				}
			}
		}()
	}
	routers.Wait()
	close(done)
	swapper.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced epilogue on set A: jittered repeats must now compose.
	pool.SetGraph(gA)
	before := pool.Stats().SkeletonHits
	for k := range qs {
		r := pool.RouteResult(qs[k])
		if r.Err != nil || !reflect.DeepEqual(r.Path, wantA[k]) {
			t.Fatalf("epilogue query %d (hit=%q): %v / path mismatch", k, r.Hit, r.Err)
		}
	}
	if st := pool.Stats(); st.SkeletonHits <= before {
		t.Fatalf("epilogue served no skeleton hits: %v", st)
	}
}

// TestSkeletonInvalidation: InvalidateSlot drops families overlapping
// the slot; InvalidateCache drops all of them.
func TestSkeletonInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	v := openGridVenue(t, rng, 3, 3)
	g := itgraph.MustNew(v)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodSyn}, SkeletonCache: true})
	at := temporal.Clock(12, 0, 0)
	pool.RouteBatch(jitterPair(rng, 0, 0, 2, 2, at, 8))
	if pool.Stats().SkelFamilies == 0 {
		t.Fatal("no families stored")
	}
	// Every family built above lives in the slot containing the shared
	// departure, so invalidating that slot must drop them all.
	pool.InvalidateSlot(g.Checkpoints().SlotOf(at))
	if got := pool.Stats().SkelFamilies; got != 0 {
		t.Fatalf("SkelFamilies = %d after InvalidateSlot", got)
	}
	pool.RouteBatch(jitterPair(rng, 0, 0, 2, 2, at, 8))
	if pool.Stats().SkelFamilies == 0 {
		t.Fatal("families not rebuilt after slot invalidation")
	}
	pool.InvalidateCache()
	if got := pool.Stats().SkelFamilies; got != 0 {
		t.Fatalf("SkelFamilies = %d after InvalidateCache", got)
	}
}

// TestSkeletonBuildNeedsRepeatEvidence pins the build policy: a family
// is built only when its (pair, family slot) key already missed once
// under the current backend, or when the miss belongs to a jittered
// SharedPartition wave; the building miss stores no point window; and
// every build is counted.
func TestSkeletonBuildNeedsRepeatEvidence(t *testing.T) {
	b := model.NewBuilder("evidence")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	front := b.AddDoor("front", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	side := b.AddDoor("side", model.PublicDoor, geom.Pt(10, 2, 0),
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))))
	b.ConnectBi(front, hall, room)
	b.ConnectBi(side, hall, room)
	g := itgraph.MustNew(b.MustBuild())

	// Endpoint pair k of the one hall -> room partition pair, departing
	// at hour h (the side door splits the day into three slots).
	query := func(k, h int) core.Query {
		d := float64(k)
		return core.Query{Source: geom.Pt(2+d, 5+d/2, 0), Target: geom.Pt(18-d, 5+d/2, 0), At: temporal.Clock(h, 0, 0)}
	}
	route := func(pool *Pool, q core.Query) Result {
		t.Helper()
		r := pool.RouteResult(q)
		if r.Err != nil {
			t.Fatalf("route %v: %v", q, r.Err)
		}
		return r
	}
	want := func(pool *Pool, step string, builds, families, windows int64) {
		t.Helper()
		st := pool.Stats()
		if st.FamilyBuilds != builds || st.SkelFamilies != families || st.Windows != windows {
			t.Fatalf("%s: FamilyBuilds %d SkelFamilies %d Windows %d, want %d %d %d (%v)",
				step, st.FamilyBuilds, st.SkelFamilies, st.Windows, builds, families, windows, st)
		}
	}

	pool := New(g, Options{
		Engine:        core.Options{Method: core.MethodSyn},
		CacheCapacity: -1,
		WindowCache:   true,
		SkeletonCache: true,
	})
	route(pool, query(0, 12))
	want(pool, "first miss", 0, 0, 1)
	if r := route(pool, query(1, 12)); r.Hit != HitMiss {
		t.Fatalf("second noon query hit=%q, want a miss", r.Hit)
	}
	// The building miss stores its family but no point window.
	want(pool, "second miss, same pair and slot", 1, 1, 1)
	if r := route(pool, query(2, 12)); r.Hit != HitSkeleton {
		t.Fatalf("third noon query hit=%q, want a composition", r.Hit)
	}
	route(pool, query(0, 18))
	want(pool, "first miss in another slot", 1, 1, 2)

	// A swap drops the evidence with the stores: the evening key that
	// missed once above counts for nothing on the new backend.
	pool.SetGraph(g)
	route(pool, query(1, 18))
	want(pool, "first miss after SetGraph", 1, 0, 1)
	route(pool, query(2, 18))
	want(pool, "second miss after SetGraph", 2, 1, 1)

	// Static families cover the whole day, so static misses count as
	// evidence across checkpoint slots.
	static := New(g, Options{
		Engine:        core.Options{Method: core.MethodStatic},
		CacheCapacity: -1,
		SkeletonCache: true,
	})
	route(static, query(0, 3))
	want(static, "static first miss", 0, 0, 0)
	route(static, query(1, 20))
	want(static, "static second miss, other slot", 1, 1, 0)

	// A jittered wave is its own evidence: a two-member SharedPartition
	// group builds on its first member and composes the second.
	wave := New(g, Options{
		Engine:        core.Options{Method: core.MethodSyn},
		CacheCapacity: -1,
		SkeletonCache: true,
		SharedBatch:   true,
	})
	rs, sum := wave.RouteBatchSummary([]core.Query{query(0, 12), query(1, 12)})
	if rs[0].Hit != HitMiss || rs[1].Hit != HitSkeleton || sum.Searches != 1 {
		t.Fatalf("wave hits %q/%q, %d searches, want miss/skeleton and 1", rs[0].Hit, rs[1].Hit, sum.Searches)
	}
	want(wave, "wave", 1, 1, 0)
}
