package service

import (
	"reflect"
	"testing"
	"time"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/temporal"
)

// probeBooks is everything a query can be booked into: the pool
// counters, the load ring's 10 s window and the hot-pair table.
type probeBooks struct {
	stats Stats
	load  obs.LoadSample
	pairs obs.PairSample
}

func probeBooksOf(p *Pool) probeBooks {
	var b probeBooks
	for _, pc := range p.HotPairs() {
		b.pairs.Queries += pc.Queries
		b.pairs.ExactHits += pc.ExactHits
		b.pairs.SkeletonHits += pc.SkeletonHits
		b.pairs.EngineSearches += pc.EngineSearches
	}
	b.load = p.LoadRing().Windows([]int{10})[0]
	b.stats = p.Stats()
	return b
}

// TestPoolProbeBooking pins Pool.Probe's accounting: a miss books
// nothing anywhere, and a hit of each tier — exact, skeleton —
// books exactly one query and one hit of that tier into the pool
// counters, the load ring and the hot-pair table, runs no engine and
// answers exactly what a fresh search would.
func TestPoolProbeBooking(t *testing.T) {
	b := model.NewBuilder("probe")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	front := b.AddDoor("front", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	side := b.AddDoor("side", model.PublicDoor, geom.Pt(10, 2, 0),
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))))
	b.ConnectBi(front, hall, room)
	b.ConnectBi(side, hall, room)
	g := itgraph.MustNew(b.MustBuild())
	opts := core.Options{Method: core.MethodSyn}
	pool := New(g, Options{Engine: opts, SkeletonCache: true})
	seq := core.NewEngine(g, opts)

	// Endpoint pair k of the one hall -> room partition pair.
	query := func(k int, at temporal.TimeOfDay) core.Query {
		d := float64(k)
		return core.Query{Source: geom.Pt(2+d, 5+d/2, 0), Target: geom.Pt(18-d, 5+d/2, 0), At: at}
	}
	noon := temporal.Clock(12, 0, 0)

	miss := func(step string, q core.Query) {
		t.Helper()
		before := probeBooksOf(pool)
		if r, ok := pool.Probe(nil, q); ok {
			t.Fatalf("%s: probe hit %q on an uncached query", step, r.Hit)
		}
		if after := probeBooksOf(pool); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: a probe miss booked something:\n before %+v\n after  %+v", step, before, after)
		}
	}
	hit := func(step string, q core.Query, want Hit) {
		t.Helper()
		before := probeBooksOf(pool)
		r, ok := pool.Probe(nil, q)
		if !ok || r.Hit != want || !r.CacheHit {
			t.Fatalf("%s: probe = (hit %q, ok %v), want a %q hit", step, r.Hit, ok, want)
		}
		wantPath, _, err := seq.Route(q)
		if err != nil || !reflect.DeepEqual(r.Path, wantPath) {
			t.Fatalf("%s: probe answer differs from a fresh search (err %v)", step, err)
		}
		after := probeBooksOf(pool)
		tiers := [2]int64{ // exact, skeleton deltas
			after.stats.CacheHits - before.stats.CacheHits,
			after.stats.SkeletonHits - before.stats.SkeletonHits,
		}
		wantTiers := map[Hit][2]int64{HitExact: {1, 0}, HitSkeleton: {0, 1}}[want]
		if after.stats.Queries-before.stats.Queries != 1 || tiers != wantTiers ||
			after.stats.EngineSearches != before.stats.EngineSearches ||
			after.stats.FamilyBuilds != before.stats.FamilyBuilds ||
			after.stats.Deduped != before.stats.Deduped ||
			after.stats.Reasons != before.stats.Reasons {
			t.Fatalf("%s: pool booked %+v -> %+v, want one query and one %q hit", step, before.stats, after.stats, want)
		}
		loadTiers := [2]int64{
			after.load.ExactHits - before.load.ExactHits,
			after.load.SkeletonHits - before.load.SkeletonHits,
		}
		if after.load.Queries-before.load.Queries != 1 || loadTiers != wantTiers {
			t.Fatalf("%s: load ring booked %+v -> %+v", step, before.load, after.load)
		}
		pairTiers := [2]int64{
			after.pairs.ExactHits - before.pairs.ExactHits,
			after.pairs.SkeletonHits - before.pairs.SkeletonHits,
		}
		if after.pairs.Queries-before.pairs.Queries != 1 || pairTiers != wantTiers ||
			after.pairs.EngineSearches != before.pairs.EngineSearches {
			t.Fatalf("%s: hot pairs booked %+v -> %+v", step, before.pairs, after.pairs)
		}
	}

	miss("empty pool", query(0, noon))
	pool.RouteResult(query(0, noon)) // stores the exact entry, records the pair's miss
	hit("exact", query(0, noon), HitExact)
	miss("shifted departure, no family yet", query(0, noon+1800))
	miss("other endpoints, no family yet", query(1, noon))
	pool.RouteResult(query(1, noon)) // the pair's repeat miss builds its family
	hit("skeleton", query(2, noon), HitSkeleton)
	hit("skeleton, shifted departure", query(0, noon+1800), HitSkeleton)
	miss("uncacheable", core.Query{Source: geom.Pt(-5, -5, 0), Target: geom.Pt(15, 5, 0), At: noon})

	// The partition still closes over probe-booked traffic.
	st := pool.Stats()
	if st.CacheHits+st.SkeletonHits+st.CacheMisses()+st.Deduped != st.Queries || st.CacheMisses() != 2 {
		t.Fatalf("stats do not partition into 3 probe hits and 2 misses: %+v", st)
	}
}

// TestPoolProbeTraced: a probe hit records exactly one probe span; a
// probe miss records none (the search path that answers it probes and
// records again).
func TestPoolProbeTraced(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}})
	o := obs.NewObserver(obs.ObserverOptions{})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}

	tr := o.NewTrace()
	if _, ok := pool.Probe(tr, q); ok {
		t.Fatal("probe hit on an empty pool")
	}
	if doc := tr.Doc(obs.RequestInfo{}); len(doc.Spans) != 0 {
		t.Fatalf("probe miss recorded spans: %+v", doc.Spans)
	}
	pool.RouteResult(q)
	tr = o.NewTrace()
	if _, ok := pool.Probe(tr, q); !ok {
		t.Fatal("probe missed a cached query")
	}
	if doc := tr.Doc(obs.RequestInfo{}); len(doc.Spans) != 1 || doc.Spans[0].Stage != "probe" {
		t.Fatalf("probe hit spans = %+v, want one probe span", doc.Spans)
	}
}

// TestPoolProbeSkipsPendingBuild: Probe runs on the request goroutine
// before any deadline applies, so a pair whose family build is in
// flight must read as a prompt miss, not wait out the build.
func TestPoolProbeSkipsPendingBuild(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, SkeletonCache: true})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	b := pool.backend.Load()
	key, _, cacheable := keysFor(b, q)
	if !cacheable || key.src == key.tgt {
		t.Fatalf("query must cross a cacheable partition pair: key %+v", key)
	}
	fk := pool.familyKey(key)
	b.evidence.repeat(fk)
	if !b.evidence.claimBuild(fk) {
		t.Fatal("could not claim the family build")
	}
	defer b.evidence.endBuild(fk)
	if b.evidence.pending(fk) == nil {
		t.Fatal("claimed build is not pending")
	}

	type probed struct {
		r  Result
		ok bool
	}
	done := make(chan probed, 1)
	go func() {
		r, ok := pool.Probe(nil, q)
		done <- probed{r, ok}
	}()
	select {
	case got := <-done:
		if got.ok {
			t.Fatalf("probe hit %q while the family was still being built", got.r.Hit)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Probe blocked on an in-flight family build")
	}
	if st := pool.Stats(); st.Queries != 0 {
		t.Fatalf("a probe miss booked %d queries", st.Queries)
	}
}
