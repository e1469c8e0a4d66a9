// Benchmarks regenerating every figure of the paper's evaluation
// (Liu et al., ICDE 2020, Sec. III) as go-test benchmarks. Each figure
// also has a row-printing runner in cmd/experiments; these benches give
// per-setting ns/op + allocs under the standard Go benchmark harness.
//
//	go test -bench=. -benchmem
//
// Venue scale follows the paper defaults (5-floor mall, |T|=8,
// δs2t=1500 m, t=12:00; 5 query instances per setting). Shapes to
// compare against the paper: Fig. 4 flat in |T| at t=12 and decreasing
// at t=8; Fig. 5 mildly increasing in δs2t; Fig. 6/7 low at night with
// a 10:00–20:00 plateau; ITG/A at or below ITG/S throughout.
package indoorpath_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	indoorpath "indoorpath"
	"indoorpath/internal/server"
)

// testbed bundles a generated venue with its graph and query set.
type testbed struct {
	graph   *indoorpath.Graph
	queries []indoorpath.Query
}

func newTestbed(b *testing.B, floors, tSize int, s2t float64, at indoorpath.TimeOfDay) *testbed {
	b.Helper()
	m, err := indoorpath.GenerateMall(indoorpath.MallConfig{
		Floors: floors,
		Seed:   42,
		ATI:    indoorpath.ATIConfig{CheckpointCount: tSize, Seed: 43},
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := indoorpath.NewGraph(m.Venue)
	if err != nil {
		b.Fatal(err)
	}
	qis, err := indoorpath.GenerateQueries(m, g, indoorpath.QueryConfig{S2T: s2t, Count: 5, Seed: 44})
	if err != nil {
		b.Fatal(err)
	}
	tb := &testbed{graph: g}
	for _, qi := range qis {
		tb.queries = append(tb.queries, indoorpath.Query{Source: qi.Source, Target: qi.Target, At: at})
	}
	return tb
}

func (tb *testbed) atTime(at indoorpath.TimeOfDay) []indoorpath.Query {
	out := make([]indoorpath.Query, len(tb.queries))
	for i, q := range tb.queries {
		q.At = at
		out[i] = q
	}
	return out
}

// runQueries is the timed kernel: route the query set round-robin,
// reporting the modelled working set (the paper's Fig. 7 metric) as a
// custom benchmark metric.
func runQueries(b *testing.B, g *indoorpath.Graph, method indoorpath.Method, qs []indoorpath.Query) {
	b.Helper()
	e := indoorpath.NewEngine(g, indoorpath.Options{Method: method})
	for _, q := range qs { // warmup: snapshots, allocator
		if _, _, err := e.RouteOrNil(q); err != nil {
			b.Fatal(err)
		}
	}
	var estBytes float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := e.RouteOrNil(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		estBytes += float64(st.BytesEstimate)
	}
	b.StopTimer()
	b.ReportMetric(estBytes/float64(b.N)/1024, "estKB/query")
}

var figMethods = []struct {
	name string
	m    indoorpath.Method
}{
	{"ITG-S", indoorpath.MethodSyn},
	{"ITG-A", indoorpath.MethodAsyn},
}

// BenchmarkFig4TimeVsCheckpoints regenerates Fig. 4: search time vs |T|
// for both methods at t=12:00 and t=8:00.
func BenchmarkFig4TimeVsCheckpoints(b *testing.B) {
	for _, tSize := range []int{4, 8, 12, 16} {
		tb := newTestbed(b, 5, tSize, 1500, indoorpath.Clock(12, 0, 0))
		for _, at := range []indoorpath.TimeOfDay{indoorpath.Clock(12, 0, 0), indoorpath.Clock(8, 0, 0)} {
			qs := tb.atTime(at)
			for _, fm := range figMethods {
				b.Run(fmt.Sprintf("T=%d/t=%v/%s", tSize, at, fm.name), func(b *testing.B) {
					runQueries(b, tb.graph, fm.m, qs)
				})
			}
		}
	}
}

// BenchmarkFig5TimeVsDistance regenerates Fig. 5: search time vs δs2t.
func BenchmarkFig5TimeVsDistance(b *testing.B) {
	for _, s2t := range []float64{1100, 1300, 1500, 1700, 1900} {
		tb := newTestbed(b, 5, 8, s2t, indoorpath.Clock(12, 0, 0))
		for _, fm := range figMethods {
			b.Run(fmt.Sprintf("s2t=%.0f/%s", s2t, fm.name), func(b *testing.B) {
				runQueries(b, tb.graph, fm.m, tb.queries)
			})
		}
	}
}

// BenchmarkFig6TimeVsQueryTime regenerates Fig. 6: search time vs t
// over the day (0:00–22:00 in 2 h steps).
func BenchmarkFig6TimeVsQueryTime(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	for hour := 0; hour <= 22; hour += 2 {
		qs := tb.atTime(indoorpath.Clock(hour, 0, 0))
		for _, fm := range figMethods {
			b.Run(fmt.Sprintf("t=%d/%s", hour, fm.name), func(b *testing.B) {
				runQueries(b, tb.graph, fm.m, qs)
			})
		}
	}
}

// BenchmarkFig7MemoryVsQueryTime regenerates Fig. 7: memory cost vs t.
// The estKB/query metric is the figure's series; -benchmem B/op gives
// the live allocation view.
func BenchmarkFig7MemoryVsQueryTime(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	for hour := 0; hour <= 22; hour += 4 {
		qs := tb.atTime(indoorpath.Clock(hour, 0, 0))
		for _, fm := range figMethods {
			b.Run(fmt.Sprintf("t=%d/%s", hour, fm.name), func(b *testing.B) {
				runQueries(b, tb.graph, fm.m, qs)
			})
		}
	}
}

// BenchmarkAblationEagerHeap measures A1: the literal Algorithm 1
// initialisation (every door enheaped at ∞) vs lazy insertion.
func BenchmarkAblationEagerHeap(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	for _, variant := range []struct {
		name  string
		eager bool
	}{{"lazy", false}, {"eager", true}} {
		b.Run(variant.name, func(b *testing.B) {
			e := indoorpath.NewEngine(tb.graph, indoorpath.Options{
				Method: indoorpath.MethodSyn, EagerHeapInit: variant.eager,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RouteOrNil(tb.queries[i%len(tb.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDistanceMatrix measures A3: DM lookup vs on-the-fly
// Euclidean recomputation.
func BenchmarkAblationDistanceMatrix(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	for _, variant := range []struct {
		name string
		noDM bool
	}{{"dm-lookup", false}, {"recompute", true}} {
		b.Run(variant.name, func(b *testing.B) {
			e := indoorpath.NewEngine(tb.graph, indoorpath.Options{
				Method: indoorpath.MethodSyn, NoDistanceMatrix: variant.noDM,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RouteOrNil(tb.queries[i%len(tb.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckerMicro measures A2: the isolated per-door cost
// of the synchronous ATI probe vs the asynchronous snapshot probe.
func BenchmarkAblationCheckerMicro(b *testing.B) {
	tb := newTestbed(b, 1, 8, 750, indoorpath.Clock(12, 0, 0))
	venue := tb.graph.Venue()
	at := indoorpath.Clock(12, 0, 0)
	b.Run("syn-ati-probe", func(b *testing.B) {
		doors := venue.Doors()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			if doors[i%len(doors)].OpenAt(at) {
				n++
			}
		}
		_ = n
	})
	b.Run("asyn-snapshot-probe", func(b *testing.B) {
		snap := tb.graph.Snapshots().At(at)
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			if snap.DoorOpen(indoorpath.DoorID(i % venue.DoorCount())) {
				n++
			}
		}
		_ = n
	})
}

// BenchmarkAblationPartitionExpansion measures A6: exact multi-entry
// partition expansion (default, optimal paths) vs the literal "visited
// partitions" pruning of Algorithm 1 (faster, can return longer paths).
func BenchmarkAblationPartitionExpansion(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	for _, variant := range []struct {
		name    string
		literal bool
	}{{"exact", false}, {"literal", true}} {
		b.Run(variant.name, func(b *testing.B) {
			e := indoorpath.NewEngine(tb.graph, indoorpath.Options{
				Method: indoorpath.MethodSyn, SinglePartitionExpansion: variant.literal,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RouteOrNil(tb.queries[i%len(tb.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFloors measures A5: venue scaling.
func BenchmarkAblationFloors(b *testing.B) {
	for _, floors := range []int{1, 3, 5, 7} {
		s2t := 1500.0
		if floors == 1 {
			s2t = 750
		}
		tb := newTestbed(b, floors, 8, s2t, indoorpath.Clock(12, 0, 0))
		for _, fm := range figMethods {
			b.Run(fmt.Sprintf("floors=%d/%s", floors, fm.name), func(b *testing.B) {
				runQueries(b, tb.graph, fm.m, tb.queries)
			})
		}
	}
}

// BenchmarkAblationPrivateFraction measures A4: effect of private
// partitions on search (they prune expansion).
func BenchmarkAblationPrivateFraction(b *testing.B) {
	for _, private := range []int{1, 10, 30} {
		m, err := indoorpath.GenerateMall(indoorpath.MallConfig{
			Floors: 3, Seed: 42, PrivateShopsPerFloor: private,
			ATI: indoorpath.ATIConfig{CheckpointCount: 8, Seed: 43},
		})
		if err != nil {
			b.Fatal(err)
		}
		g, err := indoorpath.NewGraph(m.Venue)
		if err != nil {
			b.Fatal(err)
		}
		qis, err := indoorpath.GenerateQueries(m, g, indoorpath.QueryConfig{S2T: 1500, Count: 5, Seed: 44})
		if err != nil {
			b.Fatal(err)
		}
		var qs []indoorpath.Query
		for _, qi := range qis {
			qs = append(qs, indoorpath.Query{Source: qi.Source, Target: qi.Target, At: indoorpath.Clock(12, 0, 0)})
		}
		b.Run(fmt.Sprintf("private=%d", private), func(b *testing.B) {
			runQueries(b, g, indoorpath.MethodSyn, qs)
		})
	}
}

// BenchmarkPoolRoute measures concurrent serving throughput: N worker
// goroutines hammer one shared ServicePool (one shared graph, pooled
// engines) over the synth-mall workload at many departure times. The
// result cache is disabled so every query is a real search — the
// queries/s metric is pure engine-pool scaling, expected to grow
// roughly linearly in workers up to the core count.
func BenchmarkPoolRoute(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	// Spread the OD pairs over the day so concurrent workers touch many
	// snapshot slots, not one.
	var qs []indoorpath.Query
	for hour := 0; hour <= 22; hour += 2 {
		qs = append(qs, tb.atTime(indoorpath.Clock(hour, 0, 0))...)
	}
	tb.graph.Snapshots().BuildAll() // amortise Graph_Update outside the timed section
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
				Engine:        indoorpath.Options{Method: indoorpath.MethodAsyn},
				Workers:       workers,
				CacheCapacity: -1,
			})
			for _, q := range qs { // warmup: engines, allocator
				if _, _, err := pool.Route(q); err != nil && err != indoorpath.ErrNoRoute {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := int(next.Add(1)) - 1
						if n >= b.N {
							return
						}
						if _, _, err := pool.Route(qs[n%len(qs)]); err != nil && err != indoorpath.ErrNoRoute {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "queries/s")
			}
		})
	}
}

// BenchmarkPoolRouteTraceOverhead pins the cost of DISABLED tracing on
// the serving hot path: RouteTraced with a nil trace must cost exactly
// what Route costs — on a warm cache hit, zero allocations. The
// benchmark self-checks (allocs/op of the traced entry point must not
// exceed the untraced baseline, and the baseline must be 0) so a
// regression fails the bench run rather than just shifting a number.
func BenchmarkPoolRouteTraceOverhead(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	pool := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
		Engine: indoorpath.Options{Method: indoorpath.MethodAsyn},
	})
	q := tb.queries[0]
	if r := pool.RouteResult(q); r.Err != nil && r.Err != indoorpath.ErrNoRoute {
		b.Fatal(r.Err) // warm the exact cache
	}
	base := testing.AllocsPerRun(200, func() { pool.RouteResult(q) })
	traced := testing.AllocsPerRun(200, func() { pool.RouteTraced(nil, q) })
	if traced > base {
		b.Fatalf("nil-trace route allocates %v allocs/op vs %v untraced", traced, base)
	}
	if base != 0 {
		b.Fatalf("warm cache-hit route allocates %v allocs/op, want 0", base)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.RouteTraced(nil, q)
	}
}

// Allocation pins of the engine core: a warm engine's search allocates
// only what it returns. A found Route returns one *Path with its door,
// partition and arrival slices; a skeleton family is the family value,
// its chain slice, and per chain the *Skeleton with its door, partition
// and leg slices.
const (
	routeAllocs          = 4
	familyAllocs         = 2
	familyAllocsPerChain = 4
)

var allocMethods = []struct {
	name string
	m    indoorpath.Method
}{
	{"ITG-S", indoorpath.MethodSyn},
	{"ITG-A", indoorpath.MethodAsyn},
	{"Static", indoorpath.MethodStatic},
}

// BenchmarkEngineRouteAllocs pins Engine.Route on the mall testbed at
// routeAllocs allocations per query once the engine is warm (its dense
// search state sized by a first search). The benchmark self-checks
// every testbed query under every method, so a regression fails the
// bench run rather than just shifting a number.
func BenchmarkEngineRouteAllocs(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	for _, am := range allocMethods {
		b.Run(am.name, func(b *testing.B) {
			e := indoorpath.NewEngine(tb.graph, indoorpath.Options{Method: am.m})
			for _, q := range tb.queries { // warm-up: sizes the search state
				if _, _, err := e.RouteOrNil(q); err != nil {
					b.Fatal(err)
				}
			}
			for i, q := range tb.queries {
				if got := testing.AllocsPerRun(20, func() { e.RouteOrNil(q) }); got > routeAllocs {
					b.Fatalf("query %d: warm Route allocates %v allocs/op, want <= %d", i, got, routeAllocs)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RouteOrNil(tb.queries[i%len(tb.queries)])
			}
		})
	}
}

// BenchmarkSkeletonFamilyAllocs pins Engine.BuildSkeletonFamily on the
// testbed queries' partition pairs at familyAllocs plus
// familyAllocsPerChain per chain once the engine is warm: the per-entry
// Dijkstra runs reuse the engine's search state. Self-checking like
// BenchmarkEngineRouteAllocs.
func BenchmarkSkeletonFamilyAllocs(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	v := tb.graph.Venue()
	type pair struct{ src, tgt indoorpath.PartitionID }
	var pairs []pair
	for _, q := range tb.queries {
		sp, ok1 := v.Locate(q.Source)
		tp, ok2 := v.Locate(q.Target)
		if !ok1 || !ok2 {
			b.Fatal("testbed query endpoint not indoor")
		}
		pairs = append(pairs, pair{sp, tp})
	}
	at := indoorpath.Clock(12, 0, 0)
	for _, am := range allocMethods {
		b.Run(am.name, func(b *testing.B) {
			e := indoorpath.NewEngine(tb.graph, indoorpath.Options{Method: am.m})
			chains := 0
			for i, p := range pairs {
				fam := e.BuildSkeletonFamily(p.src, p.tgt, at) // also the warm-up
				if fam == nil {
					continue
				}
				chains += len(fam.Chains)
				want := float64(familyAllocs + familyAllocsPerChain*len(fam.Chains))
				if got := testing.AllocsPerRun(5, func() { e.BuildSkeletonFamily(p.src, p.tgt, at) }); got > want {
					b.Fatalf("pair %d: warm family build allocates %v allocs/op for %d chains, want <= %v",
						i, got, len(fam.Chains), want)
				}
			}
			if chains == 0 {
				b.Fatal("no testbed pair built a family: the pin checked nothing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				e.BuildSkeletonFamily(p.src, p.tgt, at)
			}
		})
	}
}

// BenchmarkPoolRouteBatch measures the batch path: one RouteBatch call
// fanning a mixed-time batch (with duplicates) out over the worker
// group, with deduplication and caching enabled — the expected serving
// configuration.
func BenchmarkPoolRouteBatch(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	var batch []indoorpath.Query
	for hour := 0; hour <= 22; hour += 2 {
		batch = append(batch, tb.atTime(indoorpath.Clock(hour, 0, 0))...)
	}
	batch = append(batch, batch[:len(batch)/4]...) // duplicate tail: dedup work
	tb.graph.Snapshots().BuildAll()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
				Engine:  indoorpath.Options{Method: indoorpath.MethodAsyn},
				Workers: workers,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.InvalidateCache() // each iteration recomputes the batch
				rs := pool.RouteBatch(batch)
				for _, r := range rs {
					if r.Err != nil && r.Err != indoorpath.ErrNoRoute {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*len(batch))/secs, "queries/s")
			}
		})
	}
}

// BenchmarkPoolRouteSweep measures the validity-window cache on its
// motivating workload: a fine departure-time sweep of fixed OD pairs
// (the time-sweep / rush-hour shape where thousands of queries differ
// only in departure). The exact cache gets zero reuse here — every
// departure is a distinct key — while the window cache serves every
// same-slot repeat from one search. Compare the windowHits/op and
// searches/op metrics across the two sub-benchmarks: window must show
// hits > 0 and strictly fewer engine searches (the invariant is also
// test-enforced in internal/service TestWindowPoolSweepBeatsExact).
func BenchmarkPoolRouteSweep(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	// One day sweep per OD pair at 5-minute steps.
	var batch []indoorpath.Query
	for _, q := range tb.queries {
		for min := 0; min < 24*60; min += 5 {
			q.At = indoorpath.TimeOfDay(min * 60)
			batch = append(batch, q)
		}
	}
	for _, mode := range []struct {
		name   string
		window bool
	}{{"exact", false}, {"window", true}} {
		b.Run(mode.name, func(b *testing.B) {
			pool := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
				Engine:      indoorpath.Options{Method: indoorpath.MethodAsyn},
				Workers:     4,
				WindowCache: mode.window,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.InvalidateCache() // each iteration recomputes the sweep
				for _, r := range pool.RouteBatch(batch) {
					if r.Err != nil && r.Err != indoorpath.ErrNoRoute {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			st := pool.Stats()
			b.ReportMetric(float64(st.WindowHits)/float64(b.N), "windowHits/op")
			b.ReportMetric(float64(st.CacheMisses())/float64(b.N), "searches/op")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*len(batch))/secs, "queries/s")
			}
			if mode.window && st.WindowHits == 0 {
				b.Fatalf("window sweep served no window hits: %v", st)
			}
		})
	}
}

// BenchmarkPoolRouteBatchShared measures the shared-execution batch
// planner on its motivating workload: one source (a crowd position)
// fanning out to 64 distinct targets at one departure — rush-hour
// traffic to the gates. Unshared, the batch costs one engine search
// per distinct target; with SharedBatch the whole fan-out is answered
// by ONE multi-target run (searches/op ≈ 1 vs 64). The ≥2× search
// reduction is self-checked via Stats.SharedRuns / EngineSearches, and
// answers remain byte-identical to the sequential engine (the oracle
// suite in internal/service proves that; here we check the counters).
func BenchmarkPoolRouteBatchShared(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	v := tb.graph.Venue()
	src := tb.queries[0].Source
	var batch []indoorpath.Query
	for _, part := range v.Partitions() {
		if part.Kind != indoorpath.PublicPartition {
			continue
		}
		r := part.Rect
		c := indoorpath.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2, part.Floor())
		batch = append(batch, indoorpath.Query{Source: src, Target: c, At: indoorpath.Clock(12, 0, 0)})
		if len(batch) == 64 {
			break
		}
	}
	if len(batch) != 64 {
		b.Fatalf("only %d public-partition targets", len(batch))
	}
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"unshared", false}, {"shared", true}} {
		b.Run(mode.name, func(b *testing.B) {
			pool := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
				Engine:      indoorpath.Options{Method: indoorpath.MethodAsyn},
				Workers:     4,
				SharedBatch: mode.shared,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.InvalidateCache() // each iteration recomputes the batch
				rs, _ := pool.RouteBatchSummary(batch)
				for _, r := range rs {
					if r.Err != nil && r.Err != indoorpath.ErrNoRoute {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			st := pool.Stats()
			b.ReportMetric(float64(st.EngineSearches)/float64(b.N), "searches/op")
			b.ReportMetric(float64(st.SharedRuns)/float64(b.N), "sharedRuns/op")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*len(batch))/secs, "queries/s")
			}
			if mode.shared {
				if st.SharedRuns == 0 || st.SharedRuns >= int64(len(batch)) {
					b.Fatalf("shared runs out of range (want 0 < runs < %d per batch): %v", len(batch), st)
				}
				if st.EngineSearches*2 > st.Queries {
					b.Fatalf("shared batch did not at least halve engine searches: %v", st)
				}
			} else if st.SharedRuns != 0 {
				b.Fatalf("unshared pool reported shared runs: %v", st)
			}
		})
	}
}

// BenchmarkPoolRouteNeighborhood measures the skeleton-family store on
// its motivating workload: a crowd of queries between one hot
// partition pair where every endpoint is independently jittered — no
// two queries share an exact point, so the exact and window caches get
// zero reuse and only door-to-door skeleton composition can absorb the
// load. Compare skeletonHits/op and searches/op across the two
// sub-benchmarks; skeleton mode self-checks hits > 0 and at most half
// an engine search per query, so a regression fails the bench run
// rather than just shifting a number.
func BenchmarkPoolRouteNeighborhood(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	v := tb.graph.Venue()
	// Pick the first testbed OD pair that actually routes at noon; its
	// endpoint partitions are the hot pair the crowd queries between.
	probe := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
		Engine: indoorpath.Options{Method: indoorpath.MethodAsyn}, CacheCapacity: -1,
	})
	var base indoorpath.Query
	routable := false
	for _, q := range tb.queries {
		if r := probe.RouteResult(q); r.Err == nil {
			base, routable = q, true
			break
		}
	}
	if !routable {
		b.Fatal("no routable testbed query at noon")
	}
	partRect := func(p indoorpath.Point) indoorpath.Rect {
		for _, part := range v.Partitions() {
			r := part.Rect
			if part.Floor() == p.Floor && p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY {
				return r
			}
		}
		b.Fatalf("no partition contains %v", p)
		return indoorpath.Rect{}
	}
	srcRect, tgtRect := partRect(base.Source), partRect(base.Target)
	jitter := func(rng *rand.Rand, r indoorpath.Rect) indoorpath.Point {
		mx, my := r.Width()*0.1, r.Height()*0.1
		return indoorpath.Pt(
			r.MinX+mx+rng.Float64()*(r.Width()-2*mx),
			r.MinY+my+rng.Float64()*(r.Height()-2*my),
			r.Floor)
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]indoorpath.Query, 256)
	for i := range batch {
		batch[i] = indoorpath.Query{Source: jitter(rng, srcRect), Target: jitter(rng, tgtRect), At: base.At}
	}
	for _, mode := range []struct {
		name     string
		skeleton bool
	}{{"exact", false}, {"skeleton", true}} {
		b.Run(mode.name, func(b *testing.B) {
			pool := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
				Engine:        indoorpath.Options{Method: indoorpath.MethodAsyn},
				Workers:       4,
				SkeletonCache: mode.skeleton,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.InvalidateCache() // each iteration recomputes the crowd
				for _, r := range pool.RouteBatch(batch) {
					if r.Err != nil && r.Err != indoorpath.ErrNoRoute {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			st := pool.Stats()
			b.ReportMetric(float64(st.SkeletonHits)/float64(b.N), "skeletonHits/op")
			b.ReportMetric(float64(st.EngineSearches)/float64(b.N), "searches/op")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*len(batch))/secs, "queries/s")
			}
			if mode.skeleton {
				if st.SkeletonHits == 0 {
					b.Fatalf("jittered crowd composed nothing: %v", st)
				}
				if 2*st.EngineSearches > st.Queries {
					b.Fatalf("skeleton crowd did not halve engine searches: %v", st)
				}
			} else if st.SkeletonHits != 0 {
				b.Fatalf("skeleton hits without SkeletonCache: %v", st)
			}
		})
	}
}

// BenchmarkPoolRouteFreshPairs measures the skeleton store on the
// workload it must not tax: partition pairs that never repeat, so a
// skeleton family built for one would never be reused. Each op routes
// 64 routable queries between 64 distinct (source, target) partition
// pairs of the mall testbed, all in one checkpoint slot, through a
// fresh skeleton-cache pool. A family needs repeat evidence, so the
// benchmark self-checks that no family is built and that engine runs
// (searches plus builds) never exceed queries — a regression fails the
// bench run rather than just shifting a number.
func BenchmarkPoolRouteFreshPairs(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	parts := tb.graph.Venue().Partitions()
	probe := indoorpath.NewEngine(tb.graph, indoorpath.Options{Method: indoorpath.MethodAsyn})
	rng := rand.New(rand.NewSource(11))
	seen := make(map[[2]int]bool)
	var qs []indoorpath.Query
	for tries := 0; len(qs) < 64 && tries < 10000; tries++ {
		i, j := rng.Intn(len(parts)), rng.Intn(len(parts))
		if i == j || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		q := indoorpath.Query{Source: parts[i].Rect.Center(), Target: parts[j].Rect.Center(), At: indoorpath.Clock(12, 0, 0)}
		if _, _, err := probe.Route(q); err == nil {
			qs = append(qs, q)
		}
	}
	if len(qs) < 64 {
		b.Fatalf("only %d routable distinct partition pairs at noon", len(qs))
	}
	var total indoorpath.PoolStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := indoorpath.NewPool(tb.graph, indoorpath.PoolOptions{
			Engine:        indoorpath.Options{Method: indoorpath.MethodAsyn},
			SkeletonCache: true,
		})
		for _, q := range qs {
			if r := pool.RouteResult(q); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		st := pool.Stats()
		total.Queries += st.Queries
		total.EngineSearches += st.EngineSearches
		total.FamilyBuilds += st.FamilyBuilds
	}
	b.StopTimer()
	b.ReportMetric(float64(total.EngineSearches)/float64(b.N), "searches/op")
	b.ReportMetric(float64(total.FamilyBuilds)/float64(b.N), "builds/op")
	if total.FamilyBuilds != 0 {
		b.Fatalf("never-repeating pairs built %d skeleton families over %d queries", total.FamilyBuilds, total.Queries)
	}
	if total.EngineSearches+total.FamilyBuilds > total.Queries {
		b.Fatalf("engine runs %d exceed queries %d", total.EngineSearches+total.FamilyBuilds, total.Queries)
	}
}

// serverBenchSetup boots the HTTP serving stack (registry + server +
// httptest listener) over the synth-mall testbed with caching disabled,
// so every request is a real search and the delta against
// BenchmarkPoolRoute is pure HTTP/JSON overhead.
func serverBenchSetup(b *testing.B, tb *testbed, workers int) (*httptest.Server, [][]byte) {
	b.Helper()
	reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{
		Workers:       workers,
		CacheCapacity: -1,
	})
	if err := reg.AddGraph("mall", tb.graph, "bench"); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(indoorpath.NewServer(reg, indoorpath.ServerOptions{}))
	b.Cleanup(ts.Close)

	var qs []indoorpath.Query
	for hour := 0; hour <= 22; hour += 2 {
		qs = append(qs, tb.atTime(indoorpath.Clock(hour, 0, 0))...)
	}
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		body, err := json.Marshal(map[string]any{
			"from": map[string]any{"x": q.Source.X, "y": q.Source.Y, "floor": q.Source.Floor},
			"to":   map[string]any{"x": q.Target.X, "y": q.Target.Y, "floor": q.Target.Floor},
			"at":   q.At.String(),
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return ts, bodies
}

// BenchmarkServerRoute measures end-to-end HTTP serving throughput: N
// client goroutines POST /v1/venues/{id}/route against the daemon
// stack. Compare queries/s against BenchmarkPoolRoute to read off the
// HTTP/JSON overhead per query.
func BenchmarkServerRoute(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ts, bodies := serverBenchSetup(b, tb, workers)
			url := ts.URL + "/v1/venues/mall/route"
			client := ts.Client()
			post := func(body []byte) error {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				return nil
			}
			for _, body := range bodies { // warmup: engines, conns
				if err := post(body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := int(next.Add(1)) - 1
						if n >= b.N {
							return
						}
						if err := post(bodies[n%len(bodies)]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "queries/s")
			}
		})
	}
}

// BenchmarkServerRouteBatch measures the batch endpoint: one POST
// /route:batch per iteration carrying the whole mixed-time batch (with
// a duplicate tail), fanned out server-side over the pool's workers.
func BenchmarkServerRouteBatch(b *testing.B) {
	tb := newTestbed(b, 5, 8, 1500, indoorpath.Clock(12, 0, 0))
	tb.graph.Snapshots().BuildAll()
	var qs []indoorpath.Query
	for hour := 0; hour <= 22; hour += 2 {
		qs = append(qs, tb.atTime(indoorpath.Clock(hour, 0, 0))...)
	}
	qs = append(qs, qs[:len(qs)/4]...) // duplicate tail: dedup work
	queries := make([]map[string]any, len(qs))
	for i, q := range qs {
		queries[i] = map[string]any{
			"from": map[string]any{"x": q.Source.X, "y": q.Source.Y, "floor": q.Source.Floor},
			"to":   map[string]any{"x": q.Target.X, "y": q.Target.Y, "floor": q.Target.Floor},
			"at":   q.At.String(),
		}
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ts, _ := serverBenchSetup(b, tb, workers)
			url := ts.URL + "/v1/venues/mall/route:batch"
			client := ts.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*len(qs))/secs, "queries/s")
			}
		})
	}
}

// BenchmarkServerRouteCoalesced measures the standing cross-batch
// coalescer under its target workload: a burst of concurrent solo
// /route requests sharing one source and departure, each on its own
// HTTP request. With -coalesce semantics on (ServerOptions.Coalesce)
// the requests accumulate for a few milliseconds and flush as ONE
// shared engine run; caching is disabled so every answer must come
// from an engine, making Stats.EngineSearches/Queries the honest
// sharing ratio. Self-checks: searches per query < 0.5 on the
// 64-client burst, coalesced groups actually formed, and no hold
// pathologically exceeding the configured window.
func BenchmarkServerRouteCoalesced(b *testing.B) {
	const (
		clients = 64
		hold    = 5 * time.Millisecond
	)
	for _, coalesced := range []bool{false, true} {
		name := "coalesce=off"
		if coalesced {
			name = "coalesce=on"
		}
		b.Run(name, func(b *testing.B) {
			reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{
				SharedBatch:   true,
				CacheCapacity: -1, // every query costs an engine unless a run is shared
			})
			if err := reg.Add("hospital", indoorpath.Hospital()); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(indoorpath.NewServer(reg, indoorpath.ServerOptions{
				Coalesce:     coalesced,
				CoalesceHold: hold,
			}))
			b.Cleanup(ts.Close)
			url := ts.URL + "/v1/venues/hospital/route"
			client := ts.Client()

			// One source (the 24h ER entrance area), one departure, 64
			// distinct corridor targets: the canonical shareable-singleton
			// burst — every request alone justifies a full search, together
			// they justify one.
			bodies := make([][]byte, clients)
			for i := range bodies {
				body, err := json.Marshal(map[string]any{
					"from": map[string]any{"x": 30, "y": 10, "floor": 0},
					"to":   map[string]any{"x": 1 + float64(i)*0.9, "y": 24, "floor": 0},
					"at":   "11:00",
				})
				if err != nil {
					b.Fatal(err)
				}
				bodies[i] = body
			}
			post := func(body []byte) error {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				return nil
			}

			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				var wg sync.WaitGroup
				errs := make(chan error, clients)
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						if err := post(bodies[c]); err != nil {
							errs <- err
						}
					}(c)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
			b.StopTimer()

			var sr server.StatsResponse
			resp, err := client.Get(ts.URL + "/statsz")
			if err != nil {
				b.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			st := sr.Venues["hospital"].Methods["asyn"]
			queries := float64(st.Queries)
			if queries != float64(b.N*clients) {
				b.Fatalf("pool saw %v queries, want %d", queries, b.N*clients)
			}
			ratio := float64(st.EngineSearches) / queries
			b.ReportMetric(ratio, "searches/query")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(queries/secs, "queries/s")
			}
			if !coalesced {
				if st.EngineSearches != st.Queries {
					b.Fatalf("uncoalesced solo requests must each search: %+v", st)
				}
				return
			}
			// The acceptance bar: well under one engine run per query on
			// the shared-source burst.
			if ratio >= 0.5 {
				b.Fatalf("searches/query = %.3f, want < 0.5 (coalescing shared nothing): %+v", ratio, st)
			}
			cs := sr.Venues["hospital"].Coalesce["asyn"]
			if cs.Groups == 0 || cs.Answers == 0 {
				b.Fatalf("no coalesced groups recorded: %+v", cs)
			}
			// Latency bound sanity: holds are bounded by the window plus
			// scheduling noise; a max hold far beyond it means the flush
			// timer path is broken (generous grace for loaded CI runners).
			if maxHold := time.Duration(cs.MaxHoldNanos); maxHold > hold+time.Second {
				b.Fatalf("max hold %v far exceeds the %v window", maxHold, hold)
			}
			b.ReportMetric(float64(cs.MaxHoldNanos)/1e6, "max-hold-ms")
		})
	}
}

// BenchmarkGraphConstruction measures IT-Graph build cost (DM + labels)
// at paper scale.
func BenchmarkGraphConstruction(b *testing.B) {
	m, err := indoorpath.GenerateMall(indoorpath.MallConfig{Floors: 5, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := indoorpath.NewGraph(m.Venue); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotAccess measures steady-state snapshot lookups (the
// per-check cost of the asynchronous method once Graph_Update has run
// for each slot) at paper scale.
func BenchmarkSnapshotAccess(b *testing.B) {
	m, err := indoorpath.GenerateMall(indoorpath.MallConfig{Floors: 5, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	g, err := indoorpath.NewGraph(m.Venue)
	if err != nil {
		b.Fatal(err)
	}
	g.Snapshots().BuildAll()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		snap := g.Snapshots().At(indoorpath.TimeOfDay(i % 86400))
		if snap.DoorOpen(indoorpath.DoorID(i % m.Venue.DoorCount())) {
			n++
		}
	}
	_ = n
}
