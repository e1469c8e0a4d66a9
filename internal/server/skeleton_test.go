package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"indoorpath/internal/service"
)

// newSkeletonTestServer boots a hospital-only registry with the
// skeleton-family store enabled (and the shared batch planner, so
// SharedPartition waves plan).
func newSkeletonTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	reg := NewRegistry(service.Options{SkeletonCache: true, SharedBatch: true})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	t.Cleanup(ts.Close)
	return ts
}

// skelRoute posts one hospital route between explicit points and
// requires HTTP 200.
func skelRoute(t testing.TB, base string, from, to PointDoc, at string) RouteResponse {
	t.Helper()
	resp, raw := postJSON(t, base+"/v1/venues/hospital/route",
		map[string]any{"from": from, "to": to, "at": at})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route status = %d: %s", resp.StatusCode, raw)
	}
	var out RouteResponse
	decodeInto(t, raw, &out)
	return out
}

// TestSkeletonServerEndToEnd drives the CI-smoke scenario through the
// full HTTP stack: two ER-to-ward routes miss (the second, with
// repeat evidence, builds the pair's skeleton family), a third route
// between DIFFERENT points of the same partitions answers
// "hit":"skeleton", and every
// introspection surface tells the same story.
func TestSkeletonServerEndToEnd(t *testing.T) {
	ts := newSkeletonTestServer(t)

	first := skelRoute(t, ts.URL, erCentre, wardCentre, "10:30")
	if !first.Found || first.CacheHit || first.Hit != "miss" {
		t.Fatalf("first route = found %v hit %q, want an engine miss", first.Found, first.Hit)
	}
	// A second seeding miss at different points of the same pair is the
	// repeat evidence that builds the pair's family.
	skelRoute(t, ts.URL, PointDoc{X: 29, Y: 11, Floor: 0}, PointDoc{X: 6, Y: 35, Floor: 0}, "10:35")
	second := skelRoute(t, ts.URL, PointDoc{X: 27, Y: 13, Floor: 0}, PointDoc{X: 7, Y: 36, Floor: 0}, "10:40")
	if !second.Found || !second.CacheHit || second.Hit != "skeleton" {
		t.Fatalf("second route = found %v cache_hit %v hit %q, want a skeleton composition",
			second.Found, second.CacheHit, second.Hit)
	}
	if second.Path == nil || second.Path.LengthM <= 0 || len(second.Path.Doors) == 0 {
		t.Fatalf("skeleton answer path = %+v", second.Path)
	}

	// /statsz: the new hit class counts and the partition extends.
	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.SkeletonHits != 1 {
		t.Fatalf("statsz skeleton_hits = %d, want 1 (%+v)", st.SkeletonHits, st)
	}
	if st.CacheHits+st.WindowHits+st.SkeletonHits+st.Deduped+st.CacheMisses() != st.Queries {
		t.Fatalf("statsz partition broken: %+v", st)
	}

	// /loadz: the composition shows up in the trailing windows with a
	// non-zero derived rate.
	var lz LoadzResponse
	getJSON(t, ts.URL+"/loadz", &lz)
	ld := lz.Venues["hospital"]["asyn"][len(lz.Venues["hospital"]["asyn"])-1]
	if ld.SkeletonHits != 1 || ld.SkeletonHitRate <= 0 {
		t.Fatalf("loadz skeleton hits = %d rate = %v, want 1 and > 0", ld.SkeletonHits, ld.SkeletonHitRate)
	}
	if ld.ExactHits+ld.WindowHits+ld.SkeletonHits+ld.Deduped > ld.Queries {
		t.Fatalf("loadz partition broken: %+v", ld)
	}

	// /cachez: skeleton occupancy, per-pair coverage and the top-pair
	// tally all reflect the stored family.
	var cz CachezResponse
	getJSON(t, ts.URL+"/cachez", &cz)
	doc := cz.Venues["hospital"]["asyn"]
	if doc.Skeleton.Families < 1 || doc.Skeleton.Capacity <= 0 || doc.Skeleton.Families > doc.Skeleton.Capacity {
		t.Fatalf("skeleton occupancy = %+v", doc.Skeleton)
	}
	if doc.Skeleton.PairsTotal != 1 || len(doc.Skeleton.Pairs) != 1 {
		t.Fatalf("skeleton coverage = %+v, want the one driven pair", doc.Skeleton)
	}
	pair := doc.Skeleton.Pairs[0]
	if pair.Src != "emergency" || pair.Tgt != "ward-1" {
		t.Fatalf("skeleton pair = %s -> %s, want emergency -> ward-1", pair.Src, pair.Tgt)
	}
	if pair.Families < 1 || pair.Chains < pair.Families {
		t.Fatalf("skeleton pair row = %+v, want chains >= families >= 1", pair)
	}
	if pair.DayCoverage <= 0 || pair.DayCoverage > 1 {
		t.Fatalf("skeleton pair day_coverage = %v, want (0, 1]", pair.DayCoverage)
	}
	if len(doc.TopPairs) != 1 || doc.TopPairs[0].SkeletonHits != 1 {
		t.Fatalf("top pairs = %+v, want one row with skeleton_hits 1", doc.TopPairs)
	}

	// /metricsz: the same counters in Prometheus clothes.
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	body := string(raw)
	labels := `{venue="hospital",method="asyn"}`
	if got := metricValue(t, body, "indoorpath_pool_skeleton_hits_total"+labels); got != 1 {
		t.Fatalf("skeleton hits metric = %d, want 1", got)
	}
	if got := metricValue(t, body, "indoorpath_skeleton_families"+labels); got < 1 {
		t.Fatalf("skeleton families metric = %d, want >= 1", got)
	}
	if got := metricValue(t, body, "indoorpath_skeleton_capacity"+labels); got <= 0 {
		t.Fatalf("skeleton capacity metric = %d, want > 0", got)
	}
}

// TestSkeletonBatchWire: a jittered same-pair batch reports its
// skeleton compositions in the batch cache summary, and the summary
// partition extends with the new class.
func TestSkeletonBatchWire(t *testing.T) {
	ts := newSkeletonTestServer(t)
	const n = 8
	queries := make([]map[string]any, n)
	for i := range queries {
		queries[i] = map[string]any{
			"from": PointDoc{X: 22 + float64(i*2), Y: 3 + float64(i), Floor: 0},
			"to":   PointDoc{X: 1 + float64(i), Y: 30 + float64(i), Floor: 0},
			"at":   "11:00",
		}
	}
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route:batch",
		map[string]any{"queries": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	decodeInto(t, raw, &br)
	c := br.Cache
	if c.SkeletonHits == 0 {
		t.Fatalf("batch composed nothing: %+v", c)
	}
	if got := c.ExactHits + c.WindowHits + c.SkeletonHits + c.SharedAnswers + (c.Searches - c.SharedRuns); got > c.Queries {
		t.Fatalf("batch summary partition broken: %+v", c)
	}
	if 2*c.Searches > c.Queries {
		t.Fatalf("searches = %d over %d queries, want a collapsed wave", c.Searches, c.Queries)
	}
	skel := 0
	for i, r := range br.Results {
		if !r.Found || r.Error != nil {
			t.Fatalf("batch entry %d: %+v", i, r)
		}
		if r.Hit == "skeleton" {
			skel++
		}
	}
	if skel != c.SkeletonHits {
		t.Fatalf("per-entry skeleton hits %d != summary %d", skel, c.SkeletonHits)
	}
}

// TestRaceStatszSkeleton hammers a skeleton-enabled server with
// jittered same-pair traffic (distinct points every request, so only
// skeleton composition can serve repeats) while scraping /statsz and
// /cachez: the extended partition invariant must hold in every body.
func TestRaceStatszSkeleton(t *testing.T) {
	ts := newSkeletonTestServer(t)
	client := ts.Client()
	url := ts.URL + "/v1/venues/hospital/route"

	const goroutines, perG = 6, 40
	errc := make(chan error, goroutines+1)
	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var sr StatsResponse
			if _, err := post(client, http.MethodGet, ts.URL+"/statsz", nil, &sr); err != nil {
				continue
			}
			st := sr.Venues["hospital"].Methods["asyn"]
			if st.CacheHits+st.WindowHits+st.SkeletonHits+st.CacheMisses()+st.Deduped != st.Queries {
				errc <- fmt.Errorf("statsz does not partition: %+v", st)
				return
			}
			var cz CachezResponse
			if _, err := post(client, http.MethodGet, ts.URL+"/cachez", nil, &cz); err != nil {
				continue
			}
			doc := cz.Venues["hospital"]["asyn"]
			if doc.Skeleton.Families > doc.Skeleton.Capacity {
				errc <- fmt.Errorf("skeleton occupancy %d > capacity %d", doc.Skeleton.Families, doc.Skeleton.Capacity)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j := float64((seed*perG+i)%160) / 10 // 0.0 .. 15.9
				req := RouteRequest{
					From: &PointDoc{X: 21 + j, Y: 2 + j/2, Floor: 0},
					To:   &PointDoc{X: 1 + j/2, Y: 29 + j/2, Floor: 0},
					At:   "10:30",
				}
				var rr RouteResponse
				status, err := post(client, http.MethodPost, url, req, &rr)
				if err != nil || status != http.StatusOK {
					errc <- fmt.Errorf("route: status %d err %v", status, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	poller.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.SkeletonHits == 0 {
		t.Fatalf("hammer produced no skeleton hits: %+v", st)
	}
	if st.CacheHits+st.WindowHits+st.SkeletonHits+st.CacheMisses()+st.Deduped != st.Queries {
		t.Fatalf("final statsz does not partition: %+v", st)
	}
}

// TestFamilyBuildsOnTheWire: a skeleton family build is counted on
// every surface — families_built in /statsz, the family-builds series
// and the build stage on /metricsz, and a build span in the building
// request's own trace — while the /statsz query partition ignores it
// (builds are not queries) and the trace's spans still fit inside the
// request.
func TestFamilyBuildsOnTheWire(t *testing.T) {
	ts := newSkeletonTestServer(t)
	stats := func() service.Stats {
		t.Helper()
		var sr StatsResponse
		getJSON(t, ts.URL+"/statsz", &sr)
		return sr.Venues["hospital"].Methods["asyn"]
	}

	skelRoute(t, ts.URL, erCentre, wardCentre, "10:30")
	if st := stats(); st.FamilyBuilds != 0 {
		t.Fatalf("families_built = %d after one unrepeated miss, want 0", st.FamilyBuilds)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route", map[string]any{
		"from": PointDoc{X: 27, Y: 13, Floor: 0}, "to": PointDoc{X: 7, Y: 36, Floor: 0},
		"at": "10:40", "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route status = %d: %s", resp.StatusCode, raw)
	}
	var out RouteResponse
	decodeInto(t, raw, &out)
	if out.Hit != "miss" || out.Trace == nil {
		t.Fatalf("building route hit=%q trace=%v, want a traced miss", out.Hit, out.Trace != nil)
	}
	builds := 0
	var sumMs float64
	for _, sp := range out.Trace.Spans {
		if sp.Stage == "build" {
			builds++
		}
		sumMs += sp.DurationMs
	}
	if builds != 1 {
		t.Fatalf("building route trace has %d build spans, want 1 (%+v)", builds, out.Trace.Spans)
	}
	if sumMs > out.Trace.DurationMs+1.0 {
		t.Fatalf("span durations sum to %.3fms > request latency %.3fms", sumMs, out.Trace.DurationMs)
	}

	st := stats()
	if st.FamilyBuilds != 1 || st.Queries != 2 || st.EngineSearches != 2 {
		t.Fatalf("statsz families_built %d queries %d engine_searches %d, want 1 2 2", st.FamilyBuilds, st.Queries, st.EngineSearches)
	}
	if st.CacheHits+st.WindowHits+st.SkeletonHits+st.Deduped+st.CacheMisses() != st.Queries {
		t.Fatalf("statsz partition broken: %+v", st)
	}
	_, mraw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	body := string(mraw)
	if got := metricValue(t, body, `indoorpath_pool_family_builds_total{venue="hospital",method="asyn"}`); got != 1 {
		t.Fatalf("family builds metric = %d, want 1", got)
	}
	if got := metricValue(t, body, `indoorpath_stage_seconds_count{stage="build"}`); got != 1 {
		t.Fatalf("build stage count = %d, want 1", got)
	}
}
