package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorpath/internal/service"
)

// newTinyCacheTestServer boots a hospital-only registry whose exact
// result cache holds four entries, so eviction pressure is cheap to
// force.
func newTinyCacheTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	reg := NewRegistry(service.Options{CacheCapacity: 4})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCachezAfterTraffic walks one query family through all three
// provenance outcomes on a skeleton-enabled server and checks the
// /cachez body tells the same story: exact-cache and skeleton-store
// occupancy within capacity, a populated coverage map, and a top-pair
// row whose tallies match the driven traffic exactly.
func TestCachezAfterTraffic(t *testing.T) {
	ts, _ := newTieredTestServer(t, Options{})
	routeAt(t, ts.URL, "11:00", false) // miss: engine search
	routeAt(t, ts.URL, "11:20", false) // repeat miss of the pair: builds its family
	routeAt(t, ts.URL, "11:40", false) // same visiting-hours slot: skeleton hit
	routeAt(t, ts.URL, "11:00", false) // exact repeat

	var cz CachezResponse
	if resp := getJSON(t, ts.URL+"/cachez", &cz); resp.StatusCode != http.StatusOK {
		t.Fatalf("cachez status = %d", resp.StatusCode)
	}
	methods, ok := cz.Venues["hospital"]
	if !ok {
		t.Fatalf("cachez venues = %v, want hospital", cz.Venues)
	}
	for _, m := range []string{"syn", "asyn", "static"} {
		if _, ok := methods[m]; !ok {
			t.Fatalf("cachez hospital missing method %q", m)
		}
	}

	doc := methods["asyn"]
	if doc.Queries != 4 {
		t.Fatalf("queries = %d, want 4", doc.Queries)
	}
	if doc.Exact.Entries < 1 || doc.Exact.Capacity <= 0 || doc.Exact.Entries > doc.Exact.Capacity {
		t.Fatalf("exact occupancy = %+v", doc.Exact)
	}
	sk := doc.Skeleton
	if sk.Families != 1 || sk.Capacity <= 0 || sk.Families > sk.Capacity {
		t.Fatalf("skeleton occupancy = %+v", sk)
	}
	if sk.PairsTotal != 1 || len(sk.Pairs) != sk.PairsTotal {
		t.Fatalf("skeleton coverage = %d pairs listed, pairs_total = %d", len(sk.Pairs), sk.PairsTotal)
	}
	for _, p := range sk.Pairs {
		if p.Chains < p.Families || p.Families < 1 {
			t.Fatalf("coverage row %+v: want chains >= families >= 1", p)
		}
		if p.DayCoverage <= 0 || p.DayCoverage > 1 {
			t.Fatalf("coverage row %+v: day_coverage outside (0, 1]", p)
		}
	}

	if doc.PairCapacity <= 0 {
		t.Fatalf("pair_capacity = %d", doc.PairCapacity)
	}
	if len(doc.TopPairs) != 1 {
		t.Fatalf("top_pairs = %+v, want exactly the one driven pair", doc.TopPairs)
	}
	top := doc.TopPairs[0]
	if top.Src == "" || top.Tgt == "" {
		t.Fatalf("top pair endpoints unresolved: %+v", top)
	}
	if top.Queries != 4 || top.ExactHits != 1 || top.SkeletonHits != 1 ||
		top.EngineSearches != 2 || top.Deduped != 0 || top.ErrBound != 0 {
		t.Fatalf("top pair tallies = %+v, want 4 queries / 1 exact / 1 skeleton / 2 searches", top)
	}
	if top.Effort <= 0 {
		t.Fatalf("top pair effort = %d, want > 0 (two engine runs)", top.Effort)
	}
	if top.ExactHitRate != 1.0/4 {
		t.Fatalf("top pair exact hit rate = %v, want 1/4", top.ExactHitRate)
	}
	if top.DayCoverage != sk.Pairs[0].DayCoverage {
		t.Fatalf("top pair day_coverage = %v, want the pair's family coverage %v", top.DayCoverage, sk.Pairs[0].DayCoverage)
	}

	// Two engine runs: every effort histogram holds exactly two
	// observations (family builds are not searches), and the
	// count-valued sums carry raw units.
	eff := doc.EngineEffort
	if eff.Pops.Count != 2 || eff.Settled.Count != 2 || eff.Relaxations.Count != 2 || eff.TVChecks.Count != 2 {
		t.Fatalf("effort counts = %d/%d/%d/%d, want 2 each",
			eff.Pops.Count, eff.Settled.Count, eff.Relaxations.Count, eff.TVChecks.Count)
	}
	if eff.Pops.SumSeconds < 1 || eff.Settled.SumSeconds < 1 {
		t.Fatalf("effort sums = %v pops / %v settled, want >= 1 raw units", eff.Pops.SumSeconds, eff.Settled.SumSeconds)
	}
	if int64(eff.Pops.SumSeconds) != top.Effort {
		t.Fatalf("histogram pops sum %v != top-pair effort %d for the pair's searches", eff.Pops.SumSeconds, top.Effort)
	}

	// The effort families surface on /metricsz from the same counters.
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	body := string(raw)
	labels := `{venue="hospital",method="asyn"}`
	if got := metricValue(t, body, "indoorpath_engine_effort_pops_count"+labels); got != 2 {
		t.Fatalf("effort pops metric count = %d, want 2", got)
	}
	if got := metricValue(t, body, "indoorpath_cache_entries"+labels); got != doc.Exact.Entries {
		t.Fatalf("cache entries metric = %d, want %d", got, doc.Exact.Entries)
	}
	if got := metricValue(t, body, "indoorpath_skeleton_families"+labels); got != sk.Families {
		t.Fatalf("skeleton families metric = %d, want %d", got, sk.Families)
	}
}

// TestCacheEvictionCountersSurface forces exact-cache eviction with a
// tiny capacity and checks the pressure shows up on /cachez and
// /metricsz.
func TestCacheEvictionCountersSurface(t *testing.T) {
	ts := newTinyCacheTestServer(t)
	// Nine distinct departures through a 4-entry cache: at least five
	// insertions must shed an entry.
	for i := 0; i < 9; i++ {
		routeAt(t, ts.URL, fmt.Sprintf("10:%02d", i*5), false)
	}
	var cz CachezResponse
	getJSON(t, ts.URL+"/cachez", &cz)
	doc := cz.Venues["hospital"]["asyn"]
	if doc.Exact.Capacity != 4 {
		t.Fatalf("exact capacity = %d, want 4", doc.Exact.Capacity)
	}
	if doc.Exact.Entries > doc.Exact.Capacity {
		t.Fatalf("exact occupancy %d > capacity %d", doc.Exact.Entries, doc.Exact.Capacity)
	}
	if doc.Exact.Evictions < 5 {
		t.Fatalf("exact evictions = %d, want >= 5 after 9 inserts into 4 slots", doc.Exact.Evictions)
	}
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	got := metricValue(t, string(raw), `indoorpath_cache_evictions_total{venue="hospital",method="asyn"}`)
	if got != doc.Exact.Evictions {
		t.Fatalf("evictions metric = %d, cachez = %d", got, doc.Exact.Evictions)
	}
}

// TestScopeFilters drives mixed traffic and checks the shared
// ?venue=/?method= filters narrow /statsz, /loadz and /cachez bodies
// to exactly the requested scope.
func TestScopeFilters(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	routeAt(t, ts.URL, "10:30", false)

	var st StatsResponse
	getJSON(t, ts.URL+"/statsz?venue=hospital&method=asyn", &st)
	if len(st.Venues) != 1 {
		t.Fatalf("filtered statsz venues = %v, want hospital only", st.Venues)
	}
	doc, ok := st.Venues["hospital"]
	if !ok {
		t.Fatalf("filtered statsz missing hospital: %v", st.Venues)
	}
	if len(doc.Methods) != 1 || len(doc.EngineEffort) != 1 {
		t.Fatalf("filtered statsz methods = %v effort = %v, want asyn only", doc.Methods, doc.EngineEffort)
	}
	if doc.Methods["asyn"].Queries != 1 {
		t.Fatalf("filtered statsz asyn queries = %d, want 1", doc.Methods["asyn"].Queries)
	}

	var lz LoadzResponse
	getJSON(t, ts.URL+"/loadz?venue=office", &lz)
	if len(lz.Venues) != 1 {
		t.Fatalf("filtered loadz venues = %v, want office only", lz.Venues)
	}
	if methods, ok := lz.Venues["office"]; !ok || len(methods) != 3 {
		t.Fatalf("filtered loadz office methods = %v, want all three", methods)
	}

	var cz CachezResponse
	getJSON(t, ts.URL+"/cachez?method=syn", &cz)
	if len(cz.Venues) != 2 {
		t.Fatalf("cachez venues = %v, want both venues", cz.Venues)
	}
	for id, methods := range cz.Venues {
		if len(methods) != 1 {
			t.Fatalf("filtered cachez %s methods = %v, want syn only", id, methods)
		}
		if _, ok := methods["syn"]; !ok {
			t.Fatalf("filtered cachez %s missing syn: %v", id, methods)
		}
	}
}

// TestScopeFilterValidation checks the strict-400 contract shared by
// /statsz, /loadz and /cachez: unknown parameter names, unregistered
// venues and unknown methods are rejected rather than silently
// matching everything (or nothing).
func TestScopeFilterValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, ep := range []string{"/statsz", "/loadz", "/cachez"} {
		for _, query := range []string{
			"?bogus=1", "?venues=hospital", "?venue=atlantis", "?method=dijkstra", "?outcome=ok",
		} {
			resp, raw := doJSON(t, http.MethodGet, ts.URL+ep+query, nil)
			if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
				t.Errorf("%s%s status = %d body = %s, want 400 bad_request", ep, query, resp.StatusCode, raw)
			}
		}
		// Valid scopes still answer 200.
		if resp, raw := doJSON(t, http.MethodGet, ts.URL+ep+"?venue=hospital&method=static", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("%s?venue=hospital&method=static status = %d body = %s", ep, resp.StatusCode, raw)
		}
	}
}

// TestNoWindowTierKeys pins that the removed window tier leaves no trace
// on the wire: after traffic through every answer tier, no /statsz or
// /cachez body carries a window-tier key at any depth.
func TestNoWindowTierKeys(t *testing.T) {
	ts, _ := newTieredTestServer(t, Options{})
	for _, at := range []string{"11:00", "11:20", "11:40", "11:00"} {
		routeAt(t, ts.URL, at, false)
	}
	banned := map[string]bool{
		"window": true, "windows": true, "window_hits": true, "window_evictions": true,
		"window_capacity": true, "window_hit_rate": true,
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if banned[k] {
					t.Errorf("%s carries window-tier key %q", path, k)
				}
				walk(path+"."+k, child)
			}
		case []any:
			for _, child := range v {
				walk(path+"[]", child)
			}
		}
	}
	for _, ep := range []string{"/statsz", "/cachez"} {
		var body any
		if resp := getJSON(t, ts.URL+ep, &body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", ep, resp.StatusCode)
		}
		walk(ep, body)
	}
}
