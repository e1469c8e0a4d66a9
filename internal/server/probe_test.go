package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"indoorpath/internal/obs"
	"indoorpath/internal/service"
)

// spanStages counts an inline trace's spans by stage.
func spanStages(doc *obs.TraceDoc) map[string]int {
	stages := map[string]int{}
	if doc != nil {
		for _, sp := range doc.Spans {
			stages[sp.Stage]++
		}
	}
	return stages
}

// TestProbeBeforeHold pins probe-before-hold on the wire: with the
// coalescer on, a cache hit is answered on the handler goroutine — a
// probe span and no hold, never coalesced — while a miss still waits
// out the hold. The coalescer counts both (probe_hits for the hit, a
// hold bucket for the miss), the /statsz partition holds, and a client
// gone before the probe is counted as client_gone without a query.
func TestProbeBeforeHold(t *testing.T) {
	reg := NewRegistry(service.Options{SharedBatch: true})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	const hold = 20 * time.Millisecond
	srv := New(reg, Options{Coalesce: true, CoalesceHold: hold, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	url := ts.URL + "/v1/venues/hospital/route"
	req := RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00", Trace: true}

	route := func(step string) RouteResponse {
		t.Helper()
		resp, raw := postJSON(t, url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, resp.StatusCode, raw)
		}
		var out RouteResponse
		decodeInto(t, raw, &out)
		if !out.Found {
			t.Fatalf("%s: no route: %s", step, raw)
		}
		return out
	}

	miss := route("miss")
	stages := spanStages(miss.Trace)
	if miss.Hit != string(service.HitMiss) || stages["hold"] != 1 || stages["engine"] != 1 {
		t.Fatalf("miss: hit=%q stages %v, want a held engine run", miss.Hit, stages)
	}
	if stages["probe"] != 1 {
		t.Fatalf("miss: %d probe spans, want only the flush's (a pre-hold miss records none)", stages["probe"])
	}
	if miss.Trace.DurationMs < float64(hold/time.Millisecond)/2 {
		t.Fatalf("miss answered in %.3fms, before the %v hold could fire", miss.Trace.DurationMs, hold)
	}

	hit := route("hit")
	stages = spanStages(hit.Trace)
	if hit.Hit != string(service.HitExact) || !hit.CacheHit || hit.Coalesced || hit.Trace.Coalesced {
		t.Fatalf("hit: hit=%q cache_hit=%v coalesced=%v, want an uncoalesced exact hit", hit.Hit, hit.CacheHit, hit.Coalesced)
	}
	if stages["probe"] != 1 || stages["hold"] != 0 || stages["plan"] != 0 || stages["engine"] != 0 {
		t.Fatalf("hit: stages %v, want one probe span and no hold, plan or engine", stages)
	}
	if hit.Path.Format != miss.Path.Format || hit.Path.LengthM != miss.Path.LengthM {
		t.Fatalf("hit answer %+v differs from the miss's %+v", hit.Path, miss.Path)
	}

	// A client gone before the probe is neither probed nor counted.
	body, _ := json.Marshal(RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"})
	gone := httptest.NewRequest(http.MethodPost, "/v1/venues/hospital/route", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(gone.Context())
	cancel()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, gone.WithContext(ctx))
	if rec.Body.Len() != 0 {
		t.Fatalf("wrote a body into a dead connection: %s", rec.Body.String())
	}

	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	if sr.Server.ClientGone != 1 || sr.Server.Timeouts != 0 {
		t.Fatalf("server stats = %+v, want one client_gone and no timeouts", sr.Server)
	}
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.Queries != 2 || st.CacheHits != 1 || st.CacheMisses() != 1 || st.EngineSearches != 1 {
		t.Fatalf("pool stats = %+v, want 2 queries: one exact hit, one searched miss", st)
	}
	checkPartition(t, "statsz hospital/asyn", st.Queries, st.CacheHits, st.SkeletonHits, st.Deduped, st.EngineSearches)
	cs := sr.Venues["hospital"].Coalesce["asyn"]
	var held int64
	for _, n := range cs.HoldBuckets {
		held += n
	}
	if cs.Queries != 2 || cs.ProbeHits != 1 || held != 1 || cs.Flushes != 1 || cs.Groups != 0 {
		t.Fatalf("coalesce stats = %+v, want 2 queries: one probe hit, one held singleton flush", cs)
	}
	if cs.ProbeHits+held != cs.Queries {
		t.Fatalf("probe_hits %d + held %d != queries %d", cs.ProbeHits, held, cs.Queries)
	}

	_, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if got := metricValue(t, string(raw), `indoorpath_coalesce_probe_hits_total{venue="hospital",method="asyn"}`); got != 1 {
		t.Fatalf("metricsz probe hits = %d, want 1", got)
	}
}

// TestProbeBeforeSearchUncoalesced: without the coalescer the handler
// still probes first, straight through the pool — a hit carries one
// probe span and no engine span, and is booked as one query and one
// hit; a miss keeps its single probe span from the search path.
func TestProbeBeforeSearchUncoalesced(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	miss := routeAt(t, ts.URL, "11:00", true)
	hit := routeAt(t, ts.URL, "11:00", true)
	for _, c := range []struct {
		name   string
		r      RouteResponse
		hit    service.Hit
		engine int
	}{{"miss", miss, service.HitMiss, 1}, {"hit", hit, service.HitExact, 0}} {
		stages := spanStages(c.r.Trace)
		if c.r.Hit != string(c.hit) || stages["probe"] != 1 || stages["engine"] != c.engine || stages["hold"] != 0 {
			t.Fatalf("%s: hit=%q stages %v, want hit %q with one probe and %d engine spans",
				c.name, c.r.Hit, stages, c.hit, c.engine)
		}
	}
	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.Queries != 2 || st.CacheHits != 1 || st.EngineSearches != 1 {
		t.Fatalf("pool stats = %+v, want one hit and one search", st)
	}
	if cs := sr.Venues["hospital"].Coalesce; cs != nil {
		t.Fatalf("coalesce stats present with coalescing off: %+v", cs)
	}
}
