// Server example: boot the HTTP query daemon stack in-process over the
// hospital preset, answer routes over real HTTP, push a live schedule
// update and watch the answer change, fan a shared-source batch out
// through the shared-execution planner, coalesce concurrent solo
// requests into one engine run, and hot-load a second venue — the
// serving loop of cmd/itspqd in ~100 lines.
//
//	go run ./examples/server
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	indoorpath "indoorpath"
)

func main() {
	log.SetFlags(0)

	// Registry: venue ID -> per-venue serving pools. cmd/itspqd builds
	// the same thing from -venues / -preset flags. SharedBatch turns on
	// the shared-execution planner (itspqd -shared-batch): batch groups
	// with a common endpoint are answered by one engine run each;
	// WindowCache adds the validity-window temporal cache (itspqd
	// -window-cache), whose coverage map /cachez renders below;
	// SkeletonCache adds the point-free door-to-door skeleton store
	// (itspqd -skeleton-cache) the jittered wave below runs against.
	reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{
		SharedBatch:   true,
		WindowCache:   true,
		SkeletonCache: true,
	})
	if _, err := reg.AddPresets("hospital"); err != nil {
		log.Fatal(err)
	}
	// Coalesce holds each solo route request for up to CoalesceHold and
	// flushes concurrent arrivals as ONE shared batch (itspqd -coalesce
	// -coalesce-hold 5ms).
	ts := httptest.NewServer(indoorpath.NewServer(reg, indoorpath.ServerOptions{
		Coalesce:     true,
		CoalesceHold: 5 * time.Millisecond,
	}))
	defer ts.Close()
	fmt.Printf("serving %v at %s\n\n", reg.IDs(), ts.URL)

	// ER -> ward-1 during visiting hours: routable.
	route := `{"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"11:00"}`
	show("route at 11:00", call(ts.URL, http.MethodPost, "/v1/venues/hospital/route", route))

	// In the visiting-hours gap: no such routes.
	gap := strings.Replace(route, "11:00", "13:00", 1)
	show("route at 13:00", call(ts.URL, http.MethodPost, "/v1/venues/hospital/route", gap))

	// Live update: extend ward-1 visiting hours across the afternoon
	// gap. One atomic swap per pool — no stale answers, no draining.
	update := `{"updates":{"ward-1-door":["10:00-18:00"]}}`
	show("PUT schedules", call(ts.URL, http.MethodPut, "/v1/venues/hospital/schedules", update))

	// The same 13:00 query now routes.
	show("route at 13:00 after update", call(ts.URL, http.MethodPost, "/v1/venues/hospital/route", gap))

	// Shared execution: one crowd position fanning out to many rooms at
	// one departure. The planner groups the whole batch onto ONE engine
	// search — watch "searches" and "shared_answers" in the cache
	// summary (shared_runs=1 means 1 run answered every miss).
	batch := `{"queries":[
	  {"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"11:00"},
	  {"from":{"x":30,"y":10,"floor":0},"to":{"x":15,"y":34,"floor":0},"at":"11:00"},
	  {"from":{"x":30,"y":10,"floor":0},"to":{"x":25,"y":34,"floor":0},"at":"11:00"},
	  {"from":{"x":30,"y":10,"floor":0},"to":{"x":35,"y":34,"floor":0},"at":"11:00"}]}`
	batch = strings.ReplaceAll(strings.ReplaceAll(batch, "\n", ""), "\t", "")
	show("shared-source batch", call(ts.URL, http.MethodPost, "/v1/venues/hospital/route:batch", batch))

	// Cross-batch coalescing: the same crowd as SEPARATE concurrent
	// solo requests. They land in one 5ms hold window and flush as one
	// shared run — each response carries "coalesced":true, and the
	// statsz "coalesce" block counts the merged group.
	var wg sync.WaitGroup
	var first string
	for i, tgt := range []string{"5", "15", "25", "35"} {
		wg.Add(1)
		go func(i int, tgt string) {
			defer wg.Done()
			q := `{"from":{"x":30,"y":10,"floor":0},"to":{"x":` + tgt + `,"y":34,"floor":0},"at":"11:30"}`
			resp := call(ts.URL, http.MethodPost, "/v1/venues/hospital/route", q)
			if i == 0 {
				first = resp
			}
		}(i, tgt)
	}
	wg.Wait()
	show("coalesced solo request", first)

	// Point-free answers: a jittered wave — the same ER -> ward-1 crowd,
	// but every walker stands on a DIFFERENT spot, so the exact and
	// window caches (both keyed on endpoint points) never hit. The first
	// jittered route is the pair's second miss in the slot after the
	// route above — the repeat evidence that builds the pair's
	// door-to-door skeleton family; each later jittered query is
	// answered by composition — first leg to the entry door, stored
	// chain, last leg from the anchor door — and carries
	// "hit":"skeleton" with no engine search.
	var jittered string
	for _, pts := range [][2]string{
		{`"x":27,"y":13`, `"x":7,"y":36`},
		{`"x":33,"y":8`, `"x":3,"y":31`},
		{`"x":24,"y":16`, `"x":8,"y":38`},
	} {
		q := `{"from":{` + pts[0] + `,"floor":0},"to":{` + pts[1] + `,"floor":0},"at":"11:00"}`
		jittered = call(ts.URL, http.MethodPost, "/v1/venues/hospital/route", q)
	}
	show("jittered route (skeleton hit)", jittered)
	if i := strings.LastIndex(jittered, `"hit"`); i >= 0 {
		show("…its provenance", "…"+jittered[i:])
	}

	// Hot venue reload: load another preset into the running daemon.
	show("POST /v1/venues", call(ts.URL, http.MethodPost, "/v1/venues", `{"preset":"office"}`))

	// Serving counters, per venue and method.
	show("statsz", call(ts.URL, http.MethodGet, "/statsz", ""))

	// Observability: "trace": true on a solo route returns the span
	// breakdown inline — decode, hold (coalescer wait), probe (cache),
	// engine, build (a skeleton family build), store — with per-stage
	// durations in milliseconds.
	traced := `{"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"11:45","trace":true}`
	show("route with inline trace", call(ts.URL, http.MethodPost, "/v1/venues/hospital/route", traced))

	// /tracez keeps the slowest-K requests plus a 1-in-N sample;
	// /metricsz renders indoorpath_request_seconds{venue,method,outcome}
	// and indoorpath_stage_seconds{stage} histograms for Prometheus.
	show("tracez", call(ts.URL, http.MethodGet, "/tracez", ""))
	show("metricsz (request histogram)", grepLines(
		call(ts.URL, http.MethodGet, "/metricsz", ""), "indoorpath_request_seconds_count"))

	// Decision provenance: a miss explains itself inline ("explain":
	// "no_exact_entry", "outside_windows", ...) — a fresh departure has
	// no cached answer, so this response carries the reason; a repeat
	// of it would be an exact hit and carry none.
	miss := `{"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"12:10"}`
	missBody := call(ts.URL, http.MethodPost, "/v1/venues/hospital/route", miss)
	if i := strings.LastIndex(missBody, `"explain"`); i >= 0 {
		show("route miss with explain", "…"+missBody[i:])
	}

	// /loadz is the rolling load view the adaptive serving layer steers
	// by: trailing 10s/1m/5m windows per venue and method — arrival
	// rate, hit rates, shareability, coalescer hold utilization — plus
	// per-reason miss/solo tallies. The same derived rates export as
	// indoorpath_load_*{venue,method,window} gauges on /metricsz.
	show("loadz", call(ts.URL, http.MethodGet, "/loadz", ""))
	show("metricsz (load gauges)", grepLines(
		call(ts.URL, http.MethodGet, "/metricsz", ""), "indoorpath_load_arrival_per_sec"))

	// /cachez is the cache-introspection view: exact-cache and
	// window-store occupancy vs capacity with eviction counters, the
	// per-OD-pair window coverage map (day_coverage = share of the 24h
	// departure axis covered by stored validity windows), and the
	// space-saving top-K pair table — which partition pairs dominate
	// the traffic and how well each is served. Strict filters narrow
	// the body: ?venue= / ?method= (typos answer 400, not "everything").
	show("cachez (hospital/asyn)", call(ts.URL, http.MethodGet, "/cachez?venue=hospital&method=asyn", ""))

	// Per-search engine effort rides /metricsz as count-valued
	// histograms: pops, settled, relaxations and temporal checks per
	// engine run — the "did searches get deeper?" axis next to the
	// latency histograms.
	show("metricsz (engine effort)", grepLines(
		call(ts.URL, http.MethodGet, "/metricsz", ""), "indoorpath_engine_effort_pops_count"))
}

// grepLines keeps only the lines of body containing substr.
func grepLines(body, substr string) string {
	var keep []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n  ")
}

func call(base, method, path, body string) string {
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return strings.TrimSpace(string(raw))
}

func show(label, body string) {
	const max = 240
	if len(body) > max {
		body = body[:max] + "…"
	}
	fmt.Printf("%s:\n  %s\n\n", label, body)
}
