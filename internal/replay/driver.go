package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorpath/internal/model"
	"indoorpath/internal/server"
)

// Options configures a replay run.
type Options struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:8080" or
	// an httptest server URL. Required.
	BaseURL string
	// Client is the HTTP client to drive with; nil means a fresh client
	// with no client-side timeout (the daemon enforces its own request
	// deadline, and a client-side abort would count as client_gone
	// server-side rather than a timeout).
	Client *http.Client
	// Quick is recorded in the report so two artifacts can't silently
	// compare a smoke run against a full day.
	Quick bool
	// Logf, when set, receives per-phase progress lines.
	Logf func(format string, args ...any)
}

// errorSampleCap bounds how many error/mixed samples a phase report
// keeps (the counts are always complete).
const errorSampleCap = 3

// Run replays the scenario against the daemon at opts.BaseURL and
// returns the structured report with its verdicts evaluated. The venue
// the scenario names must be served by the daemon as the same preset
// (Run verifies it is listed and rebuilds the preset model locally for
// endpoint sampling and flip oracles).
func Run(sc *Scenario, opts Options) (*Report, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("replay: no base URL")
	}
	base := strings.TrimRight(opts.BaseURL, "/")
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	mv, err := server.PresetVenue(sc.Venue)
	if err != nil {
		return nil, err
	}
	stream, err := sc.Generate(mv)
	if err != nil {
		return nil, err
	}
	if err := checkVenueServed(client, base, sc.Venue); err != nil {
		return nil, err
	}

	rep := &Report{
		Scenario:    sc.Name,
		Venue:       sc.Venue,
		Seed:        sc.Seed,
		Quick:       opts.Quick,
		Fingerprint: stream.Fingerprint(),
		Target:      base,
		Started:     time.Now().UTC(),
		Phases:      make([]PhaseReport, 0, len(stream.Phases)),
	}
	start := time.Now()
	var lastStats *server.StatsResponse
	for i := range stream.Phases {
		ps := &stream.Phases[i]
		logf("phase %s: %d queries (concurrency %d, waves %v, flips %d)",
			ps.Phase.Name, len(ps.Queries), ps.Phase.Concurrency, ps.Phase.Waves, len(ps.Phase.Flips))
		phr, after, err := runPhase(client, base, sc.Venue, mv, ps)
		if err != nil {
			return nil, fmt.Errorf("replay: phase %q: %w", ps.Phase.Name, err)
		}
		lastStats = after
		rep.Phases = append(rep.Phases, *phr)
		logf("phase %s: p50 %.2fms p95 %.2fms p99 %.2fms, %.3f searches/query, %d errors, %d timeouts, %d mixed",
			phr.Name, phr.LatencyMs.P50, phr.LatencyMs.P95, phr.LatencyMs.P99,
			phr.SearchesPerQuery, phr.Errors, phr.Timeouts, phr.MixedAnswers)
	}
	rep.DurationSec = time.Since(start).Seconds()
	if lastStats != nil {
		rep.Process = lastStats.Process
	}
	rep.evaluate(sc.Checks)
	return rep, nil
}

// qresult is one query's recorded outcome; the executing goroutine is
// the only writer of its slot.
type qresult struct {
	latencyMs float64
	status    int // HTTP status; 0 = transport error
	errText   string
	found     bool
	hit       string
	coalesced bool
	sharedRun bool
	shared    bool
	template  int
	// lo/hi bracket the legal oracle states (flip phases only).
	lo, hi int
	match  matchResult
	// served is kept for mixed-answer diagnostics.
	served servedAnswer
}

// flipRunner fires a phase's schedule flips while traffic flows and
// tracks the initiated/acked counts that bracket every query's legal
// oracle states.
type flipRunner struct {
	base   string
	venue  string
	client *http.Client
	flips  []Flip
	// thresholds[k] is the 0-based query index whose dispatch triggers
	// flip k.
	thresholds []int
	fired      []atomic.Bool
	done       []chan struct{}
	// initiated counts flips whose PUT has been issued (incremented
	// BEFORE the request is sent: once issued, the daemon may apply it
	// at any moment). acked counts flips confirmed applied (incremented
	// after the 200: from then on the daemon must answer post-flip).
	initiated atomic.Int64
	acked     atomic.Int64

	mu   sync.Mutex
	errs []string
}

func newFlipRunner(client *http.Client, base, venue string, ph *Phase) *flipRunner {
	fr := &flipRunner{
		base: base, venue: venue, client: client, flips: ph.Flips,
		thresholds: make([]int, len(ph.Flips)),
		fired:      make([]atomic.Bool, len(ph.Flips)),
		done:       make([]chan struct{}, len(ph.Flips)),
	}
	for k, f := range ph.Flips {
		fr.thresholds[k] = int(f.After * float64(ph.Count))
		fr.done[k] = make(chan struct{})
	}
	return fr
}

// maybeFire launches every not-yet-fired flip whose threshold the
// dispatched query index has reached. Flips apply in order (flip k
// waits for flip k-1's ack) but never block the dispatching traffic.
func (fr *flipRunner) maybeFire(idx int) {
	for k := range fr.flips {
		if idx < fr.thresholds[k] || !fr.fired[k].CompareAndSwap(false, true) {
			continue
		}
		go fr.fire(k)
	}
}

func (fr *flipRunner) fire(k int) {
	defer close(fr.done[k])
	if k > 0 {
		<-fr.done[k-1]
	}
	body, err := json.Marshal(server.SchedulesRequest{Updates: fr.flips[k].Updates})
	if err != nil {
		fr.fail("flip %d: %v", k, err)
		return
	}
	fr.initiated.Add(1)
	req, err := http.NewRequest(http.MethodPut,
		fr.base+"/v1/venues/"+fr.venue+"/schedules", bytes.NewReader(body))
	if err != nil {
		fr.fail("flip %d: %v", k, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fr.client.Do(req)
	if err != nil {
		fr.fail("flip %d: %v", k, err)
		return
	}
	rbody, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fr.fail("flip %d: HTTP %d: %s", k, resp.StatusCode, truncate(string(rbody), 200))
		return
	}
	fr.acked.Add(1)
}

func (fr *flipRunner) fail(format string, args ...any) {
	fr.mu.Lock()
	fr.errs = append(fr.errs, fmt.Sprintf(format, args...))
	fr.mu.Unlock()
}

// wait blocks until every flip goroutine has finished (fired or not:
// an unfired flip's channel never closes, but thresholds are always
// < Count, so dispatching the full stream fires them all).
func (fr *flipRunner) wait() {
	for k := range fr.done {
		if fr.fired[k].Load() {
			<-fr.done[k]
		}
	}
}

// runPhase executes one phase's stream and aggregates its report.
// Returns the post-phase /statsz scrape so the caller can keep the
// final one.
func runPhase(client *http.Client, base, venue string, mv *model.Venue, ps *PhaseStream) (*PhaseReport, *server.StatsResponse, error) {
	ph := ps.Phase
	var oracle *phaseOracle
	if len(ph.Flips) > 0 {
		var err error
		oracle, err = buildOracle(mv, ph, ps.Templates)
		if err != nil {
			return nil, nil, err
		}
	}
	before, err := scrapeStats(client, base)
	if err != nil {
		return nil, nil, err
	}
	beforeCz := scrapeCachez(client, base, venue)

	var fr *flipRunner
	if len(ph.Flips) > 0 {
		fr = newFlipRunner(client, base, venue, ph)
	}
	results := make([]qresult, len(ps.Queries))
	phaseStart := time.Now()
	runOne := func(idx int) {
		if fr != nil {
			fr.maybeFire(idx)
		}
		results[idx] = sendQuery(client, base, venue, ps.Queries[idx], fr)
	}
	conc := ph.Concurrency
	if conc <= 0 {
		conc = 1
	}
	if ph.Waves {
		for off := 0; off < len(ps.Queries); off += conc {
			end := min(off+conc, len(ps.Queries))
			var wg sync.WaitGroup
			for i := off; i < end; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					runOne(i)
				}(i)
			}
			wg.Wait()
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ps.Queries) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	if fr != nil {
		fr.wait()
	}
	phaseDur := time.Since(phaseStart)

	after, err := scrapeStats(client, base)
	if err != nil {
		return nil, nil, err
	}

	phr := aggregatePhase(ph, results, oracle, before, after, venue)
	phr.DurationSec = phaseDur.Seconds()
	phr.Load = scrapeLoad(client, base, venue)
	phr.HotPairs = hotPairDelta(beforeCz, scrapeCachez(client, base, venue), phr.StatsDelta.Queries)
	if fr != nil {
		fr.mu.Lock()
		for _, e := range fr.errs {
			phr.Errors++
			if len(phr.ErrorSamples) < errorSampleCap {
				phr.ErrorSamples = append(phr.ErrorSamples, e)
			}
		}
		fr.mu.Unlock()
	}
	return phr, after, nil
}

// sendQuery issues one route request and records its outcome.
func sendQuery(client *http.Client, base, venue string, q Query, fr *flipRunner) qresult {
	res := qresult{template: q.Template}
	if fr != nil {
		res.lo = int(fr.acked.Load())
	}
	body, err := json.Marshal(server.RouteRequest{
		From:   &server.PointDoc{X: q.From.X, Y: q.From.Y, Floor: q.From.Floor},
		To:     &server.PointDoc{X: q.To.X, Y: q.To.Y, Floor: q.To.Floor},
		At:     fmtTime(q.At),
		Method: q.Method,
		Speed:  q.Speed,
	})
	if err != nil {
		res.errText = err.Error()
		return res
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/venues/"+venue+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		res.latencyMs = float64(time.Since(t0)) / float64(time.Millisecond)
		res.errText = err.Error()
		if fr != nil {
			res.hi = int(fr.initiated.Load())
		}
		return res
	}
	rbody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	res.latencyMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if fr != nil {
		res.hi = int(fr.initiated.Load())
	}
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		res.errText = truncate(string(rbody), 200)
		return res
	}
	var rr server.RouteResponse
	if err := json.Unmarshal(rbody, &rr); err != nil {
		res.status = 0
		res.errText = "bad response body: " + err.Error()
		return res
	}
	res.found = rr.Found
	res.hit = rr.Hit
	res.coalesced = rr.Coalesced
	res.sharedRun = rr.SharedRun
	res.shared = rr.Shared
	if fr != nil && q.Template >= 0 {
		res.served = servedAnswer{found: rr.Found}
		if rr.Path != nil {
			res.served.length = rr.Path.LengthM
			res.served.arrive = rr.Path.ArriveSec
			res.served.doors = make([]string, len(rr.Path.Doors))
			for i, d := range rr.Path.Doors {
				res.served.doors[i] = d.Door
			}
		}
	}
	return res
}

// aggregatePhase folds per-query results and the /statsz movement into
// one PhaseReport.
func aggregatePhase(ph *Phase, results []qresult, oracle *phaseOracle, before, after *server.StatsResponse, venue string) *PhaseReport {
	phr := &PhaseReport{Name: ph.Name, Queries: len(results), Flips: len(ph.Flips)}
	lat := make([]float64, 0, len(results))
	for i := range results {
		r := &results[i]
		lat = append(lat, r.latencyMs)
		switch {
		case r.status == http.StatusOK && r.errText == "":
			if r.found {
				phr.Found++
			} else {
				phr.NoRoute++
			}
			switch r.hit {
			case "exact":
				phr.Provenance.Exact++
			case "window":
				phr.Provenance.Window++
			case "skeleton":
				phr.Provenance.Skeleton++
			default:
				phr.Provenance.Miss++
			}
			if r.coalesced {
				phr.Provenance.Coalesced++
			}
			if r.sharedRun {
				phr.Provenance.SharedRun++
			}
			if r.shared {
				phr.Provenance.Deduped++
			}
		case r.status == http.StatusGatewayTimeout:
			phr.Timeouts++
		default:
			phr.Errors++
			if len(phr.ErrorSamples) < errorSampleCap {
				phr.ErrorSamples = append(phr.ErrorSamples,
					fmt.Sprintf("query %d: HTTP %d: %s", i, r.status, r.errText))
			}
		}
	}
	if oracle != nil {
		for i := range results {
			r := &results[i]
			if r.status != http.StatusOK || r.errText != "" || r.template < 0 {
				continue
			}
			tmpl := r.template
			r.match = oracle.match(tmpl, r.lo, r.hi, r.served)
			switch r.match {
			case matchRelaxed:
				phr.TieRelaxed++
			case matchMixed:
				phr.MixedAnswers++
				if len(phr.MixedSamples) < errorSampleCap {
					phr.MixedSamples = append(phr.MixedSamples,
						fmt.Sprintf("query %d (template %d, states %d..%d): found=%v length=%.6f arrive=%.3f doors=%v",
							i, tmpl, r.lo, r.hi, r.served.found, r.served.length, r.served.arrive, r.served.doors))
				}
			}
		}
	}
	phr.LatencyMs = latencyDoc(lat)
	phr.StatsDelta = statsDelta(before, after, venue)
	if d := phr.StatsDelta; d.Queries > 0 {
		phr.SearchesPerQuery = float64(d.EngineSearches) / float64(d.Queries)
		phr.EngineRunsPerQuery = float64(d.EngineSearches+d.FamiliesBuilt) / float64(d.Queries)
	}
	addObservability(phr, before, after, venue)
	addEffortDelta(phr, before, after, venue)
	return phr
}

// statsDelta computes the /statsz movement across a phase for the
// replayed venue, summed over its method pools.
func statsDelta(before, after *server.StatsResponse, venue string) StatsDeltaDoc {
	var d StatsDeltaDoc
	b, a := before.Venues[venue], after.Venues[venue]
	for _, m := range []string{"syn", "asyn", "static"} {
		bm, am := b.Methods[m], a.Methods[m]
		d.Queries += am.Queries - bm.Queries
		d.EngineSearches += am.EngineSearches - bm.EngineSearches
		d.FamiliesBuilt += am.FamilyBuilds - bm.FamilyBuilds
		d.ExactHits += am.CacheHits - bm.CacheHits
		d.WindowHits += am.WindowHits - bm.WindowHits
		d.SkeletonHits += am.SkeletonHits - bm.SkeletonHits
		d.Deduped += am.Deduped - bm.Deduped
		d.SharedRuns += am.SharedRuns - bm.SharedRuns
		d.SharedAnswers += am.SharedAnswers - bm.SharedAnswers
		d.Reasons = d.Reasons.Add(am.Reasons.Sub(bm.Reasons))
		bc, ac := b.Coalesce[m], a.Coalesce[m]
		d.CoalesceFlushes += ac.Flushes - bc.Flushes
		d.CoalescedAnswers += ac.Answers - bc.Answers
	}
	d.Epoch = a.Epoch - b.Epoch
	d.Timeouts = after.Server.Timeouts - before.Server.Timeouts
	d.ClientGone = after.Server.ClientGone - before.Server.ClientGone
	return d
}

// scrapeStats reads /statsz.
func scrapeStats(client *http.Client, base string) (*server.StatsResponse, error) {
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return nil, fmt.Errorf("replay: scrape /statsz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replay: scrape /statsz: HTTP %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("replay: scrape /statsz: %w", err)
	}
	return &st, nil
}

// scrapeLoad reads the venue's /loadz block right after a phase. The
// scrape is best-effort: nil against daemons predating the endpoint
// (404) or on any transport/decode failure — the load view annotates
// the report, it must not fail a run.
func scrapeLoad(client *http.Client, base, venue string) map[string][]server.LoadWindowDoc {
	resp, err := client.Get(base + "/loadz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var lz server.LoadzResponse
	if err := json.NewDecoder(resp.Body).Decode(&lz); err != nil {
		return nil
	}
	return lz.Venues[venue]
}

// scrapeCachez reads the venue's /cachez block (per-method cache
// introspection docs). Best-effort like scrapeLoad: nil against
// daemons predating the endpoint or on any transport/decode failure —
// hot-pair deltas annotate the report, they must not fail a run.
func scrapeCachez(client *http.Client, base, venue string) map[string]server.CacheMethodDoc {
	resp, err := client.Get(base + "/cachez")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var cz server.CachezResponse
	if err := json.NewDecoder(resp.Body).Decode(&cz); err != nil {
		return nil
	}
	return cz.Venues[venue]
}

// checkVenueServed verifies the daemon lists the scenario's venue.
func checkVenueServed(client *http.Client, base, venue string) error {
	resp, err := client.Get(base + "/v1/venues")
	if err != nil {
		return fmt.Errorf("replay: list venues: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replay: list venues: HTTP %d", resp.StatusCode)
	}
	var vr server.VenuesResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		return fmt.Errorf("replay: list venues: %w", err)
	}
	for _, v := range vr.Venues {
		if v.ID == venue {
			return nil
		}
	}
	return fmt.Errorf("replay: daemon at %s does not serve venue %q (have %d venues) — start it with -preset %s",
		base, venue, len(vr.Venues), venue)
}

// truncate bounds a sample string.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
