// Command itspq answers a single ITSPQ(ps, pt, t) query over a venue
// JSON file (see cmd/venuegen) or against a running itspqd server.
//
// Usage:
//
//	itspq -venue mall.json -from 100,50,0 -to 900,700,2 -at 12:00
//	itspq -venue figure1.json -from 26,11,0 -to 34,11,0 -at 9:00 -method syn
//	itspq -venue office.json -from 2,3,0 -to 6,24,0 -at 7:30 -method waiting
//	itspq -venue mall.json -from 100,50,0 -to 900,700,2 -workers 8 -sweep 2h
//	itspq -server http://localhost:8080 -venue hospital -from 30,10,0 -to 5,34,0 -at 11:00
//
// Methods: asyn (default, ITG/A), syn (ITG/S), static (temporal-unaware
// baseline), waiting (earliest arrival with waiting tolerance).
//
// -workers N routes through the concurrent serving pool (indoorpath
// .NewPool) with N batch workers instead of a bare engine; -sweep STEP
// additionally fans the query out over the whole day at the given step
// as one concurrent batch, printing one summary row per departure time
// plus a cache summary line (queries, exact hits, skeleton hits,
// engine searches).
//
// -shared enables the shared-execution batch planner on the pool: the
// sweep batch is partitioned into shared-endpoint groups and each group
// is answered by ONE engine run (the cache line grows sharedRuns /
// sharedAnswers). With -sweep, -to also accepts several targets
// separated by ';' — a multi-target sweep from one source is the
// planner's showcase workload (every departure's fan-out is one
// search):
//
//	itspq -venue mall.json -from 100,50,0 -to "900,700,2;820,640,2;905,80,1" \
//	      -workers 4 -sweep 1m -shared
//
// -server URL sends the query to a running itspqd instead of loading
// the venue locally; -venue then names the venue ID on the server. The
// printed output is byte-identical to local mode, so the CLI doubles
// as a smoke client. -sweep goes through the server's batch endpoint
// (no -workers needed — the server owns its worker pool; start itspqd
// with -shared-batch for server-side shared execution).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	indoorpath "indoorpath"
	"indoorpath/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so tests can drive the
// CLI end to end in-process. Exit codes: 0 found, 1 no route or error,
// 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itspq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		venueFile = fs.String("venue", "", "venue JSON file, or venue ID with -server (required)")
		from      = fs.String("from", "", "source point x,y,floor (required)")
		to        = fs.String("to", "", "target point x,y,floor; with -sweep, several targets separated by ';' (required)")
		atStr     = fs.String("at", "12:00", "query time of day (H:MM)")
		method    = fs.String("method", "asyn", "syn | asyn | static | waiting")
		workers   = fs.Int("workers", 0, "route through the concurrent pool with this many batch workers (0 = bare engine)")
		sweepStr  = fs.String("sweep", "", "with -workers or -server: batch-answer the query across the day at this step (e.g. 2h, 30m)")
		shared    = fs.Bool("shared", false, "with -workers: enable the shared-execution batch planner (one engine run per shared-endpoint group)")
		serverURL = fs.String("server", "", "itspqd base URL; query the daemon instead of loading the venue locally")
		verbose   = fs.Bool("v", false, "print search statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "itspq: "+format+"\n", a...)
		return 1
	}
	if *venueFile == "" || *from == "" || *to == "" {
		fs.Usage()
		return 2
	}

	src, err := parsePoint(*from)
	if err != nil {
		return fail("-from: %v", err)
	}
	targets, err := parseTargets(*to)
	if err != nil {
		return fail("-to: %v", err)
	}
	tgt := targets[0]
	if len(targets) > 1 && *sweepStr == "" {
		return fail("multiple -to targets require -sweep")
	}
	at, err := indoorpath.ParseTime(*atStr)
	if err != nil {
		return fail("-at: %v", err)
	}
	switch *method {
	case "syn", "asyn", "static", "waiting":
	default:
		return fail("unknown method %q", *method)
	}

	if *serverURL != "" {
		if *shared {
			return fail("-shared applies to local -workers mode (enable it on the daemon with itspqd -shared-batch)")
		}
		c := &client{base: strings.TrimSuffix(*serverURL, "/"), venue: *venueFile}
		if *sweepStr != "" {
			return c.sweep(src, targets, *method, *sweepStr, *verbose, stdout, stderr)
		}
		return c.route(src, tgt, at, *method, *verbose, stdout, stderr)
	}

	f, err := os.Open(*venueFile)
	if err != nil {
		return fail("%v", err)
	}
	venue, err := indoorpath.LoadVenue(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail("%v", err)
	}
	g, err := indoorpath.NewGraph(venue)
	if err != nil {
		return fail("%v", err)
	}
	q := indoorpath.Query{Source: src, Target: tgt, At: at}

	var (
		path  *indoorpath.Path
		stats indoorpath.SearchStats
	)
	switch *method {
	case "waiting":
		if *workers > 0 {
			return fail("-workers applies to syn/asyn/static, not waiting")
		}
		if *sweepStr != "" {
			return fail("-sweep applies to syn/asyn/static, not waiting")
		}
		if *shared {
			return fail("-shared applies to syn/asyn/static, not waiting")
		}
		path, err = indoorpath.NewWaitingRouter(g).Route(q)
	default:
		m := map[string]indoorpath.Method{
			"syn": indoorpath.MethodSyn, "asyn": indoorpath.MethodAsyn, "static": indoorpath.MethodStatic,
		}[*method]
		if *workers > 0 {
			pool := indoorpath.NewPool(g, indoorpath.PoolOptions{
				Engine:      indoorpath.Options{Method: m},
				Workers:     *workers,
				SharedBatch: *shared,
			})
			if *sweepStr != "" {
				return sweep(pool, q, targets, *sweepStr, *verbose, stdout, stderr)
			}
			path, stats, err = pool.Route(q)
		} else {
			if *sweepStr != "" {
				return fail("-sweep requires -workers (or -server)")
			}
			if *shared {
				return fail("-shared requires -workers (or itspqd -shared-batch for -server)")
			}
			path, stats, err = indoorpath.NewEngine(g, indoorpath.Options{Method: m}).Route(q)
		}
	}
	switch {
	case errors.Is(err, indoorpath.ErrNoRoute):
		fmt.Fprintln(stdout, "no such routes")
		return 1
	case err != nil:
		return fail("%v", err)
	}

	printPath(stdout, pathLines{
		format:  path.Format(venue),
		length:  path.Length,
		hops:    path.Hops(),
		depart:  path.DepartedAt,
		arrive:  path.ArrivalAtTgt,
		wait:    path.TotalWait,
		doors:   doorLinesOf(venue, path),
		verbose: *verbose && *method != "waiting",
		stats:   stats,
	})
	return 0
}

// pathLines is everything the CLI prints about a found path, shared by
// local and server modes so the two are byte-identical.
type pathLines struct {
	format         string
	length         float64
	hops           int
	depart, arrive indoorpath.TimeOfDay
	wait           indoorpath.TimeOfDay
	doors          []doorLine
	verbose        bool
	stats          indoorpath.SearchStats
}

type doorLine struct {
	name   string
	arrive indoorpath.TimeOfDay
}

func doorLinesOf(venue *indoorpath.Venue, path *indoorpath.Path) []doorLine {
	out := make([]doorLine, len(path.Doors))
	for i, d := range path.Doors {
		out[i] = doorLine{name: venue.Door(d).Name, arrive: path.Arrivals[i]}
	}
	return out
}

func printPath(w io.Writer, p pathLines) {
	fmt.Fprintf(w, "path:    %s\n", p.format)
	fmt.Fprintf(w, "length:  %.2f m (%d doors)\n", p.length, p.hops)
	fmt.Fprintf(w, "depart:  %v   arrive: %v\n", p.depart, p.arrive)
	if p.wait > 0 {
		fmt.Fprintf(w, "waiting: %v\n", p.wait)
	}
	for i, d := range p.doors {
		fmt.Fprintf(w, "  %2d. %-14s at %v\n", i+1, d.name, d.arrive)
	}
	if p.verbose {
		fmt.Fprintf(w, "stats:   method=%s pops=%d settled=%d relax=%d checks=%d heapMax=%d est=%dB\n",
			p.stats.Method, p.stats.Pops, p.stats.Settled, p.stats.Relaxations,
			p.stats.Checker.Checks, p.stats.HeapMax, p.stats.BytesEstimate)
	}
}

// sweep answers every (target, departure) pair of the day sweep as one
// concurrent batch through the pool, printing a summary row per
// departure time (per target, with a target header when several) and a
// cache summary line (how many answers came from the exact cache, a
// skeleton composition, or an engine search — plus the shared-
// execution tallies when the planner shared anything).
func sweep(pool *indoorpath.ServicePool, q indoorpath.Query, targets []indoorpath.Point,
	stepStr string, verbose bool, stdout, stderr io.Writer) int {

	batch, rows, errCode := sweepBatch(q, targets, stepStr, stderr)
	if errCode != 0 {
		return errCode
	}
	results, sum := pool.RouteBatchSummary(batch)
	for i, r := range results {
		if i%rows == 0 && len(targets) > 1 {
			printSweepTarget(stdout, batch[i].Target)
		}
		switch {
		case errors.Is(r.Err, indoorpath.ErrNoRoute):
			printSweepMiss(stdout, batch[i].At)
		case r.Err != nil:
			fmt.Fprintf(stderr, "itspq: %v\n", r.Err)
			return 1
		default:
			printSweepRow(stdout, batch[i].At, r.Path.Length, r.Path.Hops(), r.Path.ArrivalAtTgt)
		}
	}
	printSweepCache(stdout, int64(sum.Queries), int64(sum.ExactHits), int64(sum.SkeletonHits),
		int64(sum.Searches), int64(sum.SharedRuns), int64(sum.SharedAnswers))
	if verbose {
		fmt.Fprintf(stdout, "pool:    %s\n", pool.Stats())
	}
	return 0
}

// printSweepCache renders the sweep cache summary, shared by local and
// server modes so the two are byte-identical. searches counts engine
// runs; the shared tallies print only when the planner shared work.
func printSweepCache(w io.Writer, queries, exact, skeleton, searches, sharedRuns, sharedAnswers int64) {
	fmt.Fprintf(w, "cache:   queries=%d exact=%d skeleton=%d searches=%d", queries, exact, skeleton, searches)
	if sharedRuns > 0 {
		fmt.Fprintf(w, " sharedRuns=%d sharedAnswers=%d", sharedRuns, sharedAnswers)
	}
	fmt.Fprintln(w)
}

// printSweepTarget renders a multi-target sweep's block header.
func printSweepTarget(w io.Writer, tgt indoorpath.Point) {
	fmt.Fprintf(w, "target:  %g,%g,%d\n", tgt.X, tgt.Y, tgt.Floor)
}

// sweepBatch expands the query across the day at the given step, one
// block of departures per target (target-major, so the printed rows
// group by target). rows is the number of departures per target.
func sweepBatch(q indoorpath.Query, targets []indoorpath.Point, stepStr string, stderr io.Writer) ([]indoorpath.Query, int, int) {
	step, err := time.ParseDuration(stepStr)
	if err != nil || step <= 0 {
		fmt.Fprintf(stderr, "itspq: -sweep: bad step %q\n", stepStr)
		return nil, 0, 1
	}
	stepSec := indoorpath.TimeOfDay(step.Seconds())
	var batch []indoorpath.Query
	rows := 0
	for _, tgt := range targets {
		rows = 0
		for at := indoorpath.TimeOfDay(0); at < 24*3600; at += stepSec {
			bq := q
			bq.Target = tgt
			bq.At = at
			batch = append(batch, bq)
			rows++
		}
	}
	return batch, rows, 0
}

// parseTargets reads one or more ';'-separated x,y,floor points. Empty
// segments (a trailing ';', "a;;b", a lone ';') are rejected rather
// than skipped: silently dropping them would turn a typo into a query
// over the wrong target set.
func parseTargets(s string) ([]indoorpath.Point, error) {
	parts := strings.Split(s, ";")
	out := make([]indoorpath.Point, 0, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty target segment %d in %q (';' separates x,y,floor points)", i+1, s)
		}
		pt, err := parsePoint(part)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func printSweepMiss(w io.Writer, at indoorpath.TimeOfDay) {
	fmt.Fprintf(w, "%8v  no such routes\n", at)
}

func printSweepRow(w io.Writer, at indoorpath.TimeOfDay, length float64, hops int, arrive indoorpath.TimeOfDay) {
	fmt.Fprintf(w, "%8v  %8.2f m  %2d doors  arrive %v\n", at, length, hops, arrive)
}

// client talks to a running itspqd.
type client struct {
	base  string
	venue string
}

// post sends a JSON body and decodes the response into out, mapping
// the server's structured error envelope onto an error.
func (c *client) post(httpMethod, path string, body, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	req, err := http.NewRequest(httpMethod, c.base+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *client) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *client) do(req *http.Request, out any) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error *server.ErrorDoc `json:"error"`
		}
		if jerr := json.NewDecoder(resp.Body).Decode(&envelope); jerr == nil && envelope.Error != nil {
			return errors.New(envelope.Error.Message)
		}
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// route answers one query through the server, printing exactly what
// local mode would.
func (c *client) route(src, tgt indoorpath.Point, at indoorpath.TimeOfDay, method string, verbose bool, stdout, stderr io.Writer) int {
	req := server.RouteRequest{
		From:   &server.PointDoc{X: src.X, Y: src.Y, Floor: src.Floor},
		To:     &server.PointDoc{X: tgt.X, Y: tgt.Y, Floor: tgt.Floor},
		At:     at.String(),
		Method: method,
	}
	var resp server.RouteResponse
	if err := c.post(http.MethodPost, "/v1/venues/"+c.venue+"/route", req, &resp); err != nil {
		fmt.Fprintf(stderr, "itspq: %v\n", err)
		return 1
	}
	if !resp.Found {
		fmt.Fprintln(stdout, "no such routes")
		return 1
	}
	p := resp.Path
	lines := pathLines{
		format: p.Format,
		length: p.LengthM,
		hops:   p.Hops,
		depart: indoorpath.TimeOfDay(p.DepartSec),
		arrive: indoorpath.TimeOfDay(p.ArriveSec),
		wait:   indoorpath.TimeOfDay(p.WaitSec),
	}
	for _, d := range p.Doors {
		lines.doors = append(lines.doors, doorLine{name: d.Door, arrive: indoorpath.TimeOfDay(d.ArriveSec)})
	}
	if verbose && method != "waiting" && resp.Stats != nil {
		lines.verbose = true
		lines.stats = *resp.Stats
	}
	printPath(stdout, lines)
	return 0
}

// sweep runs the day sweep through the server's batch endpoint.
func (c *client) sweep(src indoorpath.Point, targets []indoorpath.Point, method, stepStr string, verbose bool, stdout, stderr io.Writer) int {
	if method == "waiting" {
		fmt.Fprintln(stderr, "itspq: -sweep applies to syn/asyn/static, not waiting")
		return 1
	}
	batch, rows, errCode := sweepBatch(indoorpath.Query{Source: src}, targets, stepStr, stderr)
	if errCode != 0 {
		return errCode
	}
	req := server.BatchRequest{Method: method}
	for _, q := range batch {
		req.Queries = append(req.Queries, server.RouteRequest{
			From: &server.PointDoc{X: q.Source.X, Y: q.Source.Y, Floor: q.Source.Floor},
			To:   &server.PointDoc{X: q.Target.X, Y: q.Target.Y, Floor: q.Target.Floor},
			At:   q.At.String(),
		})
	}
	var resp server.BatchResponse
	if err := c.post(http.MethodPost, "/v1/venues/"+c.venue+"/route:batch", req, &resp); err != nil {
		fmt.Fprintf(stderr, "itspq: %v\n", err)
		return 1
	}
	if len(resp.Results) != len(batch) {
		fmt.Fprintf(stderr, "itspq: server returned %d results for %d queries\n", len(resp.Results), len(batch))
		return 1
	}
	for i, r := range resp.Results {
		if i%rows == 0 && len(targets) > 1 {
			printSweepTarget(stdout, batch[i].Target)
		}
		switch {
		case r.Error != nil:
			fmt.Fprintf(stderr, "itspq: %s\n", r.Error.Message)
			return 1
		case !r.Found:
			printSweepMiss(stdout, batch[i].At)
		default:
			printSweepRow(stdout, batch[i].At, r.Path.LengthM, r.Path.Hops, indoorpath.TimeOfDay(r.Path.ArriveSec))
		}
	}
	printSweepCache(stdout, int64(resp.Cache.Queries), int64(resp.Cache.ExactHits),
		int64(resp.Cache.SkeletonHits), int64(resp.Cache.Searches),
		int64(resp.Cache.SharedRuns), int64(resp.Cache.SharedAnswers))
	if verbose {
		var stats server.StatsResponse
		if err := c.get("/statsz", &stats); err != nil {
			fmt.Fprintf(stderr, "itspq: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "pool:    %s\n", stats.Venues[c.venue].Methods[method])
	}
	return 0
}

// parsePoint reads "x,y,floor" — the one syntax shared with the
// server's profile endpoint.
func parsePoint(s string) (indoorpath.Point, error) { return server.ParsePoint(s) }
