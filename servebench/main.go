// Command servebench is the repository's serving benchmark. It boots the
// full serving stack on the mall preset in this process behind a
// loopback listener, drives it from the same process with at most two
// connections, checks every answer against a sequential engine, and
// prints end-to-end metrics. With --trace 1 it walks down the stack one
// layer at a time instead and prints the per-layer table.
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload fresh --seed 1 --seconds 25 --trace 0
//	bash servebench/run.sh --workload crowd --seed 1 --seconds 25 --trace 1
//	bash servebench/run.sh --calibrate --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when an
// answer is wrong or the run errored, 2 on bad usage, and 3 when an
// open-loop generator fell behind its schedule, which makes the run
// invalid: it then prints no result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig holds the lengths of one run.
type runConfig struct {
	warm, window float64       // seconds
	setups       int           // stack boots timed for setup_s
	tieBudget    time.Duration // OracleShortest time per answer check
}

// errBehind marks an invalid open-loop run: the generator released
// its requests later than scheduled (lateness p99 above maxLatenessMs),
// so the offered load was not the scheduled one. Such a run prints its
// figures but no result line, and exits with status 3.
var errBehind = errors.New("the generator fell behind its schedule; the run is invalid")

// maxLatenessMs is the generator lateness p99 beyond which an
// open-loop run is invalid: its offered load was not the one
// scheduled. The generator shares two cores with the stack, so a
// release can wait out a scheduler time slice (10 ms) or two behind
// busy searches, and more while the host runs the guest slowly: p99s
// of 2-40 ms were seen on runs whose releases kept pace. Ten slices
// late for one release in a hundred is a backlog, not jitter.
const maxLatenessMs = 100.0

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload: fresh, crowd, flips or batch")
		seed      = fs.Int64("seed", 1, "workload seed")
		secs      = fs.Float64("seconds", 25, "length of the timed window, seconds")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
		quick     = fs.Bool("quick", false, "short warm-up and a single timed set-up (tests)")
		calibrate = fs.Bool("calibrate", false, "measure each workload's closed-loop capacity and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "servebench: "+format+"\n", a...)
		return 1
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), conns))
	cfg := runConfig{warm: 2, window: *secs, setups: 9, tieBudget: 3 * time.Second}
	if *quick {
		cfg.warm, cfg.setups, cfg.tieBudget = 0.3, 1, 300*time.Millisecond
	}
	c, err := newVenueCtx()
	if err != nil {
		return fail("%v", err)
	}
	if *calibrate {
		if err := calibrateAll(c, cfg, stdout); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	spec, ok := workloadByName(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: need --workload (fresh, crowd, flips or batch), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	fmt.Fprintf(stdout, "servebench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		spec.Name, *seed, *secs, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	var wrong int
	if *trace == 0 {
		res, wrong, err = measure(c, spec, *seed, cfg, stdout)
	} else {
		res, wrong, err = traceRun(c, spec, *seed, cfg, stdout)
	}
	return finish(res, wrong, err, stdout, stderr)
}

// finish prints a run's result line and returns its exit status. An
// invalid run (errBehind) prints no result line.
func finish(res result, wrong int, err error, stdout, stderr io.Writer) int {
	invalid := errors.Is(err, errBehind)
	if err != nil && !invalid {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	if invalid {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
	} else {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "servebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	switch {
	case wrong > 0:
		fmt.Fprintf(stderr, "servebench: %d wrong answers\n", wrong)
		return 1
	case invalid:
		return 3
	}
	return 0
}

// subWindow is the length of the sub-windows latency percentiles are
// taken over, seconds: a multiple of flipEvery, so that every
// sub-window of flips holds the same number of updates at the same
// phase.
const subWindow = 2 * flipEvery

// endToEndValues computes the end-to-end metrics of one pass. Each
// latency percentile is the median of that percentile over the
// window's subWindow-second sub-windows (by due time), which keeps one
// noisy stretch of the window from moving it; throughput and CPU are
// taken over the whole window, allocation too.
func endToEndValues(p *passResult, window float64) map[string]float64 {
	k := max(1, int(window/subWindow+0.5))
	lat := make([][]float64, k)
	answered := 0
	for _, r := range p.timed() {
		j := min(k-1, int(r.due.Sub(p.start).Seconds()/subWindow))
		lat[j] = append(lat[j], ms(r.done.Sub(r.due)))
		for _, a := range r.answers {
			if a.fail == "" {
				answered++
			}
		}
	}
	pct := func(q float64) float64 {
		var per []float64
		for _, l := range lat {
			if len(l) > 0 {
				per = append(per, quantile(sortedCopy(l), q))
			}
		}
		return quantile(sortedCopy(per), 0.5)
	}
	return map[string]float64{
		"p50_ms":             pct(0.50),
		"p90_ms":             pct(0.90),
		"p99_ms":             pct(0.99),
		"queries_per_s":      ratio(float64(answered), p.end.Sub(p.start).Seconds()),
		"cpu_ms_per_query":   ratio(ms(p.cpu), float64(answered)),
		"alloc_kb_per_query": ratio(float64(p.alloc)/1e3, float64(answered)),
	}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// latenessP99 is the p99 of the generator's release lateness, in ms.
func latenessP99(p *passResult) float64 {
	var v []float64
	for _, d := range p.late {
		v = append(v, ms(d))
	}
	return quantile(sortedCopy(v), 0.99)
}

// describeStream prints the stream's size and fingerprint.
func describeStream(out io.Writer, w *workload) {
	kind := fmt.Sprintf("open loop at %g/s", w.Rate)
	if !w.OpenLoop {
		kind = fmt.Sprintf("closed loop on %d connections, %d-query batches", conns, batchSize)
	}
	fmt.Fprintf(out, "stream %s, %d scheduled requests, fingerprint %s\n", kind, len(w.reqs), w.fingerprint())
}

// reportVerdict prints the answer check and the generator's lateness,
// and reports whether an open-loop generator fell behind its schedule.
func reportVerdict(out io.Writer, v verdict, p *passResult, w *workload) (behind bool) {
	fmt.Fprintf(out, "answers: %d timed requests, %d failed, %d wrong, fail_frac %.6g\n",
		v.attempted, v.failed, v.wrong, ratio(float64(v.failed+v.wrong), float64(v.attempted)))
	for _, s := range v.samples {
		fmt.Fprintf(out, "  %s\n", s)
	}
	if v.ties > 0 {
		fmt.Fprintf(out, "ties: %d answers took another door sequence of equal length (%d checked against OracleShortest); %d of them differ from the reference length in the last bits\n",
			v.ties, v.tiesChecked, v.tiesInexact)
	}
	if len(p.updateErrs) > 0 {
		fmt.Fprintf(out, "schedule updates: %d applied, %d failed: %s\n", p.updates, len(p.updateErrs), p.updateErrs[0])
	}
	if !w.OpenLoop {
		return false
	}
	l := latenessP99(p)
	state := "valid"
	if l > maxLatenessMs {
		state = "INVALID: the generator fell behind its schedule"
	}
	fmt.Fprintf(out, "generator lateness p99 %.3f ms (%s)\n", l, state)
	return l > maxLatenessMs
}

// measure is the untraced run: time the stack's set-up, drive the
// workload over loopback HTTP, then check every answer.
func measure(c *venueCtx, spec workloadSpec, seed int64, cfg runConfig, out io.Writer) (result, int, error) {
	w, err := buildWorkload(c, spec, seed, cfg.warm, cfg.window)
	if err != nil {
		return result{}, 0, err
	}
	describeStream(out, w)
	orc, err := newOracle(c, w, cfg.tieBudget)
	if err != nil {
		return result{}, 0, err
	}
	probe, err := c.probeQuery()
	if err != nil {
		return result{}, 0, err
	}
	idle := runtime.NumGoroutine()
	setupS, st, err := measureSetup(cfg.setups, conns, routeRequest("asyn", probe))
	if err != nil {
		return result{}, 0, err
	}
	p := drive(w, &wireTarget{st: st}, cfg.warm, cfg.window, nil, "http", nil)
	vals := endToEndValues(p, cfg.window)
	vals["setup_s"] = setupS
	// The stack is idle once the window has closed, so its caches are
	// as the window left them. Its live heap is what closing it frees:
	// the benchmark's own copy of the mall, the stream, the oracle and
	// the records stay live across both reads. A connection's goroutine
	// holds the stack until it returns, so the second read waits for
	// every goroutine the stack started.
	withStack := liveHeapMB()
	st.close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > idle; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return result{}, 0, fmt.Errorf("%d goroutines still running 2 s after the stack closed", runtime.NumGoroutine()-idle)
		}
	}
	vals["live_heap_mb"] = withStack - liveHeapMB()
	v := orc.check(p)
	behind := reportVerdict(out, v, p, w)
	vals["ok_frac"] = ratio(float64(v.attempted-v.failed-v.wrong), float64(v.attempted))
	res := result{Correct: v.allWrong == 0, Attempted: v.attempted, Failed: v.failed + v.wrong, Metrics: fill(endToEnd, vals)}
	printTable(out, endToEnd, res.Metrics)
	fmt.Fprintf(out, "following the host's speed (printed, not in the result line):\n")
	printTable(out, unbounded, fill(unbounded, vals))
	if behind {
		return res, v.allWrong, errBehind
	}
	return res, v.allWrong, nil
}

// calibrateAll measures each workload's closed-loop capacity on conns
// callers over loopback HTTP. An open-loop workload's requests are
// sent back to back instead of on schedule.
func calibrateAll(c *venueCtx, cfg runConfig, out io.Writer) error {
	fmt.Fprintf(out, "calibration: closed loop, %d connections, %gs window, nproc=%d gomaxprocs=%d %s\n",
		conns, cfg.window, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, spec := range workloads {
		// Generate the stream at a multiple of its rate so that the
		// closed loop does not run out of distinct requests.
		const streamFactor = 8
		spec.Rate *= streamFactor
		w, err := buildWorkload(c, spec, 1, cfg.warm, cfg.window)
		if err != nil {
			return err
		}
		var routes []request
		if w.OpenLoop {
			for _, r := range w.reqs {
				if r.Flip < 0 {
					routes = append(routes, r)
				}
			}
			// Past the end of the stream the loop starts over, and the
			// repeats are cache hits: the printout says when it did.
			w.batchAt = func(i int) request { return routes[i%len(routes)] }
		}
		st, err := bootStack(true, conns)
		if err != nil {
			return err
		}
		p := runClosed(w, &wireTarget{st: st}, dur(cfg.warm), dur(cfg.window), nil, "http", nil)
		st.close()
		vals := endToEndValues(p, cfg.window)
		fmt.Fprintf(out, "  %-6s %9.1f queries/s %8.1f requests/s  p50 %8.3f ms  cpu %7.3f ms/query  (%d requests offered by the stream)\n",
			spec.Name, vals["queries_per_s"], float64(len(p.timed()))/p.end.Sub(p.start).Seconds(),
			vals["p50_ms"], vals["cpu_ms_per_query"], len(w.reqs))
		if w.OpenLoop && len(p.recs) > len(routes) {
			fmt.Fprintf(out, "  (the %s stream ran out and was repeated: capacity overstated)\n", spec.Name)
		}
	}
	return nil
}
