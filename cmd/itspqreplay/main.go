// Command itspqreplay replays a deterministic "day in the venue"
// workload against a live ITSPQ daemon and writes a BENCH_replay.json
// report with latency percentiles, engine-search rates, cache/
// coalesce provenance and self-check verdicts.
//
// Usage:
//
//	itspqreplay -scenario rush-hour -quick               # self-hosted daemon
//	itspqreplay -scenario flip-storm -addr http://127.0.0.1:8080
//	itspqreplay -list                                    # scenario names
//
// Without -addr the tool self-hosts: it builds the scenario's preset
// venue in process behind an httptest server configured like
// `itspqd -coalesce -shared-batch -skeleton-cache` and replays against
// that. With -addr it drives the daemon you started
// (which must serve the scenario's preset under the same ID —
// `itspqd -preset hospital` for the built-in scenarios).
//
// The query stream is a pure function of (scenario, seed): wall-clock
// numbers vary run to run, but two reports with equal
// stream_fingerprint values replayed the identical day.
//
// Exit status: 0 all verdicts pass, 1 a verdict failed or the run
// errored, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"

	indoorpath "indoorpath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itspqreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "", "built-in scenario name: "+strings.Join(indoorpath.ReplayScenarios(), ", "))
		quick    = fs.Bool("quick", false, "10x smaller per-phase query counts (CI smoke variant)")
		seed     = fs.Int64("seed", 0, "override the scenario's stream seed (0 = scenario default)")
		addr     = fs.String("addr", "", "daemon base URL, e.g. http://127.0.0.1:8080 (empty = self-host the scenario's preset in process)")
		out      = fs.String("out", "BENCH_replay.json", "report output path (- = stdout)")
		list     = fs.Bool("list", false, "list built-in scenarios and exit")
		verbose  = fs.Bool("v", false, "per-phase progress on stderr, plus the server-side per-stage latency breakdown and decision-provenance reason tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, name := range indoorpath.ReplayScenarios() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *scenario == "" {
		fmt.Fprintln(stderr, "itspqreplay: need -scenario (or -list)")
		fs.Usage()
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "itspqreplay: "+format+"\n", a...)
		return 1
	}

	sc, err := indoorpath.BuiltinReplayScenario(*scenario, *quick)
	if err != nil {
		return fail("%v", err)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	base := *addr
	if base == "" {
		ts, err := selfHost(sc.Venue)
		if err != nil {
			return fail("%v", err)
		}
		defer ts.Close()
		base = ts.URL
		fmt.Fprintf(stdout, "itspqreplay: self-hosting preset %s at %s\n", sc.Venue, base)
	}

	opts := indoorpath.ReplayOptions{BaseURL: base, Quick: *quick}
	if *verbose {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, "itspqreplay: "+format+"\n", a...)
		}
	}
	rep, err := indoorpath.RunReplay(sc, opts)
	if err != nil {
		return fail("%v", err)
	}

	if *out == "-" {
		if err := rep.WriteJSON(stdout); err != nil {
			return fail("%v", err)
		}
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return fail("%v", err)
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail("write %s: %v", *out, werr)
		}
		fmt.Fprintf(stdout, "itspqreplay: wrote %s\n", *out)
	}
	fmt.Fprint(stdout, rep.Summary())
	if *verbose {
		if tbl := rep.StageTable(); tbl != "" {
			fmt.Fprint(stdout, "itspqreplay: server-side stage breakdown\n"+tbl)
		}
		if tbl := rep.ReasonsTable(); tbl != "" {
			fmt.Fprint(stdout, "itspqreplay: decision provenance (miss / solo reasons per phase)\n"+tbl)
		}
		if tbl := rep.HotPairsTable(); tbl != "" {
			fmt.Fprint(stdout, "itspqreplay: hot partition pairs (top movers per phase)\n"+tbl)
		}
		if tbl := rep.EffortTable(); tbl != "" {
			fmt.Fprint(stdout, "itspqreplay: per-search engine effort per phase\n"+tbl)
		}
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// selfHost boots an in-process daemon serving the scenario's preset,
// configured like `itspqd -coalesce -shared-batch -skeleton-cache` —
// the full serving stack the scenarios are written to exercise.
func selfHost(preset string) (*httptest.Server, error) {
	reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{
		SkeletonCache: true,
		SharedBatch:   true,
	})
	if _, err := reg.AddPresets(preset); err != nil {
		return nil, err
	}
	srv := indoorpath.NewServer(reg, indoorpath.ServerOptions{Coalesce: true})
	return httptest.NewServer(srv), nil
}
