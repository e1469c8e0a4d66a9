package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	indoorpath "indoorpath"
)

func TestParsePoint(t *testing.T) {
	tests := []struct {
		in      string
		x, y    float64
		floor   int
		wantErr bool
	}{
		{"1,2,0", 1, 2, 0, false},
		{"100.5, 50.25, 3", 100.5, 50.25, 3, false},
		{" -4 , 7 , 1 ", -4, 7, 1, false},
		{"1,2", 0, 0, 0, true},
		{"1,2,3,4", 0, 0, 0, true},
		{"a,b,c", 0, 0, 0, true},
		{"1,b,0", 0, 0, 0, true},
		{"1,2,z", 0, 0, 0, true},
	}
	for _, tc := range tests {
		t.Run(tc.in, func(t *testing.T) {
			p, err := parsePoint(tc.in)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if err == nil && (p.X != tc.x || p.Y != tc.y || p.Floor != tc.floor) {
				t.Errorf("parsed %v", p)
			}
		})
	}
}

// --- end-to-end CLI runs -------------------------------------------------

// runCLI drives run() in-process and captures both streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// demoVenue is a hall and a shop joined by one door with business
// hours — enough to make every method's behaviour distinguishable.
func demoVenue(t *testing.T) *indoorpath.Venue {
	t.Helper()
	b := indoorpath.NewBuilder("demo")
	hall := b.AddPartition("hall", indoorpath.HallwayPartition, indoorpath.NewRect(0, 0, 20, 10, 0))
	shop := b.AddPartition("shop", indoorpath.PublicPartition, indoorpath.NewRect(20, 0, 30, 10, 0))
	gate := b.AddDoor("gate", indoorpath.PublicDoor, indoorpath.Pt(20, 5, 0),
		indoorpath.MustSchedule("[8:00, 16:00)"))
	b.ConnectBi(gate, hall, shop)
	return b.MustBuild()
}

// demoVenueFile writes the demo venue as JSON for local-mode runs.
func demoVenueFile(t *testing.T) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "demo.json")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := indoorpath.SaveVenue(f, demoVenue(t)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return file
}

func TestRunMethods(t *testing.T) {
	venue := demoVenueFile(t)
	base := []string{"-venue", venue, "-from", "2,5,0", "-to", "25,5,0"}
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  []string
	}{
		{name: "asyn open", args: []string{"-at", "12:00"},
			wantOut: []string{"path:    (ps, gate, pt)", "length:  23.00 m (1 doors)", "depart:  12:00   arrive: 12:00:17"}},
		{name: "syn open", args: []string{"-at", "12:00", "-method", "syn"},
			wantOut: []string{"path:    (ps, gate, pt)"}},
		{name: "static ignores closure", args: []string{"-at", "20:00", "-method", "static"},
			wantOut: []string{"path:    (ps, gate, pt)"}},
		{name: "asyn closed", args: []string{"-at", "20:00"},
			wantCode: 1, wantOut: []string{"no such routes"}},
		{name: "syn closed", args: []string{"-at", "20:00", "-method", "syn"},
			wantCode: 1, wantOut: []string{"no such routes"}},
		{name: "waiting before opening", args: []string{"-at", "7:00", "-method", "waiting"},
			wantOut: []string{"waiting:", "depart:  7:00"}},
		{name: "waiting after last close", args: []string{"-at", "20:00", "-method", "waiting"},
			wantCode: 1, wantOut: []string{"no such routes"}},
		{name: "verbose stats", args: []string{"-at", "12:00", "-v"},
			wantOut: []string{"stats:   method=ITG/A"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCLI(t, append(append([]string{}, base...), tc.args...)...)
			if code != tc.wantCode {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, out, errb)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out, want) {
					t.Fatalf("stdout missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestRunWorkersMatchesEngine(t *testing.T) {
	venue := demoVenueFile(t)
	base := []string{"-venue", venue, "-from", "2,5,0", "-to", "25,5,0", "-at", "12:00", "-v"}
	codeA, outA, _ := runCLI(t, base...)
	codeB, outB, _ := runCLI(t, append(append([]string{}, base...), "-workers", "2")...)
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exits = %d, %d", codeA, codeB)
	}
	if outA != outB {
		t.Fatalf("pooled output differs from engine output:\n--- engine\n%s--- pool\n%s", outA, outB)
	}
}

func TestRunSweep(t *testing.T) {
	venue := demoVenueFile(t)
	code, out, _ := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0",
		"-workers", "2", "-sweep", "6h", "-v")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // 4 rows + cache summary + pool stats
		t.Fatalf("want 4 sweep rows + cache + stats, got:\n%s", out)
	}
	for _, want := range []string{"0:00  no such routes", "12:00", "18:00  no such routes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep missing %q:\n%s", want, out)
		}
	}
	if lines[4] != "cache:   queries=4 exact=0 skeleton=0 searches=4" {
		t.Fatalf("cache line = %q", lines[4])
	}
	if !strings.HasPrefix(lines[5], "pool:    queries=4") {
		t.Fatalf("stats line = %q", lines[5])
	}
}

// TestRunSweepWindow: against a daemon with the skeleton store on, a
// sweep's departures inside the gate's [8:00, 16:00) slot window are
// composed from the pair's family once a repeat miss has built it — shown
// end to end by the summary line — and every row matches a local
// exact-cache sweep.
func TestRunSweepWindow(t *testing.T) {
	reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{Workers: 1, SkeletonCache: true})
	if err := reg.Add("demo", demoVenue(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(indoorpath.NewServer(reg, indoorpath.ServerOptions{}))
	t.Cleanup(ts.Close)
	code, out, _ := runCLI(t, "-server", ts.URL, "-venue", "demo", "-from", "2,5,0", "-to", "25,5,0", "-sweep", "2h")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	// 8:00 records the pair's miss, 10:00 repeats it and builds the
	// family, 12:00 and 14:00 compose from it.
	if !strings.Contains(out, "cache:   queries=12 exact=0 skeleton=2 searches=10") {
		t.Fatalf("skeleton sweep summary missing:\n%s", out)
	}
	venue := demoVenueFile(t)
	codeB, outB, _ := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0",
		"-workers", "1", "-sweep", "2h")
	if codeB != 0 {
		t.Fatalf("exit = %d", codeB)
	}
	rows := func(s string) string {
		var kept []string
		for _, ln := range strings.Split(s, "\n") {
			if !strings.HasPrefix(ln, "cache:") {
				kept = append(kept, ln)
			}
		}
		return strings.Join(kept, "\n")
	}
	if rows(out) != rows(outB) {
		t.Fatalf("skeleton sweep rows differ from exact sweep:\n--- skeleton\n%s--- exact\n%s", out, outB)
	}
	if !strings.Contains(outB, "cache:   queries=12 exact=0 skeleton=0 searches=12") {
		t.Fatalf("exact sweep summary missing:\n%s", outB)
	}
}

func TestRunErrorPaths(t *testing.T) {
	venue := demoVenueFile(t)
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{name: "missing flags", args: []string{"-venue", venue}, wantCode: 2},
		{name: "unknown flag", args: []string{"-nope"}, wantCode: 2},
		{name: "bad from", args: []string{"-venue", venue, "-from", "1,2", "-to", "25,5,0"},
			wantCode: 1, wantErr: "-from"},
		{name: "bad to", args: []string{"-venue", venue, "-from", "2,5,0", "-to", "a,b,c"},
			wantCode: 1, wantErr: "-to"},
		{name: "malformed time", args: []string{"-venue", venue, "-from", "2,5,0", "-to", "25,5,0", "-at", "25:61"},
			wantCode: 1, wantErr: "-at"},
		{name: "unknown method", args: []string{"-venue", venue, "-from", "2,5,0", "-to", "25,5,0", "-method", "bfs"},
			wantCode: 1, wantErr: "unknown method"},
		{name: "unknown venue file", args: []string{"-venue", filepath.Join(t.TempDir(), "missing.json"), "-from", "2,5,0", "-to", "25,5,0"},
			wantCode: 1, wantErr: "missing.json"},
		{name: "sweep without workers", args: []string{"-venue", venue, "-from", "2,5,0", "-to", "25,5,0", "-sweep", "2h"},
			wantCode: 1, wantErr: "-sweep requires -workers"},
		{name: "bad sweep step", args: []string{"-venue", venue, "-from", "2,5,0", "-to", "25,5,0", "-workers", "2", "-sweep", "zero"},
			wantCode: 1, wantErr: "bad step"},
		{name: "workers with waiting", args: []string{"-venue", venue, "-from", "2,5,0", "-to", "25,5,0", "-method", "waiting", "-workers", "2"},
			wantCode: 1, wantErr: "not waiting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCLI(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, out, errb)
			}
			if tc.wantErr != "" && !strings.Contains(errb, tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, errb)
			}
		})
	}
}

// startServer boots the HTTP daemon stack in-process with the demo
// venue registered as "demo".
func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{})
	if err := reg.Add("demo", demoVenue(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(indoorpath.NewServer(reg, indoorpath.ServerOptions{}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRunServerModeByteIdentical proves -server output matches local
// mode byte for byte across methods and outcomes.
func TestRunServerModeByteIdentical(t *testing.T) {
	venue := demoVenueFile(t)
	ts := startServer(t)
	cases := []struct {
		name string
		args []string
	}{
		{name: "found", args: []string{"-from", "2,5,0", "-to", "25,5,0", "-at", "12:00"}},
		{name: "found verbose", args: []string{"-from", "2,5,0", "-to", "25,5,0", "-at", "12:00", "-v"}},
		{name: "syn", args: []string{"-from", "2,5,0", "-to", "25,5,0", "-at", "9:30", "-method", "syn", "-v"}},
		{name: "static", args: []string{"-from", "2,5,0", "-to", "25,5,0", "-at", "20:00", "-method", "static"}},
		{name: "no route", args: []string{"-from", "2,5,0", "-to", "25,5,0", "-at", "20:00"}},
		{name: "waiting", args: []string{"-from", "2,5,0", "-to", "25,5,0", "-at", "7:00", "-method", "waiting"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			localCode, localOut, _ := runCLI(t, append([]string{"-venue", venue}, tc.args...)...)
			remoteCode, remoteOut, remoteErr := runCLI(t,
				append([]string{"-server", ts.URL, "-venue", "demo"}, tc.args...)...)
			if remoteCode != localCode {
				t.Fatalf("exit = %d, want %d\nstderr:\n%s", remoteCode, localCode, remoteErr)
			}
			if remoteOut != localOut {
				t.Fatalf("server output differs from local:\n--- local\n%s--- server\n%s", localOut, remoteOut)
			}
		})
	}
}

func TestRunServerModeSweep(t *testing.T) {
	venue := demoVenueFile(t)
	ts := startServer(t)
	_, localOut, _ := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0",
		"-workers", "2", "-sweep", "6h")
	code, remoteOut, errb := runCLI(t, "-server", ts.URL, "-venue", "demo",
		"-from", "2,5,0", "-to", "25,5,0", "-sweep", "6h")
	if code != 0 {
		t.Fatalf("exit = %d\nstderr:\n%s", code, errb)
	}
	if remoteOut != localOut {
		t.Fatalf("server sweep differs from local:\n--- local\n%s--- server\n%s", localOut, remoteOut)
	}
	// Verbose adds the server pool's counters from /statsz.
	code, remoteOut, _ = runCLI(t, "-server", ts.URL, "-venue", "demo",
		"-from", "2,5,0", "-to", "25,5,0", "-sweep", "6h", "-v")
	if code != 0 || !strings.Contains(remoteOut, "pool:    queries=") {
		t.Fatalf("verbose server sweep:\n%s", remoteOut)
	}
}

func TestRunServerModeErrors(t *testing.T) {
	ts := startServer(t)
	// Unknown venue ID on the server.
	code, _, errb := runCLI(t, "-server", ts.URL, "-venue", "atlantis",
		"-from", "2,5,0", "-to", "25,5,0", "-at", "12:00")
	if code != 1 || !strings.Contains(errb, "unknown venue") {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	// A point outside every partition surfaces the engine's message.
	code, _, errb = runCLI(t, "-server", ts.URL, "-venue", "demo",
		"-from", "-99,-99,0", "-to", "25,5,0", "-at", "12:00")
	if code != 1 || !strings.Contains(errb, "not covered by any partition") {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	// Server unreachable.
	code, _, errb = runCLI(t, "-server", "http://127.0.0.1:1", "-venue", "demo",
		"-from", "2,5,0", "-to", "25,5,0", "-at", "12:00")
	if code != 1 || errb == "" {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
}

// TestRunSweepShared: with -shared and the static method the whole day
// sweep is one shared-source group — ONE engine search answers every
// departure — and the cache line reports the planner's work.
func TestRunSweepShared(t *testing.T) {
	venue := demoVenueFile(t)
	code, out, _ := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0",
		"-method", "static", "-workers", "2", "-sweep", "6h", "-shared")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "cache:   queries=4 exact=0 skeleton=0 searches=1 sharedRuns=1 sharedAnswers=4") {
		t.Fatalf("shared static sweep summary missing:\n%s", out)
	}
	// Rows are byte-identical to the unshared sweep.
	codeB, outB, _ := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0",
		"-method", "static", "-workers", "2", "-sweep", "6h")
	if codeB != 0 {
		t.Fatalf("exit = %d", codeB)
	}
	stripCache := func(s string) string {
		var kept []string
		for _, ln := range strings.Split(s, "\n") {
			if !strings.HasPrefix(ln, "cache:") {
				kept = append(kept, ln)
			}
		}
		return strings.Join(kept, "\n")
	}
	if stripCache(out) != stripCache(outB) {
		t.Fatalf("shared sweep rows differ from unshared:\n--- shared\n%s--- plain\n%s", out, outB)
	}
}

// TestRunSweepMultiTarget: several ';'-separated -to targets sweep as
// one batch with per-target block headers; with -shared every
// departure's fan-out is one engine run.
func TestRunSweepMultiTarget(t *testing.T) {
	venue := demoVenueFile(t)
	code, out, _ := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0;22,8,0",
		"-workers", "2", "-sweep", "6h", "-shared")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"target:  25,5,0", "target:  22,8,0",
		"cache:   queries=8 exact=0 skeleton=0 searches=4 sharedRuns=4 sharedAnswers=8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi-target sweep missing %q:\n%s", want, out)
		}
	}
	// 2 headers + 8 rows + cache line.
	if lines := strings.Split(strings.TrimRight(out, "\n"), "\n"); len(lines) != 11 {
		t.Fatalf("want 11 output lines, got %d:\n%s", len(lines), out)
	}
}

// TestRunServerModeSweepShared: the multi-target shared sweep through a
// -shared-batch daemon is byte-identical to local -shared mode.
func TestRunServerModeSweepShared(t *testing.T) {
	venue := demoVenueFile(t)
	reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{SharedBatch: true})
	if err := reg.Add("demo", demoVenue(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(indoorpath.NewServer(reg, indoorpath.ServerOptions{}))
	t.Cleanup(ts.Close)

	_, localOut, _ := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0;22,8,0",
		"-workers", "2", "-sweep", "6h", "-shared")
	code, remoteOut, errb := runCLI(t, "-server", ts.URL, "-venue", "demo",
		"-from", "2,5,0", "-to", "25,5,0;22,8,0", "-sweep", "6h")
	if code != 0 {
		t.Fatalf("exit = %d\nstderr:\n%s", code, errb)
	}
	if remoteOut != localOut {
		t.Fatalf("server shared sweep differs from local:\n--- local\n%s--- server\n%s", localOut, remoteOut)
	}
}

// TestRunToEmptySegments: ';'-separated -to lists must reject empty
// segments (trailing ';', "a;;b", a lone ';') with a clear usage error
// instead of silently dropping them and querying the wrong target set.
func TestRunToEmptySegments(t *testing.T) {
	venue := demoVenueFile(t)
	for _, to := range []string{
		"25,5,0;",         // trailing separator
		"25,5,0;;22,8,0",  // double separator
		";25,5,0",         // leading separator
		";",               // nothing but separators
		"25,5,0; ;22,8,0", // blank segment
	} {
		t.Run(to, func(t *testing.T) {
			code, out, errb := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", to,
				"-workers", "2", "-sweep", "6h")
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
			}
			if !strings.Contains(errb, "-to") || !strings.Contains(errb, "empty target segment") {
				t.Fatalf("stderr should name the empty -to segment:\n%s", errb)
			}
		})
	}
	// The plain single-target form is untouched.
	if code, out, errb := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", " 25,5,0 ", "-at", "12:00"); code != 0 {
		t.Fatalf("single target with spaces: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
}

// TestRunSharedFlagErrors: -shared is a local pool knob with its own
// guidance, and multi-target -to requires -sweep.
func TestRunSharedFlagErrors(t *testing.T) {
	venue := demoVenueFile(t)
	ts := startServer(t)
	code, _, errb := runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0", "-shared")
	if code != 1 || !strings.Contains(errb, "-shared requires -workers") {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	code, _, errb = runCLI(t, "-server", ts.URL, "-venue", "demo",
		"-from", "2,5,0", "-to", "25,5,0", "-shared")
	if code != 1 || !strings.Contains(errb, "itspqd -shared-batch") {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	code, _, errb = runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0;22,8,0",
		"-workers", "2")
	if code != 1 || !strings.Contains(errb, "require -sweep") {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	code, _, errb = runCLI(t, "-venue", venue, "-from", "2,5,0", "-to", "25,5,0",
		"-method", "waiting", "-shared")
	if code != 1 || !strings.Contains(errb, "not waiting") {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
}
