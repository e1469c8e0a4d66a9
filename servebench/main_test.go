package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

func testCtx(t *testing.T) *venueCtx {
	t.Helper()
	c, err := newVenueCtx()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFingerprintFollowsSeed(t *testing.T) {
	c := testCtx(t)
	for _, spec := range workloads {
		fp := func(seed int64) string {
			w, err := buildWorkload(c, spec, seed, 0.5, 1)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			return w.fingerprint()
		}
		a, b, other := fp(7), fp(7), fp(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two fingerprints %s and %s", spec.Name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same fingerprint %s", spec.Name, a)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark's output
// must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, the benchmark prints %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the benchmark prints %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
	for _, w := range bf.Workloads {
		if spec, ok := workloadByName(w.Name); !ok || spec.Why != w.Why {
			t.Errorf("BENCHMARK.json workload %+v: the benchmark knows it as %+v", w, spec)
		}
	}
	if strings.Join(bf.Command, " ") != "bash servebench/run.sh" {
		t.Errorf("command = %q", bf.Command)
	}
}

// TestQuickRuns runs every workload, untraced and traced, in quick
// mode and checks the result line.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	for _, spec := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errb strings.Builder
			code := run([]string{"--workload", spec.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick"}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s\n%s", spec.Name, trace, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", spec.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: result %+v", spec.Name, trace, res)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", spec.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s missing or with unit %q", spec.Name, trace, d.Name, m.Unit)
				}
			}
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown workload: exit %d", code)
	}
	if code := run([]string{"--workload", "fresh", "--trace", "2"}, &out, &errb); code != 2 {
		t.Fatalf("bad --trace: exit %d", code)
	}
}

// TestFlipUpdatesRestoreBaseSchedules applies each seed's flips
// updates in order and checks that an even number of them gives back
// the base schedules, also for doors without a schedule of their own.
func TestFlipUpdatesRestoreBaseSchedules(t *testing.T) {
	if got, _ := wireSchedule(nil); got != nil {
		t.Fatalf("wireSchedule(nil) = %q, want null (always open)", got)
	}
	norm := func(s temporal.Schedule) temporal.Schedule {
		if s == nil {
			s = temporal.AlwaysOpen()
		}
		n, err := temporal.NewSchedule(s...)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	c := testCtx(t)
	spec, _ := workloadByName("flips")
	for seed := int64(1); seed <= 40; seed++ {
		w, err := buildWorkload(c, spec, seed, 0.5, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v := c.v
		for k := 0; k < 4; k++ {
			parsed, err := parseUpdate(v, w.updates[k%2])
			if err != nil {
				t.Fatalf("seed %d update %d: %v", seed, k, err)
			}
			if v, err = v.WithSchedules(parsed); err != nil {
				t.Fatalf("seed %d update %d: %v", seed, k, err)
			}
			if k%2 == 0 {
				continue
			}
			for i, d := range v.Doors() {
				base := c.v.Door(model.DoorID(i)).ATIs
				if !slices.Equal(norm(d.ATIs), norm(base)) {
					t.Fatalf("seed %d: after %d updates door %s has schedule %v, base %v", seed, k+1, d.Name, d.ATIs, base)
				}
			}
		}
	}
}

// TestInvalidRunPrintsNoResult checks that a run whose generator fell
// behind is marked invalid: no result line and exit status 3.
func TestInvalidRunPrintsNoResult(t *testing.T) {
	spec, _ := workloadByName("crowd")
	w := &workload{workloadSpec: spec}
	late := func(ms float64) *passResult {
		p := &passResult{}
		for i := 0; i < 100; i++ {
			p.late = append(p.late, time.Duration(ms*float64(time.Millisecond)))
		}
		return p
	}
	var sink strings.Builder
	if reportVerdict(&sink, verdict{}, late(1), w) {
		t.Error("1 ms lateness marked the run invalid")
	}
	if !reportVerdict(&sink, verdict{}, late(2*maxLatenessMs), w) {
		t.Errorf("%g ms lateness did not mark the run invalid", 2*maxLatenessMs)
	}
	batch, _ := workloadByName("batch")
	if reportVerdict(&sink, verdict{}, late(2*maxLatenessMs), &workload{workloadSpec: batch}) {
		t.Error("a closed-loop run was marked invalid")
	}

	res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
	for _, c := range []struct {
		wrong   int
		err     error
		code    int
		printed bool
	}{
		{0, nil, 0, true},
		{2, nil, 1, true},
		{0, errBehind, 3, false},
		{2, errBehind, 1, false},
	} {
		var out, errb strings.Builder
		code := finish(res, c.wrong, c.err, &out, &errb)
		if code != c.code || (out.Len() > 0) != c.printed {
			t.Errorf("finish(wrong %d, %v) = exit %d, stdout %q; want exit %d, result printed %t",
				c.wrong, c.err, code, out.String(), c.code, c.printed)
		}
	}
}
