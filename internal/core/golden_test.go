package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// updateGolden rewrites testdata/golden_mall.json from the current
// engine instead of comparing against it:
//
//	go test ./internal/core -run TestGoldenMall -update-golden
//
// Regenerate only when an answer or effort change is intended; the
// fixture's job is to prove a refactor changed neither.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden mall fixture")

const goldenFile = "testdata/golden_mall.json"

// goldenPath is a Path with every float64 recorded as its exact bits.
type goldenPath struct {
	Doors        []model.DoorID
	Partitions   []model.PartitionID
	Length       uint64
	Arrivals     []uint64
	ArrivalAtTgt uint64
}

// goldenStats is every SearchStats counter except BytesEstimate (a
// memory model, not an effort count).
type goldenStats struct {
	Pops, Settled, Relaxations, DoorsTouched, PartitionsVisited, HeapMax int
	Checker                                                              core.CheckerStats
	Found                                                                bool
	PathHops                                                             int
	PathLength                                                           uint64
}

type goldenOutcome struct {
	Path  *goldenPath `json:",omitempty"`
	Stats goldenStats
	Err   string `json:",omitempty"`
	Solo  bool   `json:",omitempty"`
}

type goldenChain struct {
	Entry, Anchor model.DoorID
	Doors         []model.DoorID
	Partitions    []model.PartitionID
	Legs          []uint64
}

type goldenFamily struct {
	Src, Tgt          model.PartitionID
	Slot              int
	WinOpen, WinClose uint64
	Chains            []goldenChain
}

// goldenCase is one engine call: Kind is route, many, manyto or family.
type goldenCase struct {
	Kind     string
	Method   string
	At       uint64
	Query    int             // route/many: source index; manyto: target index; family: pair index
	Outcomes []goldenOutcome `json:",omitempty"`
	Family   *goldenFamily   `json:",omitempty"`
}

func bits(f float64) uint64 { return math.Float64bits(f) }

func toGoldenPath(p *core.Path) *goldenPath {
	if p == nil {
		return nil
	}
	gp := &goldenPath{Doors: p.Doors, Partitions: p.Partitions,
		Length: bits(p.Length), ArrivalAtTgt: bits(float64(p.ArrivalAtTgt))}
	for _, a := range p.Arrivals {
		gp.Arrivals = append(gp.Arrivals, bits(float64(a)))
	}
	return gp
}

func toGoldenOutcome(p *core.Path, st core.SearchStats, err error, solo bool) goldenOutcome {
	o := goldenOutcome{Path: toGoldenPath(p), Solo: solo, Stats: goldenStats{
		Pops: st.Pops, Settled: st.Settled, Relaxations: st.Relaxations,
		DoorsTouched: st.DoorsTouched, PartitionsVisited: st.PartitionsVisited,
		HeapMax: st.HeapMax, Checker: st.Checker, Found: st.Found,
		PathHops: st.PathHops, PathLength: bits(st.PathLength),
	}}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

func toGoldenFamily(f *core.SkeletonFamily) *goldenFamily {
	if f == nil {
		return nil
	}
	gf := &goldenFamily{Src: f.Src, Tgt: f.Tgt, Slot: f.Slot,
		WinOpen: bits(float64(f.Window.Open)), WinClose: bits(float64(f.Window.Close))}
	for _, sk := range f.Chains {
		c := goldenChain{Entry: sk.Entry, Anchor: sk.Anchor, Doors: sk.Doors, Partitions: sk.Partitions}
		for _, l := range sk.Legs {
			c.Legs = append(c.Legs, bits(l))
		}
		gf.Chains = append(gf.Chains, c)
	}
	return gf
}

// goldenMall builds the serving preset's mall (the same generator seeds
// as the "mall" server preset) and a fixed endpoint set: paper-style
// δs2t query instances plus endpoints drawn from arbitrary partitions,
// so private, stairwell and same-partition cases are covered too.
func goldenMall(t *testing.T) (*itgraph.Graph, []geom.Point, []geom.Point) {
	t.Helper()
	m, err := synth.GenerateMall(synth.MallConfig{
		Seed: 42,
		ATI:  synth.ATIConfig{CheckpointCount: 8, Seed: 43},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := itgraph.MustNew(m.Venue)
	qis, err := synth.GenerateQueries(m, g.DM(), synth.QueryConfig{S2T: 1500, Count: 5, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	var srcs, tgts []geom.Point
	for _, qi := range qis {
		srcs = append(srcs, qi.Source)
		tgts = append(tgts, qi.Target)
	}
	v := m.Venue
	rng := rand.New(rand.NewSource(45))
	anyPoint := func() geom.Point {
		for {
			p := v.Partition(model.PartitionID(rng.Intn(v.PartitionCount())))
			r := p.Rect
			if r.Width() <= 0 || r.Height() <= 0 {
				continue
			}
			pt := geom.Pt(r.MinX+r.Width()*(0.2+0.6*rng.Float64()),
				r.MinY+r.Height()*(0.2+0.6*rng.Float64()), r.Floor)
			if got, ok := v.Locate(pt); ok && got == p.ID {
				return pt
			}
		}
	}
	for i := 0; i < 4; i++ {
		srcs = append(srcs, anyPoint())
		tgts = append(tgts, anyPoint())
	}
	return g, srcs, tgts
}

// goldenRun executes the fixed call set on the current engine.
func goldenRun(t *testing.T) []goldenCase {
	g, srcs, tgts := goldenMall(t)
	v := g.Venue()
	var out []goldenCase
	for _, m := range []core.Method{core.MethodSyn, core.MethodAsyn, core.MethodStatic} {
		// One engine per method, reused across every call: the golden
		// record also pins that state carried between searches (and
		// between search kinds) never leaks into an answer.
		e := core.NewEngine(g, core.Options{Method: m})
		name := e.MethodName()
		for _, at := range []temporal.TimeOfDay{temporal.Clock(3, 0, 0), temporal.Clock(12, 0, 0), temporal.Clock(19, 30, 0)} {
			for i := range srcs {
				p, st, err := e.Route(core.Query{Source: srcs[i], Target: tgts[i], At: at})
				out = append(out, goldenCase{Kind: "route", Method: name, At: bits(float64(at)), Query: i,
					Outcomes: []goldenOutcome{toGoldenOutcome(p, st, err, false)}})
			}
			for _, i := range []int{0, len(srcs) - 1} {
				c := goldenCase{Kind: "many", Method: name, At: bits(float64(at)), Query: i}
				for _, o := range e.RouteMany(srcs[i], tgts, at, 0) {
					c.Outcomes = append(c.Outcomes, toGoldenOutcome(o.Path, o.Stats, o.Err, o.Solo))
				}
				out = append(out, c)
				c = goldenCase{Kind: "manyto", Method: name, At: bits(float64(at)), Query: i}
				for _, o := range e.RouteManyTo(srcs, tgts[i], at, 0) {
					c.Outcomes = append(c.Outcomes, toGoldenOutcome(o.Path, o.Stats, o.Err, o.Solo))
				}
				out = append(out, c)
			}
			for i := range srcs {
				sp, ok1 := v.Locate(srcs[i])
				tp, ok2 := v.Locate(tgts[i])
				if !ok1 || !ok2 {
					t.Fatalf("golden endpoint %d not indoor", i)
				}
				out = append(out, goldenCase{Kind: "family", Method: name, At: bits(float64(at)), Query: i,
					Family: toGoldenFamily(e.BuildSkeletonFamily(sp, tp, at))})
			}
		}
	}
	return out
}

// TestGoldenMall pins Route, RouteMany, RouteManyTo and
// BuildSkeletonFamily on the mall preset to a recorded fixture: door
// and partition sequences, the exact float64 bits of every length and
// arrival, whole skeleton families, and every effort counter. Equal
// Pops/Settled/Relaxations/HeapMax prove the settle order itself is
// unchanged, not just the answers.
func TestGoldenMall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 5-floor mall")
	}
	got := goldenRun(t)
	path := filepath.FromSlash(goldenFile)
	if *updateGolden {
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, fixture has %d", len(got), len(want))
	}
	found, chains := 0, 0
	for i := range want {
		// Comparing canonical encodings treats a nil slice and an empty
		// one alike, which a JSON round trip cannot tell apart anyway.
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want[i])
		if !bytes.Equal(gj, wj) {
			t.Errorf("case %d (%s %s at %v query %d) differs:\n got  %.600s\n want %.600s",
				i, want[i].Kind, want[i].Method, math.Float64frombits(want[i].At), want[i].Query, gj, wj)
			continue
		}
		for _, o := range want[i].Outcomes {
			if o.Path != nil {
				found++
			}
		}
		if want[i].Family != nil {
			chains += len(want[i].Family.Chains)
		}
	}
	// Guard against a fixture that degenerated into all-no-route.
	if found < 100 || chains < 100 {
		t.Fatalf("fixture exercises only %d found paths and %d chains", found, chains)
	}
}
