package core

import (
	"math/rand"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

func TestValidityWindow(t *testing.T) {
	g, _, _ := corridorVenue(t)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	e := NewEngine(g, Options{})
	p, _, err := e.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ValidityWindow(g, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Contains(q.At) {
		t.Fatalf("window %v must contain the original departure", w)
	}
	// d2 ([8:00,16:00)) sits 18 m into the path (walk ≈ 12.96 s): the
	// window must end just before 16:00 minus that walk.
	wantClose := temporal.Clock(16, 0, 0) - temporal.TimeOfDay(18.0/WalkingSpeedMPS)
	if diff := float64(w.Close - wantClose); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("window close = %v, want %v", w.Close, wantClose)
	}
	wantOpen := temporal.Clock(8, 0, 0) - temporal.TimeOfDay(18.0/WalkingSpeedMPS)
	if diff := float64(w.Open - wantOpen); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("window open = %v, want %v", w.Open, wantOpen)
	}
}

// TestValidityWindowProperty: departing at random instants inside the
// window, the same door sequence must stay valid; departing just past
// either edge must not.
func TestValidityWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		v := randomVenue(t, rng, 3, 3)
		g := itgraph.MustNew(v)
		e := NewEngine(g, Options{})
		q := Query{
			Source: geom.Pt(rng.Float64()*30, rng.Float64()*30, 0),
			Target: geom.Pt(rng.Float64()*30, rng.Float64()*30, 0),
			At:     temporal.TimeOfDay(rng.Float64() * 86400),
		}
		p, _, err := e.RouteOrNil(q)
		if err != nil || p == nil || p.Hops() == 0 {
			continue
		}
		w, err := ValidityWindow(g, p, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		replay := func(at temporal.TimeOfDay) error {
			// Rebuild the path arrivals for the shifted departure and
			// validate the same door sequence.
			shifted := *p
			shifted.DepartedAt = at
			shifted.Arrivals = make([]temporal.TimeOfDay, len(p.Arrivals))
			for i := range p.Arrivals {
				shifted.Arrivals[i] = p.Arrivals[i] - q.At.Mod() + at
			}
			shifted.ArrivalAtTgt = p.ArrivalAtTgt - q.At.Mod() + at
			qq := q
			qq.At = at
			return shifted.Validate(g, qq)
		}
		for probe := 0; probe < 5; probe++ {
			at := w.Open + temporal.TimeOfDay(rng.Float64())*(w.Close-w.Open)
			if err := replay(at); err != nil {
				t.Fatalf("trial %d: departure %v inside window %v invalid: %v", trial, at, w, err)
			}
		}
		// Past either edge the path must be invalid — or valid only via a
		// *different* ATI than the original departure used (the window is
		// maximal within the original ATIs; an adjacent ATI or midnight
		// wrap can re-validate the sequence).
		atiSignature := func(at temporal.TimeOfDay) []int {
			sig := make([]int, len(p.Doors))
			for i, d := range p.Doors {
				arr := (p.Arrivals[i] - q.At.Mod() + at).Mod()
				sig[i] = -1
				for k, iv := range v.Door(d).ATIs {
					if iv.Contains(arr) {
						sig[i] = k
						break
					}
				}
			}
			return sig
		}
		orig := atiSignature(q.At.Mod())
		checkEdge := func(at temporal.TimeOfDay) {
			if at < 0 || at >= temporal.DaySeconds {
				return
			}
			if err := replay(at); err == nil {
				sig := atiSignature(at)
				same := true
				for i := range sig {
					if sig[i] != orig[i] {
						same = false
						break
					}
				}
				if same {
					t.Fatalf("trial %d: departure %v outside window %v valid via the same ATIs", trial, at, w)
				}
			}
		}
		const eps = 1.0 // one second past the edge
		checkEdge(w.Close + eps)
		if w.Open > 0 {
			checkEdge(w.Open - eps)
		}
	}
}

func TestValidityWindowErrors(t *testing.T) {
	g, _, _ := corridorVenue(t)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	e := NewEngine(g, Options{})
	p, _, err := e.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	// Waiting paths are rejected.
	pw := *p
	pw.TotalWait = 60
	if _, err := ValidityWindow(g, &pw, q); err == nil {
		t.Error("waiting path must be rejected")
	}
	// A query time at which the path is invalid is rejected.
	qBad := q
	qBad.At = temporal.Clock(3, 0, 0)
	if _, err := ValidityWindow(g, p, qBad); err == nil {
		t.Error("invalid departure must be rejected")
	}
}

// wrapVenue: hall and room joined by one door; the door's schedule is
// configurable so midnight-wrap behaviour can be probed. Source 2,5 →
// target 38,5 walks 18 m to the door at (20,5).
func wrapVenue(t testing.TB, doorSched temporal.Schedule) *itgraph.Graph {
	t.Helper()
	b := model.NewBuilder("wrap-window")
	hall := b.AddPartition("hall", model.HallwayPartition, geom.NewRect(0, 0, 20, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(20, 0, 40, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(20, 5, 0), doorSched)
	b.ConnectBi(d, hall, room)
	return itgraph.MustNew(b.MustBuild())
}

func TestValidityWindowMidnightWrap(t *testing.T) {
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(23, 59, 50)}

	// Always-open door: the wrapped arrival sits in a full-day ATI, which
	// imposes no constraint — the window is the whole day.
	g := wrapVenue(t, nil)
	p, _, err := NewEngine(g, Options{}).Route(q)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ValidityWindow(g, p, q)
	if err != nil {
		t.Fatalf("full-day ATI with wrapped arrival: %v", err)
	}
	if w.Open != 0 || w.Close != temporal.DaySeconds {
		t.Fatalf("window = %v, want the full day", w)
	}

	// Bounded ATI: the arrival (walk ≈ 12.96 s past 23:59:50) wraps past
	// midnight into [0:00, 1:00); the single-interval window arithmetic
	// cannot express that constraint, so the window must be refused — a
	// silently derived [0-walk, 1:00-walk) would not contain t0 at all.
	g2 := wrapVenue(t, temporal.MustSchedule(
		temporal.MustInterval(temporal.Clock(0, 0, 0), temporal.Clock(1, 0, 0)),
		temporal.MustInterval(temporal.Clock(23, 0, 0), temporal.Clock(24, 0, 0)),
	))
	p2, _, err := NewEngine(g2, Options{}).Route(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidityWindow(g2, p2, q); err == nil {
		t.Fatal("wrapped arrival in a bounded ATI must refuse a window")
	}
}

// TestPathDistances: the cumulative distances replay the search's own
// accumulation, so original arrivals are reproduced bit for bit.
func TestPathDistances(t *testing.T) {
	g, _, _ := corridorVenue(t)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	e := NewEngine(g, Options{})
	p, _, err := e.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	dists := e.PathDistances(p, q)
	if len(dists) != len(p.Doors) {
		t.Fatalf("%d distances for %d doors", len(dists), len(p.Doors))
	}
	for i, d := range dists {
		if got := q.At + temporal.TimeOfDay(d/WalkingSpeedMPS); got != p.Arrivals[i] {
			t.Fatalf("arrival[%d]: rebased %v != engine %v", i, got, p.Arrivals[i])
		}
		if i > 0 && dists[i] <= dists[i-1] {
			t.Fatalf("distances not increasing: %v", dists)
		}
	}
	if len(dists) > 0 && dists[len(dists)-1] >= p.Length {
		t.Fatalf("last door distance %v >= path length %v", dists[len(dists)-1], p.Length)
	}
}

func TestEarliestValidDeparture(t *testing.T) {
	g, _, _ := corridorVenue(t)
	e := NewEngine(g, Options{})
	// Isolated room behind d2 only... corridorVenue's detour keeps D
	// reachable; use the dead-end venue instead.
	b := deadEndVenue(t)
	g2 := itgraph.MustNew(b)
	e2 := NewEngine(g2, Options{})
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(5, 0, 0)}
	at, p, ok := EarliestValidDeparture(e2, q)
	if !ok {
		t.Fatal("expected a departure to exist")
	}
	if at != temporal.Clock(8, 0, 0) {
		t.Errorf("earliest departure = %v, want 8:00", at)
	}
	if p == nil || p.Hops() != 1 {
		t.Errorf("path = %v", p)
	}
	// Immediately routable queries return the original time.
	qNoon := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	at2, _, ok := EarliestValidDeparture(e, qNoon)
	if !ok || at2 != qNoon.At {
		t.Errorf("noon departure = %v, %v", at2, ok)
	}
	// After the last closing there is no departure.
	qLate := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(17, 0, 0)}
	if _, _, ok := EarliestValidDeparture(e2, qLate); ok {
		t.Error("late departure should not exist")
	}
}

// deadEndVenue: hall and a room joined by a single 8:00–16:00 door.
func deadEndVenue(t testing.TB) *model.Venue {
	t.Helper()
	b := model.NewBuilder("dead-end-window")
	hall := b.AddPartition("hall", model.HallwayPartition, geom.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), sched("8:00", "16:00"))
	b.ConnectBi(d, hall, room)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return v
}
