package core

import (
	"errors"
	"math/rand"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/temporal"
)

// skelInterior samples a point strictly inside a partition's rectangle
// (10% margin), so Locate resolves it to that partition unambiguously.
func skelInterior(rng *rand.Rand, r geom.Rect) geom.Point {
	mx, my := r.Width()*0.1, r.Height()*0.1
	return geom.Pt(
		r.MinX+mx+rng.Float64()*(r.Width()-2*mx),
		r.MinY+my+rng.Float64()*(r.Height()-2*my),
		r.Floor)
}

// TestSkeletonComposeByteIdentical is the point-free answer oracle: for
// random venues and every method, any composition a stored family
// certifies must match a fresh sequential engine run byte for byte —
// same doors, partitions, length, arrivals and target arrival, down to
// float64 identity, for endpoints jittered anywhere inside the pair's
// partitions and departures swept across the certified window.
func TestSkeletonComposeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	composed, refused := 0, 0
	for trial := 0; trial < 40; trial++ {
		rows, cols := 2+rng.Intn(3), 2+rng.Intn(3)
		v := randomVenue(t, rng, rows, cols)
		g := itgraph.MustNew(v)
		for _, m := range []Method{MethodSyn, MethodAsyn, MethodStatic} {
			e := NewEngine(g, Options{Method: m})
			for probe := 0; probe < 6; probe++ {
				src := geom.Pt(rng.Float64()*float64(cols)*10, rng.Float64()*float64(rows)*10, 0)
				tgt := geom.Pt(rng.Float64()*float64(cols)*10, rng.Float64()*float64(rows)*10, 0)
				srcPart, ok1 := v.Locate(src)
				tgtPart, ok2 := v.Locate(tgt)
				if !ok1 || !ok2 || srcPart == tgtPart {
					continue
				}
				at := temporal.TimeOfDay(rng.Float64() * 86400)
				fam := e.BuildSkeletonFamily(srcPart, tgtPart, at)
				if fam == nil {
					continue
				}
				for k := 0; k < 5; k++ {
					q := Query{
						Source: skelInterior(rng, v.Partition(srcPart).Rect),
						Target: skelInterior(rng, v.Partition(tgtPart).Rect),
						At:     fam.Window.Open + temporal.TimeOfDay(rng.Float64()*float64(fam.Window.Duration())),
					}
					comp, ok := e.ComposeSkeleton(q.Source, q.Target, q.At, q.Speed, fam)
					if !ok {
						refused++
						continue
					}
					composed++
					fresh, _, err := e.Route(q)
					if err != nil {
						t.Fatalf("trial %d %v: composition certified but fresh run errored: %v", trial, m, err)
					}
					assertSkelIdentical(t, comp, fresh)
				}
			}
		}
	}
	if composed < 100 {
		t.Fatalf("only %d compositions certified (%d refused) — the property was barely exercised", composed, refused)
	}
}

// TestSkeletonFamilyRefusals pins the documented refusal cases: same
// partition pair, the SinglePartitionExpansion ablation, departures
// outside the family's slot, and walks crossing the slot's close.
func TestSkeletonFamilyRefusals(t *testing.T) {
	g, parts, _ := corridorVenue(t)
	e := NewEngine(g, Options{Method: MethodSyn})
	at := temporal.Clock(12, 0, 0)

	if fam := e.BuildSkeletonFamily(parts["A"], parts["A"], at); fam != nil {
		t.Fatal("same-partition family must refuse to build")
	}
	abl := NewEngine(g, Options{Method: MethodSyn, SinglePartitionExpansion: true})
	if fam := abl.BuildSkeletonFamily(parts["A"], parts["D"], at); fam != nil {
		t.Fatal("ablation engine must refuse to build families")
	}

	fam := e.BuildSkeletonFamily(parts["A"], parts["D"], at)
	if fam == nil {
		t.Fatal("A→D family did not build")
	}
	if fam.Slot < 0 || !fam.Window.Contains(at) {
		t.Fatalf("family window %v does not cover the build instant %v", fam.Window, at)
	}
	src, tgt := geom.Pt(5, 5, 0), geom.Pt(35, 5, 0)
	if _, ok := e.ComposeSkeleton(src, tgt, fam.Window.Close, 0, fam); ok {
		t.Fatal("departure outside the slot window must refuse")
	}
	// A departure so close to the slot end that the walk cannot finish
	// inside it must refuse (the slot clamp).
	if _, ok := e.ComposeSkeleton(src, tgt, fam.Window.Close-1e-6, 0, fam); ok {
		t.Fatal("walk crossing the slot close must refuse")
	}
	if p, ok := e.ComposeSkeleton(src, tgt, at, 0, fam); !ok {
		t.Fatal("mid-slot composition refused")
	} else {
		fresh, _, err := e.Route(Query{Source: src, Target: tgt, At: at})
		if err != nil {
			t.Fatal(err)
		}
		assertSkelIdentical(t, p, fresh)
	}

	// Static families certify the whole day.
	st := NewEngine(g, Options{Method: MethodStatic})
	sfam := st.BuildSkeletonFamily(parts["A"], parts["D"], at)
	if sfam == nil || sfam.Slot != SkeletonStaticSlot {
		t.Fatalf("static family = %+v, want full-day pseudo-slot", sfam)
	}
	for _, dep := range []temporal.TimeOfDay{0, at, 86000} {
		p, ok := st.ComposeSkeleton(src, tgt, dep, 0, sfam)
		if !ok {
			t.Fatalf("static composition refused at %v", dep)
		}
		fresh, _, err := st.Route(Query{Source: src, Target: tgt, At: dep})
		if err != nil {
			t.Fatal(err)
		}
		assertSkelIdentical(t, p, fresh)
	}
}

// TestSkeletonRespectsClosedDoors: a family built for a slot where the
// short corridor door is shut must route via the detour, exactly as a
// fresh search does, and never certify a composition using the closed
// door.
func TestSkeletonRespectsClosedDoors(t *testing.T) {
	g, parts, doors := corridorVenue(t)
	e := NewEngine(g, Options{Method: MethodSyn})
	// d2 (B→C) is open 8:00–16:00; at 20:00 the A→C answer detours via X.
	at := temporal.Clock(20, 0, 0)
	fam := e.BuildSkeletonFamily(parts["A"], parts["C"], at)
	if fam == nil {
		t.Fatal("A→C family did not build for the closed-door slot")
	}
	for _, sk := range fam.Chains {
		for _, d := range sk.Doors {
			if d == doors["d2"] {
				t.Fatal("closed-slot family stored a chain through the closed door d2")
			}
		}
	}
	src, tgt := geom.Pt(2, 2, 0), geom.Pt(25, 5, 0)
	p, ok := e.ComposeSkeleton(src, tgt, at, 0, fam)
	if !ok {
		t.Fatal("detour composition refused")
	}
	fresh, _, err := e.Route(Query{Source: src, Target: tgt, At: at})
	if err != nil {
		t.Fatal(err)
	}
	assertSkelIdentical(t, p, fresh)
	if verr := p.Validate(g, Query{Source: src, Target: tgt, At: at}); verr != nil {
		t.Fatalf("composed path invalid: %v", verr)
	}
}

// TestSkeletonNoRouteAgreement: when the engine has no valid route
// between two partitions in a slot, the family either fails to build or
// refuses every composition — it never conjures an answer.
func TestSkeletonNoRouteAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 30; trial++ {
		v := randomVenue(t, rng, 3, 3)
		g := itgraph.MustNew(v)
		e := NewEngine(g, Options{Method: MethodSyn})
		for probe := 0; probe < 8; probe++ {
			src := geom.Pt(rng.Float64()*30, rng.Float64()*30, 0)
			tgt := geom.Pt(rng.Float64()*30, rng.Float64()*30, 0)
			srcPart, ok1 := v.Locate(src)
			tgtPart, ok2 := v.Locate(tgt)
			if !ok1 || !ok2 || srcPart == tgtPart {
				continue
			}
			at := temporal.TimeOfDay(rng.Float64() * 86400)
			q := Query{Source: src, Target: tgt, At: at}
			_, _, err := e.Route(q)
			if !errors.Is(err, ErrNoRoute) {
				continue
			}
			fam := e.BuildSkeletonFamily(srcPart, tgtPart, at)
			if fam == nil {
				continue
			}
			if p, ok := e.ComposeSkeleton(src, tgt, at, 0, fam); ok {
				t.Fatalf("trial %d: engine has no route but composition served %v", trial, p)
			}
		}
	}
}

// assertSkelIdentical requires bitwise equality between a composed and
// a freshly searched path: the byte-identity contract of point-free
// answers.
func assertSkelIdentical(t *testing.T, comp, fresh *Path) {
	t.Helper()
	if len(comp.Doors) != len(fresh.Doors) {
		t.Fatalf("door count %d != fresh %d", len(comp.Doors), len(fresh.Doors))
	}
	for i := range comp.Doors {
		if comp.Doors[i] != fresh.Doors[i] {
			t.Fatalf("door[%d] = %d != fresh %d", i, comp.Doors[i], fresh.Doors[i])
		}
	}
	if len(comp.Partitions) != len(fresh.Partitions) {
		t.Fatalf("partition count %d != fresh %d", len(comp.Partitions), len(fresh.Partitions))
	}
	for i := range comp.Partitions {
		if comp.Partitions[i] != fresh.Partitions[i] {
			t.Fatalf("partition[%d] = %d != fresh %d", i, comp.Partitions[i], fresh.Partitions[i])
		}
	}
	if comp.Length != fresh.Length {
		t.Fatalf("length %v != fresh %v (must be bit-identical)", comp.Length, fresh.Length)
	}
	for i := range comp.Arrivals {
		if comp.Arrivals[i] != fresh.Arrivals[i] {
			t.Fatalf("arrival[%d] = %v != fresh %v", i, comp.Arrivals[i], fresh.Arrivals[i])
		}
	}
	if comp.ArrivalAtTgt != fresh.ArrivalAtTgt || comp.DepartedAt != fresh.DepartedAt {
		t.Fatalf("arrival %v/%v != fresh %v/%v",
			comp.ArrivalAtTgt, comp.DepartedAt, fresh.ArrivalAtTgt, fresh.DepartedAt)
	}
}
