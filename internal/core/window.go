package core

import (
	"fmt"

	"indoorpath/internal/itgraph"
	"indoorpath/internal/temporal"
)

// ValidityWindow computes the interval of departure times for which the
// given path's exact door sequence stays valid — an extension beyond
// the paper useful for answer caching and "leave by" guidance: a path
// computed for ITSPQ(ps, pt, t) can be reused for any departure in the
// window without re-running the search.
//
// For door i at cumulative walked distance d_i, a departure t' crosses
// it at t' + d_i/speed, which must fall inside the same ATI the
// original departure used; the window is the intersection of those
// per-door constraints (clipped to the day). The path must be a
// no-waiting path produced for the given query.
func ValidityWindow(g *itgraph.Graph, p *Path, q Query) (temporal.Interval, error) {
	if p.TotalWait > 0 {
		return temporal.Interval{}, fmt.Errorf("core: validity windows apply to no-waiting paths only")
	}
	// DM-based cumulative distances: the engine default.
	v := g.Venue()
	speed := q.speed()
	t0 := q.At.Mod()
	lo, hi := temporal.TimeOfDay(0), temporal.DaySeconds
	dist := 0.0
	for i, d := range p.Doors {
		if i == 0 {
			dist += g.DM().PointToDoor(p.Partitions[0], q.Source, d)
		} else {
			dist += g.DM().Dist(p.Partitions[i], p.Doors[i-1], d)
		}
		walk := temporal.TimeOfDay(dist / speed)
		arr := t0 + walk
		// Find the ATI containing the original arrival.
		var ati temporal.Interval
		found := false
		for _, iv := range v.Door(d).ATIs {
			if iv.Contains(arr.Mod()) {
				ati = iv
				found = true
				break
			}
		}
		if !found {
			return temporal.Interval{}, fmt.Errorf("core: door %s closed at %v — path invalid for the query",
				v.Door(d).Name, arr.Mod())
		}
		// t' + walk ∈ [ati.Open, ati.Close) ⇒ t' ∈ [Open-walk, Close-walk).
		// A full-day ATI imposes no constraint: arrivals wrap across
		// midnight and remain inside it.
		if !(ati.Open == 0 && ati.Close == temporal.DaySeconds) {
			if arr >= temporal.DaySeconds {
				// The arrival wrapped past midnight into a bounded ATI:
				// the per-door constraint cannot be expressed as one
				// in-day departure interval (shifting t' moves the
				// wrapped arrival against un-wrapped bounds), so the
				// window is undefined rather than silently wrong.
				return temporal.Interval{}, fmt.Errorf("core: door %s reached past midnight (at %v) within bounded ATI %v — validity window undefined across the day wrap",
					v.Door(d).Name, arr, ati)
			}
			if b := ati.Open - walk; b > lo {
				lo = b
			}
			if b := ati.Close - walk; b < hi {
				hi = b
			}
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi > temporal.DaySeconds {
		hi = temporal.DaySeconds
	}
	if lo >= hi {
		return temporal.Interval{}, fmt.Errorf("core: empty validity window")
	}
	return temporal.Interval{Open: lo, Close: hi}, nil
}

// PathDistances returns the cumulative walked distance at each door of
// p, accumulated leg by leg in path order — the same float64 operations
// in the same order as the search that produced p, so rebasing the path
// at a new departure t' reproduces engine arrivals bit for bit:
// arrival_i = t' + dist_i/speed. It honours the engine's options
// (NoDistanceMatrix replays geometric legs exactly as expand did).
func (e *Engine) PathDistances(p *Path, q Query) []float64 {
	if len(p.Doors) == 0 {
		return nil
	}
	out := make([]float64, len(p.Doors))
	dist := e.g.DM().PointToDoor(p.Partitions[0], q.Source, p.Doors[0])
	out[0] = dist
	for i := 1; i < len(p.Doors); i++ {
		dist += e.legDist(p.Partitions[i], p.Doors[i-1], p.Doors[i])
		out[i] = dist
	}
	return out
}

// EarliestValidDeparture finds the earliest departure time >= q.At for
// which a no-waiting valid path exists, by probing q.At and then every
// subsequent checkpoint of the venue (topology only changes there, and
// within a slot a later departure shifts every arrival uniformly, so
// probing slot starts plus the original instant covers all outcomes up
// to walking-time boundary effects). Returns the departure, the path,
// and ok=false when no departure before midnight works.
func EarliestValidDeparture(e *Engine, q Query) (temporal.TimeOfDay, *Path, bool) {
	probe := func(at temporal.TimeOfDay) *Path {
		qq := q
		qq.At = at
		p, _, err := e.Route(qq)
		if err != nil {
			return nil
		}
		return p
	}
	if p := probe(q.At.Mod()); p != nil {
		return q.At.Mod(), p, true
	}
	cps := e.Graph().Checkpoints()
	for _, cp := range cps.Times() {
		if cp <= q.At.Mod() {
			continue
		}
		if p := probe(cp); p != nil {
			return cp, p, true
		}
	}
	return 0, nil, false
}
