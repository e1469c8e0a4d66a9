package core

import (
	"fmt"
	"math"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// This file implements shared execution: answering many ITSPQ queries
// that share an endpoint with ONE door-graph search instead of one per
// query (the shared-execution idea of Mahmud et al. applied to the
// ITSPQ framework; see doc.go "Shared execution" for the soundness
// argument). Two primitives:
//
//   - RouteMany: one source, many targets, one departure — a single
//     forward temporal search that keeps expanding past the first
//     target until every grouped target's entry is settled, then
//     reconstructs one path per target.
//   - RouteManyTo: many sources, one target — a single reverse run
//     rooted at the target. Only the static method is grouped (its
//     topology is time-invariant, so reversal is trivially sound); the
//     temporal methods fall back to per-source solo routes.
//
// Both return answers byte-identical to what a solo Engine.Route would
// produce for each query (same TV_Check semantics for syn/asyn/static)
// whenever the query's shortest valid path is unique — the generic
// case, and the condition real venues with irregular geometry satisfy.
// Under an exact float-length tie between distinct door sequences a
// shared run may tie-break differently than the solo heap and return
// the other, equally shortest, answer (both validate; both are
// optimal). This is what lets the serving layer cache and serve shared
// answers interchangeably with solo results. Targets (or sources) the shared
// run cannot soundly cover — private endpoint partitions, whose rule-2
// exemption is query-specific, or any query under the
// SinglePartitionExpansion ablation, whose answers are not
// expansion-order-free — are answered by internal per-query fallback
// searches and flagged Solo.

// ManyOutcome is one query's answer from a shared run. Path and Err are
// exactly what a solo Engine.Route would have returned for the query;
// Stats are the statistics of the run that produced the answer (the one
// shared search for grouped queries, the individual search for Solo
// fallbacks), with Found/PathHops/PathLength set per outcome.
type ManyOutcome struct {
	Path  *Path
	Stats SearchStats
	Err   error
	// Solo reports that this outcome came from an internal per-query
	// fallback search rather than the shared run (private endpoint
	// partition, SinglePartitionExpansion, or a temporal-method
	// RouteManyTo). Callers metering engine work count one search per
	// Solo outcome plus one for the shared run (if any non-Solo,
	// non-error outcome exists).
	Solo bool
}

// groupMember pairs a grouped endpoint (a RouteMany target or a
// RouteManyTo source) with its position in the call and its located
// partition.
type groupMember struct {
	idx  int
	pt   geom.Point
	part model.PartitionID
}

// RouteMany answers ITSPQ(src, targets[j], at) for every target with at
// most one shared forward search plus per-target fallbacks (see
// ManyOutcome.Solo). Outcomes align positionally with targets, each
// byte-identical to a solo Engine.Route of the same query. speed <= 0
// means the paper's walking speed, mirroring Query.Speed.
func (e *Engine) RouteMany(src geom.Point, targets []geom.Point, at temporal.TimeOfDay, speed float64) []ManyOutcome {
	out := make([]ManyOutcome, len(targets))
	name := e.checker.Name()
	srcPart, ok := e.v.Locate(src)
	if !ok {
		err := fmt.Errorf("%w: source %v", ErrNotIndoor, src)
		for j := range out {
			out[j] = ManyOutcome{Stats: SearchStats{Method: name}, Err: err}
		}
		return out
	}
	var shared []groupMember
	var solo []int
	for j, pt := range targets {
		part, located := e.v.Locate(pt)
		switch {
		case !located:
			out[j] = ManyOutcome{Stats: SearchStats{Method: name},
				Err: fmt.Errorf("%w: target %v", ErrNotIndoor, pt)}
		case e.opts.SinglePartitionExpansion || (e.v.Partition(part).Kind.IsPrivate() && part != srcPart):
			// A private target partition is exempt from rule 2 only for
			// its own query, so the shared expansion would be query-
			// specific; the ablation's answers depend on expansion order.
			// Both go to byte-identical-by-construction solo searches.
			solo = append(solo, j)
		default:
			shared = append(shared, groupMember{idx: j, pt: pt, part: part})
		}
	}
	if len(shared) > 0 {
		e.routeShared(src, srcPart, shared, at, speed, out)
	}
	for _, j := range solo {
		p, st, err := e.Route(Query{Source: src, Target: targets[j], At: at, Speed: speed})
		out[j] = ManyOutcome{Path: p, Stats: st, Err: err, Solo: true}
	}
	return out
}

// bestEntry tracks one grouped query's answer candidate during a shared
// run, updated with exactly Route's virtual-target relaxation rule
// (strict improvement only, anchors in settle order).
type bestEntry struct {
	dist float64
	via  int32 // settled handle whose expansion set the entry
	seen bool
	done bool // frontier passed dist: the entry can no longer improve
}

// offer applies Route's target-node relaxation rule to the entry: a
// finite candidate wins when the entry is unseen or it is strictly
// shorter.
func (b *bestEntry) offer(cand float64, via int32) bool {
	if math.IsInf(cand, 1) || (b.seen && !(cand < b.dist)) {
		return false
	}
	b.dist, b.via, b.seen = cand, via, true
	return true
}

// group readies one bestEntry per grouped member, reusing the state's
// scratch, and marks the members' partitions for this search.
func (st *searchState) group(ms []groupMember) []bestEntry {
	st.bests = append(st.bests[:0], make([]bestEntry, len(ms))...)
	for _, m := range ms {
		st.grouped[m.part] = st.epoch
	}
	return st.bests
}

// settleBests marks entries the frontier has passed. When the heap
// minimum reaches a seen entry's distance, no future expansion can
// strictly improve it (legs are non-negative) — exactly the moment a
// solo Route would pop its virtual target node and stop.
func settleBests(bests []bestEntry, frontier float64, pending int) int {
	for i := range bests {
		if !bests[i].done && bests[i].seen && frontier >= bests[i].dist {
			bests[i].done = true
			pending--
		}
	}
	return pending
}

// routeShared is the one shared forward search of RouteMany: Algorithm
// 1 with the per-target special cases hoisted out of the expansion.
// Differences from Route, and why they preserve per-target answers:
//
//   - there are no virtual target nodes in the heap; each target keeps
//     a bestEntry updated by the same relaxation rule in the same
//     anchor-settle order, and is finalised when the frontier passes
//     its distance — the exact instant Route would pop its target node;
//   - expansion continues through grouped target partitions
//     ("settled-partition expansion"). Under the convex-cell model a
//     shortest route can never leave and re-enter the target's own
//     partition (entering it once and walking straight to the target is
//     strictly shorter), so the prev chains along every per-target
//     answer are the ones the pruned solo search builds;
//   - rule 2 needs no per-target exemption: grouped target partitions
//     are never private (RouteMany routes those solo).
func (e *Engine) routeShared(src geom.Point, srcPart model.PartitionID, ts []groupMember,
	at temporal.TimeOfDay, speed float64, out []ManyOutcome) {

	t0 := at.Mod()
	if speed <= 0 {
		speed = WalkingSpeedMPS
	}
	run := SearchStats{Method: e.checker.Name()}
	st := e.begin(t0, speed)
	srcH := int32(e.v.DoorCount())
	st.improve(srcH, 0, -1, model.NoPartition)
	bests := st.group(ts)
	pending := len(ts)

	q := Query{Source: src} // expand reads only the source point

	for pending > 0 {
		item, ok := st.heap.Pop()
		if !ok || math.IsInf(item.Prio, 1) {
			break // heap exhausted: unseen targets have no route
		}
		h := item.Key
		run.Pops++
		if pending = settleBests(bests, item.Prio, pending); pending == 0 {
			break
		}
		if !st.settle(h) {
			continue
		}
		run.Settled++
		baseDist := st.dist[h]

		var anchor model.DoorID = model.NoDoor
		if h != srcH {
			anchor = model.DoorID(h)
		}
		arcs, from := e.arcsOut(h, srcH, srcPart)
		for _, arc := range arcs {
			if arc.From != from {
				continue
			}
			w := arc.To
			// Route's target relaxation (Algorithm 1 lines 20–24), once
			// per grouped target located in this partition.
			if st.grouped[w] == st.epoch {
				for i := range ts {
					b := &bests[i]
					if ts[i].part != w || b.done {
						continue
					}
					var cand float64
					if anchor == model.NoDoor {
						cand = baseDist + e.g.DM().PointToPoint(w, src, ts[i].pt)
					} else {
						cand = baseDist + e.g.DM().PointToDoor(w, ts[i].pt, anchor)
					}
					if b.offer(cand, h) {
						run.Relaxations++
					}
				}
			}
			if w != srcPart && e.v.Partition(w).Kind.IsPrivate() {
				continue // rule 2 (grouped target partitions are never private)
			}
			if st.visit(w) {
				run.PartitionsVisited++
			}
			// NoPartition disables expand's target-partition exemption:
			// it is not needed here (no grouped target is private).
			e.expand(q, w, anchor, h, baseDist, &run, srcPart, model.NoPartition)
		}
	}

	e.finishStats(&run)
	for i, tg := range ts {
		b := bests[i]
		stats := run
		if !b.seen {
			out[tg.idx] = ManyOutcome{Stats: stats, Err: ErrNoRoute}
			continue
		}
		p := e.reconstruct(src, tg.pt, b.via, srcH, tg.part, b.dist, t0, speed)
		stats.Found = true
		stats.PathHops = p.Hops()
		stats.PathLength = p.Length
		out[tg.idx] = ManyOutcome{Path: p, Stats: stats}
	}
}

// RouteManyTo answers ITSPQ(sources[j], tgt, at) for every source.
// With the static method the group is served by one reverse run rooted
// at the target (the accessibility graph is time-invariant, so the
// reverse shortest tree reproduces every forward answer; distances and
// arrivals are re-derived by a forward leg replay, bit-identical to a
// solo search). The temporal methods cannot soundly share a
// destination-rooted run — TV_Check probes openness at the *forward*
// walked distance, which differs per source — so they fall back to solo
// routes per source, as do sources in private partitions.
func (e *Engine) RouteManyTo(sources []geom.Point, tgt geom.Point, at temporal.TimeOfDay, speed float64) []ManyOutcome {
	out := make([]ManyOutcome, len(sources))
	name := e.checker.Name()
	tgtPart, tok := e.v.Locate(tgt)
	var shared []groupMember
	var solo []int
	for j, pt := range sources {
		part, located := e.v.Locate(pt)
		switch {
		case !located:
			// Route checks the source first, so an unlocatable source
			// wins over an unlocatable target.
			out[j] = ManyOutcome{Stats: SearchStats{Method: name},
				Err: fmt.Errorf("%w: source %v", ErrNotIndoor, pt)}
		case !tok:
			out[j] = ManyOutcome{Stats: SearchStats{Method: name},
				Err: fmt.Errorf("%w: target %v", ErrNotIndoor, tgt)}
		case e.opts.Method != MethodStatic || e.opts.SinglePartitionExpansion ||
			(e.v.Partition(part).Kind.IsPrivate() && part != tgtPart):
			solo = append(solo, j)
		default:
			shared = append(shared, groupMember{idx: j, pt: pt, part: part})
		}
	}
	if len(shared) > 0 {
		e.routeSharedReverse(tgt, tgtPart, shared, at, speed, out)
	}
	for _, j := range solo {
		p, st, err := e.Route(Query{Source: sources[j], Target: tgt, At: at, Speed: speed})
		out[j] = ManyOutcome{Path: p, Stats: st, Err: err, Solo: true}
	}
	return out
}

// routeSharedReverse is the one reverse (destination-rooted) run of
// RouteManyTo: a Dijkstra over the arc-reversed door graph, starting
// inside the target's partition and reverse-crossing doors against
// their permitted direction (model.Venue.PrevPartitions), mirroring
// Route's rules arc for arc:
//
//   - the target's partition is expanded only from the root (Route
//     never expands through its target partition);
//   - rule 2 keeps private partitions out, with the target's partition
//     exempt; grouped source partitions are never private;
//   - reverse-entering a grouped source's partition sets that source's
//     terminal candidate — the mirror image of Route's first expansion
//     out of the source partition.
//
// Reconstruction replays every leg forward (source → target, the same
// float64 operations in the same order as a forward search), so
// lengths, distances and arrivals are bit-identical to solo answers
// even though the reverse run accumulated its sums in the opposite
// order.
func (e *Engine) routeSharedReverse(tgt geom.Point, tgtPart model.PartitionID, ss []groupMember,
	at temporal.TimeOfDay, speed float64, out []ManyOutcome) {

	t0 := at.Mod()
	if speed <= 0 {
		speed = WalkingSpeedMPS
	}
	run := SearchStats{Method: e.checker.Name()}
	// begin mirrors routeShared (and Route): the EagerHeapInit ablation
	// enheaps every door at ∞ up front in reverse runs too.
	st := e.begin(t0, speed)
	tgtH := int32(e.v.DoorCount())
	st.improve(tgtH, 0, -1, model.NoPartition)
	bests := st.group(ss)
	pending := len(ss)

	for pending > 0 {
		item, ok := st.heap.Pop()
		if !ok || math.IsInf(item.Prio, 1) {
			break
		}
		h := item.Key
		run.Pops++
		if pending = settleBests(bests, item.Prio, pending); pending == 0 {
			break
		}
		if !st.settle(h) {
			continue
		}
		run.Settled++
		baseDist := st.dist[h]

		var anchor model.DoorID = model.NoDoor
		if h != tgtH {
			anchor = model.DoorID(h)
		}
		arcs, to := e.arcsIn(h, tgtH, tgtPart)
		for _, arc := range arcs {
			if arc.To != to {
				continue
			}
			w := arc.From
			if st.grouped[w] == st.epoch {
				for i := range ss {
					b := &bests[i]
					if ss[i].part != w || b.done {
						continue
					}
					var cand float64
					if anchor == model.NoDoor {
						cand = baseDist + e.g.DM().PointToPoint(w, ss[i].pt, tgt)
					} else {
						cand = baseDist + e.g.DM().PointToDoor(w, ss[i].pt, anchor)
					}
					if b.offer(cand, h) {
						run.Relaxations++
					}
				}
			}
			if w == tgtPart && anchor != model.NoDoor {
				continue // the target partition is expanded only from the root
			}
			if w != tgtPart && e.v.Partition(w).Kind.IsPrivate() {
				continue // rule 2 (grouped source partitions are never private)
			}
			if st.visit(w) {
				run.PartitionsVisited++
			}
			e.expandReverse(tgt, tgtPart, w, anchor, h, baseDist, &run)
		}
	}

	e.finishStats(&run)
	for i, s := range ss {
		b := bests[i]
		stats := run
		if !b.seen {
			out[s.idx] = ManyOutcome{Stats: stats, Err: ErrNoRoute}
			continue
		}
		p := e.reconstructReverse(s.pt, tgt, b.via, tgtH, s.part, t0, speed)
		stats.Found = true
		stats.PathHops = p.Hops()
		stats.PathLength = p.Length
		out[s.idx] = ManyOutcome{Path: p, Stats: stats}
	}
}

// expandReverse relaxes every forward-enterable door of partition w
// from the reverse anchor — the mirror image of expand over the
// arc-reversed graph, static method only (no TV_Check).
func (e *Engine) expandReverse(tgt geom.Point, tgtPart, w model.PartitionID, anchor model.DoorID, h int32,
	baseDist float64, stats *SearchStats) {

	st := e.st
	for _, dj := range e.v.EnterDoors(w) {
		hj := int32(dj)
		// Mirror of expand's privacy prune: a door approachable only
		// from private partitions (other than the target's) cannot lie
		// on any grouped answer — grouped source partitions are public.
		if st.settled(hj) || !e.usefulReverse(dj, w, tgtPart) {
			continue
		}
		var leg float64
		if anchor == model.NoDoor {
			leg = e.g.DM().PointToDoor(w, tgt, dj)
		} else {
			leg = e.legDist(w, anchor, dj)
		}
		if math.IsInf(leg, 1) {
			continue
		}
		distj := baseDist + leg
		stats.Relaxations++
		st.improve(hj, distj, h, w)
	}
}

// arcsIn is arcsOut over the arc-reversed graph: door h's stored arcs
// and the partition the reverse run left it through (callers skip arcs
// whose To differs, so arc-exact like model.Venue.PrevPartitions), or
// for the root handle one virtual arc out of rootPart.
func (e *Engine) arcsIn(h, rootH int32, rootPart model.PartitionID) ([]model.Arc, model.PartitionID) {
	if h == rootH {
		e.st.root[0] = model.Arc{From: rootPart, To: model.NoPartition}
		return e.st.root[:], model.NoPartition
	}
	return e.v.Door(model.DoorID(h)).Arcs, e.st.prevPart[h]
}

// usefulReverse reports whether door d can be approached into w from
// the target's partition or a public one.
func (e *Engine) usefulReverse(d model.DoorID, w, tgtPart model.PartitionID) bool {
	for _, a := range e.v.Door(d).Arcs {
		if a.To == w && (a.From == tgtPart || !e.v.Partition(a.From).Kind.IsPrivate()) {
			return true
		}
	}
	return false
}

// reconstructReverse turns one reverse prev chain into a forward Path:
// the chain from the entry door already reads source → target, and the
// cumulative distances are re-accumulated forward so every float64 is
// the one a forward search would have produced.
func (e *Engine) reconstructReverse(src, tgt geom.Point, via, tgtH int32, srcPart model.PartitionID,
	t0 temporal.TimeOfDay, speed float64) *Path {

	n := 0
	for h := via; h != tgtH; h = e.st.prevDoor[h] {
		n++
	}
	doors := make([]model.DoorID, 0, n)
	fullParts := make([]model.PartitionID, 1, n+1)
	fullParts[0] = srcPart
	for h := via; h != tgtH; h = e.st.prevDoor[h] {
		doors = append(doors, model.DoorID(h))
		fullParts = append(fullParts, e.st.prevPart[h])
	}

	var length float64
	dists := make([]float64, len(doors))
	if len(doors) == 0 {
		length = e.g.DM().PointToPoint(srcPart, src, tgt)
	} else {
		d := e.g.DM().PointToDoor(fullParts[0], src, doors[0])
		dists[0] = d
		for i := 1; i < len(doors); i++ {
			d += e.legDist(fullParts[i], doors[i-1], doors[i])
			dists[i] = d
		}
		length = d + e.g.DM().PointToDoor(fullParts[len(doors)], tgt, doors[len(doors)-1])
	}
	arrivals := make([]temporal.TimeOfDay, len(doors))
	for i := range doors {
		arrivals[i] = t0 + temporal.TimeOfDay(dists[i]/speed)
	}
	return &Path{
		Source:       src,
		Target:       tgt,
		Doors:        doors,
		Partitions:   fullParts,
		Length:       length,
		Arrivals:     arrivals,
		ArrivalAtTgt: t0 + temporal.TimeOfDay(length/speed),
		DepartedAt:   t0,
	}
}

// RebaseDeparture restates a found answer for query q's own departure:
// the door and partition slices are shared (paths are immutable), the
// length is unchanged, and every arrival is recomputed as t' +
// dist_i/speed from the engine's own leg replay (PathDistances) — bit-
// identical to what a fresh search departing at t' would return. Sound
// only when the engine's answer is provably departure-independent: the
// static method, whose checker ignores time entirely. p must be a
// found, no-waiting answer for q's endpoints and speed.
func (e *Engine) RebaseDeparture(p *Path, q Query) *Path {
	t0 := q.At.Mod()
	speed := q.speed()
	dists := e.PathDistances(p, q)
	arrivals := make([]temporal.TimeOfDay, len(dists))
	for i, d := range dists {
		arrivals[i] = t0 + temporal.TimeOfDay(d/speed)
	}
	return &Path{
		Source:       p.Source,
		Target:       p.Target,
		Doors:        p.Doors,
		Partitions:   p.Partitions,
		Length:       p.Length,
		Arrivals:     arrivals,
		ArrivalAtTgt: t0 + temporal.TimeOfDay(p.Length/speed),
		DepartedAt:   t0,
	}
}
