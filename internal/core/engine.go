package core

import (
	"fmt"
	"math"

	"indoorpath/internal/dmat"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/pqueue"
	"indoorpath/internal/temporal"
)

// Method selects the TV_Check strategy of the ITSPQ framework.
type Method uint8

// Available methods.
const (
	// MethodSyn is ITG/S: synchronous per-door ATI lookup (Algorithm 2).
	MethodSyn Method = iota
	// MethodAsyn is ITG/A: asynchronous snapshot probes (Algorithms 3–4).
	MethodAsyn
	// MethodStatic ignores temporal variation entirely — the classic
	// ISPQ baseline; returned paths may cross closed doors.
	MethodStatic
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodSyn:
		return "ITG/S"
	case MethodAsyn:
		return "ITG/A"
	case MethodStatic:
		return "Static"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// Options tune the engine; the zero value is the paper's ITG/S.
type Options struct {
	Method Method
	// EagerHeapInit enheaps every door with distance ∞ up front, the
	// literal initialisation of Algorithm 1 lines 2–5. The default is
	// standard lazy insertion (identical results; ablation A1 measures
	// the difference).
	EagerHeapInit bool
	// NoDistanceMatrix recomputes intra-partition distances from door
	// geometry on every relaxation instead of reading the materialised
	// DM (ablation A3).
	NoDistanceMatrix bool
	// SinglePartitionExpansion reproduces Algorithm 1 line 18 literally:
	// each partition is expanded only from the first door that settles
	// into it ("\ visited partitions"). This is faster but suboptimal in
	// elongated partitions — a door settling later through a nearer
	// entrance never relaxes the partition's remaining doors. The
	// default expands a partition from every settled entering door
	// (exact door-graph Dijkstra, Lu et al. 2012); ablation A6 measures
	// the difference. See DESIGN.md interpretation note 8.
	SinglePartitionExpansion bool
}

// SearchStats describes one query execution for the experiment harness
// and the server's route responses (JSON-tagged for the wire).
type SearchStats struct {
	Method            string       `json:"method"`
	Pops              int          `json:"pops"`          // heap extractions
	Settled           int          `json:"settled"`       // doors finalised
	Relaxations       int          `json:"relaxations"`   // candidate door updates attempted
	DoorsTouched      int          `json:"doors_touched"` // distinct doors assigned a finite distance
	PartitionsVisited int          `json:"partitions_visited"`
	HeapMax           int          `json:"heap_max"`
	Checker           CheckerStats `json:"checker"`
	// BytesEstimate models the search working set: the dense per-handle
	// state of every touched handle (bytesPerHandle each), the heap's
	// high-water slots, the visited-partition marks and (for ITG/A) the
	// snapshots consulted. It grows with the work a search does, not
	// with the venue, and is the deterministic memory metric behind
	// Fig. 7; the harness also reports live heap allocations.
	BytesEstimate int     `json:"bytes_estimate"`
	Found         bool    `json:"found"`
	PathHops      int     `json:"path_hops"`
	PathLength    float64 `json:"path_length"`
}

// Working-set model of SearchStats.BytesEstimate, in bytes: a touched
// handle owns a distance (8), a parent door (4), a parent partition
// (4), its distance and settled stamps (4+4) and a heap position (4);
// a heap slot is one pqueue.Item; a visited partition one stamp.
const (
	bytesPerHandle    = 28
	bytesPerHeapSlot  = 16
	bytesPerPartition = 4
)

// searchState is the mutable working set of one door-graph search,
// dense over the handles 0..DoorCount+1 (door IDs, then the source and
// target sentinels): the frontier heap, tentative distances, parent
// chains, settled marks and visited-partition marks. An entry counts
// only when its stamp equals the current epoch, so reset is O(1):
// bumping the epoch forgets the previous search without touching the
// slices. The state is sized to the venue on the engine's first search
// and reused by every later Route, RouteMany, RouteManyTo and skeleton
// family build, so a warm engine's searches allocate nothing but their
// results.
type searchState struct {
	heap     *pqueue.Heap
	epoch    uint32
	seen     []uint32 // per handle: dist, prevDoor and prevPart are set
	done     []uint32 // per handle: settled
	visited  []uint32 // per partition
	grouped  []uint32 // per partition: holds a grouped endpoint (shared runs)
	dist     []float64
	prevDoor []int32
	prevPart []model.PartitionID
	touched  int // handles seen this search

	root [1]model.Arc // the virtual arc out of (or into) the root point

	// Reused scratch of shared runs and skeleton family builds.
	bests   []bestEntry
	doors   []model.DoorID
	anchors []model.DoorID
	chains  []*Skeleton
}

func newSearchState(v *model.Venue) *searchState {
	n := v.DoorCount() + 2
	return &searchState{
		heap:     pqueue.New(n),
		seen:     make([]uint32, n),
		done:     make([]uint32, n),
		visited:  make([]uint32, v.PartitionCount()),
		grouped:  make([]uint32, v.PartitionCount()),
		dist:     make([]float64, n),
		prevDoor: make([]int32, n),
		prevPart: make([]model.PartitionID, n),
	}
}

// reset forgets the previous search in O(1).
func (st *searchState) reset() {
	st.heap.Reset()
	st.touched = 0
	st.epoch++
	if st.epoch == 0 { // wrapped: stale stamps could collide, so clear them
		clear(st.seen)
		clear(st.done)
		clear(st.visited)
		clear(st.grouped)
		st.epoch = 1
	}
}

// improve records distance d for handle h via (prev, part) and queues h
// when h has no distance yet or d is strictly shorter, reporting
// whether it did.
func (st *searchState) improve(h int32, d float64, prev int32, part model.PartitionID) bool {
	if st.seen[h] == st.epoch {
		if !(d < st.dist[h]) {
			return false
		}
	} else {
		st.seen[h] = st.epoch
		st.touched++
	}
	st.dist[h] = d
	st.prevDoor[h] = prev
	st.prevPart[h] = part
	st.heap.Push(h, d)
	return true
}

// settle marks h settled, reporting false when it already was.
func (st *searchState) settle(h int32) bool {
	if st.done[h] == st.epoch {
		return false
	}
	st.done[h] = st.epoch
	return true
}

func (st *searchState) settled(h int32) bool { return st.done[h] == st.epoch }

// visit marks partition w visited, reporting whether it is new.
func (st *searchState) visit(w model.PartitionID) bool {
	if st.visited[w] == st.epoch {
		return false
	}
	st.visited[w] = st.epoch
	return true
}

// Engine answers ITSPQ queries over one IT-Graph. It keeps reusable
// search state (a searchState) between queries, so a single Engine is
// NOT safe for concurrent use. The intended concurrent deployment is
// one engine per goroutine over one shared Graph — the graph, venue,
// distance matrices and snapshot series are all safe for concurrent
// readers — and service.Pool packages exactly that pattern: it keeps
// warm engines in a sync.Pool and checks one out per query. NewEngine
// is deliberately cheap: the dense search state (44 bytes per door,
// heap included) is allocated on the first search and reused by every
// later one.
type Engine struct {
	g       *itgraph.Graph
	v       *model.Venue
	opts    Options
	checker AccessChecker
	st      *searchState // lazily allocated on the first search
}

// NewEngine builds an engine for the graph with the given options.
func NewEngine(g *itgraph.Graph, opts Options) *Engine {
	e := &Engine{
		g:    g,
		v:    g.Venue(),
		opts: opts,
	}
	switch opts.Method {
	case MethodAsyn:
		e.checker = NewAsynChecker(g)
	case MethodStatic:
		e.checker = &alwaysOpenChecker{}
	default:
		e.checker = NewSynChecker(g)
	}
	return e
}

// Graph returns the engine's IT-Graph.
func (e *Engine) Graph() *itgraph.Graph { return e.g }

// MethodName returns the display name of the configured method.
func (e *Engine) MethodName() string { return e.checker.Name() }

// reset readies the search state for a new search, allocating it on
// the engine's first search.
func (e *Engine) reset() *searchState {
	if e.st == nil {
		e.st = newSearchState(e.v)
	}
	e.st.reset()
	return e.st
}

// begin starts a checked search departing at t0: the state is reset,
// the checker positioned, and under EagerHeapInit every door enters the
// heap at ∞ (the literal initialisation of Algorithm 1 lines 2–5).
func (e *Engine) begin(t0 temporal.TimeOfDay, speed float64) *searchState {
	st := e.reset()
	e.checker.Begin(t0, speed)
	if e.opts.EagerHeapInit {
		inf := math.Inf(1)
		for d := 0; d < e.v.DoorCount(); d++ {
			st.heap.Push(int32(d), inf)
		}
	}
	return st
}

// arcsOut returns the arcs to walk out of settled handle h and the
// partition they must leave (callers skip arcs whose From differs):
// for a door, its stored arcs and the partition it was entered from —
// Algorithm 1 line 27's v′, arc-exact like model.Venue.NextPartitions
// but without building a slice; for the root handle, one virtual arc
// into rootPart.
func (e *Engine) arcsOut(h, rootH int32, rootPart model.PartitionID) ([]model.Arc, model.PartitionID) {
	if h == rootH {
		e.st.root[0] = model.Arc{From: model.NoPartition, To: rootPart}
		return e.st.root[:], model.NoPartition
	}
	return e.v.Door(model.DoorID(h)).Arcs, e.st.prevPart[h]
}

// usefulDoor is the early privacy prune (Algorithm 1 line 28): door d
// of w is worth relaxing only if some partition it leads to from w is
// the source's, the target's, or public.
func (e *Engine) usefulDoor(d model.DoorID, w, srcPart, tgtPart model.PartitionID) bool {
	for _, a := range e.v.Door(d).Arcs {
		if a.From == w && (a.To == srcPart || a.To == tgtPart || !e.v.Partition(a.To).Kind.IsPrivate()) {
			return true
		}
	}
	return false
}

// legDist returns the intra-partition distance between two doors of
// partition p, honouring the NoDistanceMatrix ablation.
func (e *Engine) legDist(p model.PartitionID, a, b model.DoorID) float64 {
	if !e.opts.NoDistanceMatrix {
		return e.g.DM().Dist(p, a, b)
	}
	if d, ok := e.v.DistOverride(p, a, b); ok {
		return d
	}
	da, db := e.v.Door(a), e.v.Door(b)
	if da.Pos.Floor != db.Pos.Floor {
		return e.g.DM().Dist(p, a, b) // stairwells always use the DM
	}
	return da.Pos.DistXY(db.Pos)
}

// Route answers ITSPQ(q.Source, q.Target, q.At). On success it returns
// the valid shortest path under the paper's semantics; when no valid
// path exists the error is ErrNoRoute. Stats are returned in both
// cases.
func (e *Engine) Route(q Query) (*Path, SearchStats, error) {
	stats := SearchStats{Method: e.checker.Name()}
	srcPart, ok := e.v.Locate(q.Source)
	if !ok {
		return nil, stats, fmt.Errorf("%w: source %v", ErrNotIndoor, q.Source)
	}
	tgtPart, ok := e.v.Locate(q.Target)
	if !ok {
		return nil, stats, fmt.Errorf("%w: target %v", ErrNotIndoor, q.Target)
	}
	t0 := q.At.Mod()
	speed := q.speed()

	st := e.begin(t0, speed)
	srcH := int32(e.v.DoorCount())
	tgtH := srcH + 1
	if e.opts.EagerHeapInit {
		st.heap.Push(tgtH, math.Inf(1)) // pt starts in the heap too (line 7)
	}
	st.improve(srcH, 0, -1, model.NoPartition)

	for {
		item, ok := st.heap.Pop()
		if !ok || math.IsInf(item.Prio, 1) {
			// Heap exhausted (lazy) or only ∞ entries remain (eager):
			// "no such routes".
			e.finishStats(&stats)
			return nil, stats, ErrNoRoute
		}
		h := item.Key
		stats.Pops++
		if h == tgtH {
			p := e.reconstruct(q.Source, q.Target, st.prevDoor[tgtH], srcH, tgtPart, st.dist[tgtH], t0, speed)
			stats.Found = true
			stats.PathHops = p.Hops()
			stats.PathLength = p.Length
			e.finishStats(&stats)
			return p, stats, nil
		}
		if !st.settle(h) {
			continue
		}
		stats.Settled++
		baseDist := st.dist[h]

		// The partitions to expand into, and the anchor door.
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
			// Entering the target's partition: the next hop is pt itself
			// (Algorithm 1 lines 20–24).
			if w == tgtPart {
				var cand float64
				if anchor == model.NoDoor {
					cand = baseDist + e.g.DM().PointToPoint(w, q.Source, q.Target)
				} else {
					cand = baseDist + e.g.DM().PointToDoor(w, q.Target, anchor)
				}
				if !math.IsInf(cand, 1) && st.improve(tgtH, cand, h, w) {
					stats.Relaxations++
				}
				if w != srcPart || anchor != model.NoDoor {
					// Do not expand through the target partition: any
					// route entering and leaving it again is longer
					// (convex cells, positive legs). The source
					// partition must still be expanded normally.
					continue
				}
			}
			if e.opts.SinglePartitionExpansion && st.visited[w] == st.epoch {
				continue
			}
			if w != srcPart && w != tgtPart && e.v.Partition(w).Kind.IsPrivate() {
				continue // rule 2
			}
			if st.visit(w) {
				stats.PartitionsVisited++
			}
			e.expand(q, w, anchor, h, baseDist, &stats, srcPart, tgtPart)
		}
	}
}

// expand relaxes every leaveable door of partition w from the anchor
// (Algorithm 1 lines 25–34). With the asynchronous checker, expansions
// whose whole arrival window fits inside the current checkpoint slot
// iterate the snapshot's reduced leave-door list instead, pruning
// closed doors up front and skipping the per-door check (exactly
// equivalent: listed doors are open throughout the slot).
func (e *Engine) expand(q Query, w model.PartitionID, anchor model.DoorID, h int32,
	baseDist float64, stats *SearchStats, srcPart, tgtPart model.PartitionID) {

	st := e.st
	doors := e.v.LeaveDoors(w)
	checkEach := true
	if pruner, ok := e.checker.(leavePruner); ok {
		// Bound the longest possible leg inside w: the largest DM entry
		// covers door-to-door legs; the rectangle diagonal covers the
		// source-point legs of the first expansion.
		maxLeg := e.g.DM().Matrix(w).MaxEntry()
		if anchor == model.NoDoor {
			r := e.v.Partition(w).Rect
			if diag := math.Hypot(r.Width(), r.Height()); diag > maxLeg {
				maxLeg = diag
			}
		}
		if pruned, exact := pruner.PrunedLeaveDoors(w, baseDist, maxLeg); exact {
			doors = pruned
			checkEach = false
		}
	}
	// Resolve the anchor's DM row once; each relaxed door then costs
	// one slot scan and one slab read.
	var row dmat.Row
	useRow := anchor != model.NoDoor && !e.opts.NoDistanceMatrix
	if useRow {
		row = e.g.DM().Row(w, anchor)
	}
	for _, dj := range doors {
		hj := int32(dj)
		// Skip settled doors, and doors that lead only to private
		// partitions unless one holds ps or pt.
		if st.settled(hj) || !e.usefulDoor(dj, w, srcPart, tgtPart) {
			continue
		}
		var leg float64
		switch {
		case useRow:
			leg = row.Dist(dj)
		case anchor == model.NoDoor:
			leg = e.g.DM().PointToDoor(w, q.Source, dj)
		default:
			leg = e.legDist(w, anchor, dj)
		}
		if math.IsInf(leg, 1) {
			continue
		}
		distj := baseDist + leg
		// TV_Check (line 30; see DESIGN.md note 6 on the printed
		// polarity). Skipped when the reduced list already guarantees
		// openness.
		if checkEach && !e.checker.Check(dj, distj) {
			continue
		}
		stats.Relaxations++
		st.improve(hj, distj, h, w)
	}
}

// reconstruct rebuilds a path from the prev chains (Algorithm 1 lines
// 11–17): via is the last door before the target point (prevDoor of the
// target node, or a shared run's best entry) and length the target's
// distance. The slices are sized by one walk of the chain up front, so
// a path costs four allocations.
func (e *Engine) reconstruct(src, tgt geom.Point, via, srcH int32, tgtPart model.PartitionID,
	length float64, t0 temporal.TimeOfDay, speed float64) *Path {

	n := 0
	for h := via; h != srcH; h = e.st.prevDoor[h] {
		n++
	}
	doors := make([]model.DoorID, n)
	parts := make([]model.PartitionID, n+1)
	arrivals := make([]temporal.TimeOfDay, n)
	i := n - 1
	for h := via; h != srcH; h = e.st.prevDoor[h] {
		doors[i] = model.DoorID(h)
		parts[i] = e.st.prevPart[h]
		arrivals[i] = t0 + temporal.TimeOfDay(e.st.dist[h]/speed)
		i--
	}
	parts[n] = tgtPart
	return &Path{
		Source:       src,
		Target:       tgt,
		Doors:        doors,
		Partitions:   parts,
		Length:       length,
		Arrivals:     arrivals,
		ArrivalAtTgt: t0 + temporal.TimeOfDay(length/speed),
		DepartedAt:   t0,
	}
}

// finishStats derives the aggregate counters and the working-set model
// (see bytesPerHandle).
func (e *Engine) finishStats(s *SearchStats) {
	s.DoorsTouched = e.st.touched
	s.HeapMax = e.st.heap.MaxLen()
	s.Checker = e.checker.Stats()
	s.BytesEstimate = s.DoorsTouched*bytesPerHandle +
		s.HeapMax*bytesPerHeapSlot +
		s.PartitionsVisited*bytesPerPartition +
		s.Checker.SnapshotBytes
}

// RouteOrNil is Route for callers that treat "no route" as a regular
// outcome: it returns nil without error in that case.
func (e *Engine) RouteOrNil(q Query) (*Path, SearchStats, error) {
	p, st, err := e.Route(q)
	if err == ErrNoRoute {
		return nil, st, nil
	}
	return p, st, err
}
