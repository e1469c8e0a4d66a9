// Package batchplan is the shared-execution batch planner of the
// serving layer: it partitions a batch of located ITSPQ queries into
// groups that one engine run can answer together, so that a
// many-queries-few-endpoints workload (rush-hour crowds heading to one
// gate, boarding calls, mall openings) costs a handful of searches
// instead of one per query.
//
// Grouping rules (the execution side lives in service.Pool and
// core.Engine.RouteMany / RouteManyTo):
//
//   - The temporal methods (ITG/S, ITG/A) share a forward run across
//     queries with the same source point, departure instant and speed —
//     TV_Check outcomes depend on all three, so nothing weaker is
//     sound. Destination-side sharing is not available to them (a
//     reverse run cannot replay forward arrival-time checks), so they
//     fall back to source grouping only.
//   - The static method ignores time entirely: its source groups drop
//     the departure from the key (answers are restated per member by a
//     bit-identical departure rebase), and it additionally forms
//     shared-destination groups (same target point and speed) answered
//     by one reverse run each. When a query qualifies for both sides it
//     joins the larger group (ties prefer the source side).
//   - Queries whose sharing-relevant endpoint partition is private are
//     never grouped on that side: rule 2 exempts only the query's own
//     endpoints, so a shared expansion through such a partition would
//     be query-specific. They plan as Solo and run as ordinary
//     per-query searches (as do singleton groups).
//   - With Options.PartitionGroups, temporal-method queries left over
//     after point-level grouping are regrouped by (source partition,
//     target partition, departure, speed) into SharedPartition groups:
//     their endpoints differ, so no single engine run can answer them,
//     but the group is its own repeat evidence: its first member's
//     miss builds the pair's skeleton family
//     (core.BuildSkeletonFamily) and the rest compose from it — a
//     jittered wave out of one hot lobby collapses to about one
//     search. Both endpoint partitions ride the key: certifiable
//     composition needs the exact pair's family (a hot-lobby wave to
//     one destination shares the pair anyway). Privacy does not block
//     these groups — every member shares both endpoint partitions, so
//     the rule-2 exemptions are identical group-wide.
//
// The planner emits groups ordered by fan-out, largest first, so a
// worker pool drains the expensive shared runs before the solo tail.
// Planning is deterministic: group order, member order and canonical
// departures depend only on the input order.
//
// The planner has two consumers: explicit RouteBatch calls, and the
// standing cross-batch coalescer (internal/coalesce), which
// accumulates concurrently arriving solo queries for a few
// milliseconds and flushes them through RouteBatchSummary — so the
// grouping rules above decide sharing for cross-request traffic too.
package batchplan

import (
	"sort"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/temporal"
)

// Item is one located query of a batch, annotated with what the
// planner needs. At and Speed must be normalised (At.Mod(), effective
// walking speed > 0) so that equal keys mean equal engine inputs;
// Index is the caller's slot (e.g. the batch position) and is carried
// through untouched.
type Item struct {
	Index      int
	Src, Tgt   geom.Point
	At         temporal.TimeOfDay
	Speed      float64
	SrcPart    model.PartitionID
	TgtPart    model.PartitionID
	SrcPrivate bool
	TgtPrivate bool
}

// Kind says how a group is executed.
type Kind uint8

// Group kinds.
const (
	// Solo: one ordinary per-query engine search.
	Solo Kind = iota
	// SharedSource: one forward run from Source answers every member
	// (core.Engine.RouteMany).
	SharedSource
	// SharedTarget: one reverse run rooted at Target answers every
	// member (core.Engine.RouteManyTo; static method only).
	SharedTarget
	// SharedPartition: members share their endpoint partition pair,
	// departure and speed but not their exact points; one member's
	// engine search builds the pair's skeleton family and the rest are
	// composed from it (temporal methods, Options.PartitionGroups).
	SharedPartition
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SharedSource:
		return "shared-source"
	case SharedTarget:
		return "shared-target"
	case SharedPartition:
		return "shared-partition"
	}
	return "solo"
}

// Group is one execution unit of a plan. Members index the planned
// items slice, in input order; the first member's departure is the
// canonical At a shared run executes at (static members departing at
// other instants are rebased by the executor).
type Group struct {
	Kind    Kind
	Members []int
	// Source is the shared source point of a SharedSource group.
	Source geom.Point
	// Target is the shared target point of a SharedTarget group.
	Target geom.Point
	// At is the canonical departure of the shared run.
	At temporal.TimeOfDay
	// Speed is the shared walking speed.
	Speed float64
	// Why records the decision provenance of a Solo group: why this
	// member could not share (obs.ReasonPrivatePartition when the
	// privacy rule blocked every available sharing side,
	// obs.ReasonSingletonGroup when a side was open but had no
	// partners). Zero for shared groups.
	Why obs.Reason
}

// Plan is an ordered set of execution groups covering every input item
// exactly once.
type Plan struct {
	Groups []Group
}

// SharedGroups counts the multi-member shared groups of the plan.
func (p Plan) SharedGroups() int {
	n := 0
	for _, g := range p.Groups {
		if g.Kind != Solo {
			n++
		}
	}
	return n
}

// endpointKey identifies one shared-endpoint family. For the static
// method at stays zero: the answer is departure-independent, so
// departures merge into one group.
type endpointKey struct {
	pt    geom.Point
	at    temporal.TimeOfDay
	speed float64
}

// Options tune the planner beyond the method-implied rules.
type Options struct {
	// PartitionGroups regroups temporal-method leftovers into
	// SharedPartition groups keyed by (source partition, target
	// partition, departure, speed) — the skeleton-composition coalescing
	// unit. The executor must have a skeleton store to serve them;
	// service.Pool sets this exactly when Options.SkeletonCache is
	// usable. Ignored for the static method (its point-level groups
	// already merge departures, and skeleton families there certify the
	// whole day from any single miss).
	PartitionGroups bool
}

// New plans a batch for the given engine method. Every item lands in
// exactly one group; see the package comment for the grouping rules.
func New(items []Item, method core.Method) Plan {
	return NewOpts(items, method, Options{})
}

// NewOpts is New with planner options.
func NewOpts(items []Item, method core.Method, opts Options) Plan {
	static := method == core.MethodStatic
	srcKey := func(it Item) endpointKey {
		k := endpointKey{pt: it.Src, speed: it.Speed}
		if !static {
			k.at = it.At
		}
		return k
	}
	tgtKey := func(it Item) endpointKey { return endpointKey{pt: it.Tgt, speed: it.Speed} }
	// Rule-2 exemptions are per query: an endpoint partition that is
	// private blocks sharing on the opposite side unless it coincides
	// with the shared partition (which is exempt for the whole group).
	srcShareable := func(it Item) bool { return !it.TgtPrivate || it.TgtPart == it.SrcPart }
	tgtShareable := func(it Item) bool {
		return static && (!it.SrcPrivate || it.SrcPart == it.TgtPart)
	}

	srcCount := make(map[endpointKey]int)
	tgtCount := make(map[endpointKey]int)
	for _, it := range items {
		if srcShareable(it) {
			srcCount[srcKey(it)]++
		}
		if tgtShareable(it) {
			tgtCount[tgtKey(it)]++
		}
	}

	srcGroups := make(map[endpointKey][]int)
	tgtGroups := make(map[endpointKey][]int)
	var solos []int
	for m, it := range items {
		sOK := srcShareable(it) && srcCount[srcKey(it)] >= 2
		tOK := tgtShareable(it) && tgtCount[tgtKey(it)] >= 2
		switch {
		case sOK && (!tOK || srcCount[srcKey(it)] >= tgtCount[tgtKey(it)]):
			srcGroups[srcKey(it)] = append(srcGroups[srcKey(it)], m)
		case tOK:
			tgtGroups[tgtKey(it)] = append(tgtGroups[tgtKey(it)], m)
		default:
			solos = append(solos, m)
		}
	}

	var groups []Group
	collect := func(kind Kind, keyed map[endpointKey][]int) {
		for k, ms := range keyed {
			if len(ms) < 2 {
				// The counterpart group absorbed the family's other
				// members; a singleton shares nothing.
				solos = append(solos, ms...)
				continue
			}
			g := Group{Kind: kind, Members: ms, At: items[ms[0]].At, Speed: k.speed}
			if kind == SharedSource {
				g.Source = k.pt
			} else {
				g.Target = k.pt
			}
			groups = append(groups, g)
		}
	}
	collect(SharedSource, srcGroups)
	collect(SharedTarget, tgtGroups)

	if opts.PartitionGroups && !static {
		// Regroup the leftovers by partition pair: queries no point-level
		// group could absorb still coalesce when they share the pair,
		// departure and speed — one miss's skeleton family composes the
		// rest. Same-partition queries stay solo (families refuse the
		// degenerate pair). Sorted first so member order is input order.
		type pairKey struct {
			src, tgt model.PartitionID
			at       temporal.TimeOfDay
			speed    float64
		}
		sort.Ints(solos)
		pairGroups := make(map[pairKey][]int)
		var rest []int
		for _, m := range solos {
			it := items[m]
			if it.SrcPart == it.TgtPart {
				rest = append(rest, m)
				continue
			}
			k := pairKey{src: it.SrcPart, tgt: it.TgtPart, at: it.At, speed: it.Speed}
			pairGroups[k] = append(pairGroups[k], m)
		}
		solos = rest
		for k, ms := range pairGroups {
			if len(ms) < 2 {
				solos = append(solos, ms...)
				continue
			}
			groups = append(groups, Group{Kind: SharedPartition, Members: ms,
				At: items[ms[0]].At, Speed: k.speed})
		}
	}

	// Largest fan-out first; ties and determinism by first member.
	sort.Slice(groups, func(i, j int) bool {
		gi, gj := groups[i], groups[j]
		if len(gi.Members) != len(gj.Members) {
			return len(gi.Members) > len(gj.Members)
		}
		return items[gi.Members[0]].Index < items[gj.Members[0]].Index
	})
	// Solo provenance: private_partition when the privacy rule closed
	// every sharing side this method offers; otherwise the member
	// simply had no partners (singleton family, or the counterpart
	// group absorbed them — those items had an open side by
	// construction, so the first test is false for them).
	soloWhy := func(it Item) obs.Reason {
		if !srcShareable(it) && !tgtShareable(it) && (it.SrcPrivate || it.TgtPrivate) {
			return obs.ReasonPrivatePartition
		}
		return obs.ReasonSingletonGroup
	}
	sort.Ints(solos)
	for _, m := range solos {
		groups = append(groups, Group{Kind: Solo, Members: []int{m}, Why: soloWhy(items[m])})
	}
	return Plan{Groups: groups}
}
