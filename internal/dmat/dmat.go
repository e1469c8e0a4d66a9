// Package dmat builds the intra-partition distance matrices (DM) stored
// in the IT-Graph vertex labels. Following Lu, Cao and Jensen (ICDE
// 2012), DM(v, di, dj) is the walking distance between doors di and dj
// inside partition v; the ITSPQ search composes path lengths from these
// matrices plus the source/target segments.
//
// Partitions are convex rectangles after decomposition, so the default
// distance is Euclidean. Three refinements:
//
//   - explicit overrides from the venue builder win (used for stairway
//     lengths and venues transcribed from published tables);
//   - stairwell partitions connect doors on different floors, where the
//     planar metric is meaningless — they must carry an override;
//   - for non-convex (rectilinear) polygons the package also provides a
//     visibility-graph shortest-path distance, used by the decomposition
//     substrate and available for venues that skip decomposition.
package dmat

import (
	"fmt"
	"math"
	"unsafe"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
)

// Set holds the DM of every partition of a venue in three flat tables,
// so it stores each distinct entry once, needs no per-partition index,
// and Build allocates a fixed number of times whatever the partition
// count:
//
//   - slab: every partition's upper triangle, row by row with the
//     diagonal omitted, at a per-partition offset. DM is symmetric and
//     zero on the diagonal, so the triangle holds all of it;
//   - parts: per partition, the slab offset, the door count and the
//     largest entry;
//   - slotOff/slots: the door-slot table, a CSR index from each door to
//     its (partition, local index) pairs — normally two per door, one
//     per side: slots[slotOff[d]:slotOff[d+1]] are door d's pairs.
//
// A door's local index in a partition is its position in
// model.Venue.DoorsOf.
type Set struct {
	venue   *model.Venue
	slab    []float64
	parts   []partInfo
	slotOff []int32
	slots   []doorSlot
}

// partInfo locates one partition's triangle in the slab.
type partInfo struct {
	off int32   // slab index of the partition's entry (0, 1)
	n   int32   // door count
	max float64 // largest entry
}

// doorSlot is one (partition, local index) pair of the door-slot table.
type doorSlot struct {
	part model.PartitionID
	idx  int32
}

// Build computes distance matrices for every partition of the venue.
// One pass over the partitions sizes the tables, a second fills them.
func Build(v *model.Venue) (*Set, error) {
	np, nd := v.PartitionCount(), v.DoorCount()
	s := &Set{venue: v, parts: make([]partInfo, np), slotOff: make([]int32, nd+1)}
	entries := 0
	for p := range s.parts {
		doors := v.DoorsOf(model.PartitionID(p))
		n := len(doors)
		if entries+n*(n-1)/2 > math.MaxInt32 {
			return nil, fmt.Errorf("dmat: venue %s needs more than %d distance-matrix entries", v.Name, math.MaxInt32)
		}
		s.parts[p] = partInfo{off: int32(entries), n: int32(n)}
		entries += n * (n - 1) / 2
		for _, d := range doors {
			s.slotOff[d+1]++
		}
	}
	for d := 0; d < nd; d++ {
		s.slotOff[d+1] += s.slotOff[d]
	}
	s.slab = make([]float64, entries)
	s.slots = make([]doorSlot, s.slotOff[nd])
	placed := make([]int32, nd) // slots filled so far, per door
	for p := range s.parts {
		pid := model.PartitionID(p)
		doors := v.DoorsOf(pid)
		pi := &s.parts[p]
		k := pi.off
		for i, a := range doors {
			s.slots[s.slotOff[a]+placed[a]] = doorSlot{part: pid, idx: int32(i)}
			placed[a]++
			for _, b := range doors[i+1:] {
				dist, err := doorDistance(v, pid, a, b)
				if err != nil {
					return nil, err
				}
				s.slab[k] = dist
				k++
				if dist > pi.max {
					pi.max = dist
				}
			}
		}
	}
	return s, nil
}

// doorDistance resolves the intra-partition distance between two doors,
// trying overrides first, then geometry.
func doorDistance(v *model.Venue, p model.PartitionID, a, b model.DoorID) (float64, error) {
	if d, ok := v.DistOverride(p, a, b); ok {
		return d, nil
	}
	part := v.Partition(p)
	da, db := v.Door(a), v.Door(b)
	if da.Pos.Floor != db.Pos.Floor {
		if part.Kind != model.StairwellPartition {
			return 0, fmt.Errorf(
				"dmat: doors %s and %s of non-stairwell partition %s lie on different floors and no distance override is set",
				da.Name, db.Name, part.Name)
		}
		// Stairwell without an explicit stairway length: fall back to the
		// planar distance plus a nominal flight length per floor.
		const flightLength = 20.0 // metres, the paper's stairway length
		floors := db.Pos.Floor - da.Pos.Floor
		if floors < 0 {
			floors = -floors
		}
		return da.Pos.DistXY(db.Pos) + float64(floors)*flightLength, nil
	}
	return da.Pos.DistXY(db.Pos), nil
}

// local returns door d's local index in partition p, or -1 when d is
// not attached to p (or is no door of the venue).
func (s *Set) local(p model.PartitionID, d model.DoorID) int32 {
	if uint(d) >= uint(len(s.slotOff)-1) {
		return -1
	}
	for _, sl := range s.slots[s.slotOff[d]:s.slotOff[d+1]] {
		if sl.part == p {
			return sl.idx
		}
	}
	return -1
}

// entry returns DM(p, i, j) for local indices i and j of partition p.
func (s *Set) entry(p model.PartitionID, i, j int32) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	pi := &s.parts[p]
	// Row i of an n-door triangle starts i*(n-1) - i*(i-1)/2 entries in.
	row := int(i)*int(pi.n-1) - int(i)*int(i-1)/2
	return s.slab[int(pi.off)+row+int(j-i-1)]
}

// Row is one door's row of one partition's DM. It resolves the door's
// slot once, so a run of lookups from the same anchor — an expansion
// relaxing the doors of the partition — costs one slot scan and one
// slab read each.
type Row struct {
	s *Set
	p model.PartitionID
	i int32 // the anchor's local index; -1 when it is not attached to p
}

// Row resolves door a's row of partition p's DM.
func (s *Set) Row(p model.PartitionID, a model.DoorID) Row {
	return Row{s: s, p: p, i: s.local(p, a)}
}

// Dist returns DM(p, a, b) for the row's partition p and anchor a. It
// returns +Inf when a or b is not attached to p.
func (r Row) Dist(b model.DoorID) float64 {
	j := r.s.local(r.p, b)
	if r.i < 0 || j < 0 {
		return math.Inf(1)
	}
	return r.s.entry(r.p, r.i, j)
}

// Matrix is a read-only view of one partition's DM inside its Set: the
// paper's per-vertex DM, symmetric door-to-door distances over the
// doors attached to that partition. The paper sets DM to null for
// single-door partitions; here a 1x1 zero matrix plays that role.
type Matrix struct {
	s *Set
	p model.PartitionID
}

// MaxEntry returns the largest door-to-door distance in the matrix,
// used to bound arrival-time windows during snapshot-pruned expansion.
func (m Matrix) MaxEntry() float64 { return m.s.parts[m.p].max }

// Doors returns the doors covered by the matrix, in local-index order
// (shared; do not mutate).
func (m Matrix) Doors() []model.DoorID { return m.s.venue.DoorsOf(m.p) }

// Size returns the number of doors.
func (m Matrix) Size() int { return int(m.s.parts[m.p].n) }

// Dist returns the intra-partition distance between doors a and b. ok is
// false when either door is not attached to the partition.
func (m Matrix) Dist(a, b model.DoorID) (float64, bool) {
	i, j := m.s.local(m.p, a), m.s.local(m.p, b)
	if i < 0 || j < 0 {
		return 0, false
	}
	return m.s.entry(m.p, i, j), true
}

// Matrix returns partition p's distance matrix.
func (s *Set) Matrix(p model.PartitionID) Matrix { return Matrix{s: s, p: p} }

// Dist returns DM(p, a, b), the intra-partition distance between doors a
// and b of partition p. It returns +Inf when either door is not attached
// to p, so a buggy caller surfaces as an unreachable route rather than a
// silently wrong short one.
func (s *Set) Dist(p model.PartitionID, a, b model.DoorID) float64 {
	i, j := s.local(p, a), s.local(p, b)
	if i < 0 || j < 0 {
		return math.Inf(1)
	}
	return s.entry(p, i, j)
}

// PointToDoor returns the walking distance from an in-partition point to
// door d of partition p (Euclidean; partitions are convex after
// decomposition). +Inf when d is not attached to p or floors mismatch.
func (s *Set) PointToDoor(p model.PartitionID, pt geom.Point, d model.DoorID) float64 {
	if s.local(p, d) < 0 {
		return math.Inf(1)
	}
	door := s.venue.Door(d)
	if door.Pos.Floor != pt.Floor {
		return math.Inf(1)
	}
	return pt.DistXY(door.Pos)
}

// PointToPoint returns the in-partition walking distance between two
// points covered by the same (convex) partition.
func (s *Set) PointToPoint(p model.PartitionID, a, b geom.Point) float64 {
	if a.Floor != b.Floor {
		return math.Inf(1)
	}
	return a.DistXY(b)
}

// MemoryBytes returns the set's footprint: its header, the slab and
// the partition and door-slot tables, each at its allocated size.
func (s *Set) MemoryBytes() int {
	return int(unsafe.Sizeof(*s)) +
		cap(s.slab)*int(unsafe.Sizeof(float64(0))) +
		cap(s.parts)*int(unsafe.Sizeof(partInfo{})) +
		cap(s.slotOff)*int(unsafe.Sizeof(int32(0))) +
		cap(s.slots)*int(unsafe.Sizeof(doorSlot{}))
}

// MaxDoorsPerPartition returns the largest matrix dimension, a venue
// complexity indicator used in stats.
func (s *Set) MaxDoorsPerPartition() int {
	n := int32(0)
	for _, pi := range s.parts {
		n = max(n, pi.n)
	}
	return int(n)
}
